package dyngraph

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"tufast/internal/core"
	"tufast/internal/graph"
	"tufast/internal/mem"
	"tufast/internal/sched"
)

// findLatestWalk is findLatest as it was before vertices had an index:
// a walk of u's whole chain, whatever its length. Kept as the reference
// the indexed lookup must agree with, op for op.
func findLatestWalk(s *Store, r reader, u, w uint32) (slot, last mem.Addr, lastUsed uint64) {
	b := mem.Addr(r.Read(u, s.headOf(u)))
	for b != 0 {
		used := r.Read(u, b+1)
		if used > slotsPerBlock {
			used = slotsPerBlock
		}
		for i := mem.Addr(0); i < mem.Addr(used); i++ {
			e := r.Read(u, b+slotBase+i)
			if e&entryValid != 0 && entryTarget(e) == w {
				slot = b + slotBase + i
			}
		}
		next := mem.Addr(r.Read(u, b))
		if next == 0 {
			return slot, b, used
		}
		b = next
	}
	return slot, 0, 0
}

// checkIndex holds u's index to its invariant: a chain of
// indexMinBlocks blocks or more has one, the table's load is at most ½,
// every target with an entry in the chain has exactly one slot holding
// the address of its LAST entry, there are no other slots, count is
// their number and tail is the chain's last block.
func checkIndex(s *Store, u uint32) error {
	last := map[uint32]mem.Addr{}
	var tail mem.Addr
	blocks := 0
	for b := mem.Addr(s.sp.Load(s.headOf(u))); b != 0; b = mem.Addr(s.sp.Load(b)) {
		for i := mem.Addr(0); i < mem.Addr(s.sp.Load(b+1)); i++ {
			if e := s.sp.Load(b + slotBase + i); e&entryValid != 0 {
				last[entryTarget(e)] = b + slotBase + i
			}
		}
		tail = b
		blocks++
	}
	hdr := mem.Addr(s.sp.Load(s.idxOf(u)))
	if hdr == 0 {
		if blocks >= indexMinBlocks {
			return fmt.Errorf("vertex %d: %d blocks and no index", u, blocks)
		}
		return nil
	}
	bits, count := s.sp.Load(hdr+idxBits), s.sp.Load(hdr+idxCount)
	if bits < minIndexBits || 2*count > 1<<bits {
		return fmt.Errorf("vertex %d: %d targets in a table of 1<<%d", u, count, bits)
	}
	if got := mem.Addr(s.sp.Load(hdr + idxTail)); got != tail {
		return fmt.Errorf("vertex %d: index tail %d, chain ends in %d", u, got, tail)
	}
	seen := 0
	for i := mem.Addr(0); i < 1<<bits; i++ {
		e := s.sp.Load(hdr + idxSlots + i)
		if e == 0 {
			continue
		}
		seen++
		if w := uint32(e >> 32); last[w] != mem.Addr(uint32(e)) {
			return fmt.Errorf("vertex %d: slot of target %d holds %d, its last entry is at %d", u, w, uint32(e), last[w])
		}
		if c := s.findLatest(quiescent{s.sp}, u, uint32(e>>32)); c.slot != mem.Addr(uint32(e)) {
			return fmt.Errorf("vertex %d: target %d is in the table but the probe finds %d", u, e>>32, c.slot)
		}
	}
	if seen != len(last) || uint64(seen) != count {
		return fmt.Errorf("vertex %d: %d slots, count %d, %d targets in the chain", u, seen, count, len(last))
	}
	return nil
}

// TestIndexDifferential drives seeded add/remove streams from a handful
// of sources over a few hundred targets — write-stamp bumps, a pool of
// hot pairs flipped in place within a stamp, CompactChain at a moving
// watermark, tables doubling as the sources' target sets grow — and
// holds the store, op for op, to a map oracle and to the walk the index
// replaces: the same newest slot, last block and fill for every lookup,
// the same changed result, NeighborsNow equal to the truth, HasArcAt
// equal to the truth of every stamp the watermark has not passed, and
// the index invariant on every source after every op.
func TestIndexDifferential(t *testing.T) {
	seeds := int64(4)
	if testing.Short() {
		seeds = 2
	}
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sources, targets := 2+rng.Intn(7), 100+rng.Intn(301) // ≤ 8, ≤ 400
		n := sources + targets
		var baseEdges []graph.Edge
		for u := 0; u < sources; u++ {
			for v := sources; v < n; v += 3 + u {
				baseEdges = append(baseEdges, graph.Edge{U: uint32(u), V: uint32(v)})
			}
		}
		base := graph.MustBuild(n, baseEdges, graph.BuildOptions{})
		sp := mem.NewSpace(SpaceWords(n, 3000) + 1<<18) // + what CompactChain re-allocates
		s, tx := New(sp, base), directTx{sp}

		type arc struct{ u, v uint32 }
		live := map[arc]bool{}
		for u := 0; u < sources; u++ {
			for _, v := range base.Neighbors(uint32(u)) {
				live[arc{uint32(u), v}] = true
			}
		}
		hot := make([]arc, 16)
		for i := range hot {
			hot[i] = arc{uint32(rng.Intn(sources)), uint32(sources + rng.Intn(targets))}
		}
		history := map[uint64]map[arc]bool{} // stamp → the truth once the stamp is complete
		stamp, keep := uint64(1), uint64(0)
		doubled := 0
		for i := 1; i <= 3000; i++ {
			a := arc{uint32(rng.Intn(sources)), uint32(sources + rng.Intn(targets))}
			if rng.Intn(10) < 3 {
				a = hot[rng.Intn(len(hot))]
			}
			slot, last, used := findLatestWalk(s, tx, a.u, a.v)
			c := s.findLatest(tx, a.u, a.v)
			if c.slot != slot || c.last != last || c.used != used {
				t.Fatalf("seed %d op %d: findLatest(%d,%d) = slot %d last %d used %d, the walk finds slot %d last %d used %d",
					seed, i, a.u, a.v, c.slot, c.last, c.used, slot, last, used)
			}
			bitsBefore := uint64(c.bits)
			del := rng.Intn(10) < 4
			var changed bool
			if del {
				changed = s.RemoveArc(tx, a.u, a.v)
			} else {
				changed = s.AddArc(tx, a.u, a.v)
			}
			if want := live[a] == del; changed != want {
				t.Fatalf("seed %d op %d: del=%v (%d,%d) changed=%v, want %v", seed, i, del, a.u, a.v, changed, want)
			}
			live[a] = !del
			if hdr := mem.Addr(s.sp.Load(s.idxOf(a.u))); c.hdr != 0 && hdr != c.hdr && s.sp.Load(hdr+idxBits) == bitsBefore+1 {
				doubled++
			}
			for u := 0; u < sources; u++ {
				if err := checkIndex(s, uint32(u)); err != nil {
					t.Fatalf("seed %d op %d: %v", seed, i, err)
				}
			}
			if i%50 == 0 {
				snap := make(map[arc]bool, len(live))
				for k, on := range live {
					snap[k] = on
				}
				history[stamp] = snap
				stamp++
				s.SetWriteStamp(stamp)
			}
			if i%700 == 0 {
				keep = stamp - 1 - uint64(rng.Intn(4))
				for u := 0; u < sources; u++ {
					s.CompactChain(tx, uint32(u), keep)
					if err := checkIndex(s, uint32(u)); err != nil {
						t.Fatalf("seed %d op %d, after CompactChain(keep %d): %v", seed, i, keep, err)
					}
				}
			}
			if i%100 != 0 {
				continue
			}
			for u := 0; u < sources; u++ {
				var want []uint32
				for v := uint32(sources); int(v) < n; v++ {
					if live[arc{uint32(u), v}] {
						want = append(want, v)
					}
					if got := s.HasArcNow(uint32(u), v); got != live[arc{uint32(u), v}] {
						t.Fatalf("seed %d op %d: HasArcNow(%d,%d) = %v", seed, i, u, v, got)
					}
					for e := max(keep, 1); e < stamp; e++ {
						if got := s.HasArcAt(uint32(u), v, e); got != history[e][arc{uint32(u), v}] {
							t.Fatalf("seed %d op %d: HasArcAt(%d,%d, stamp %d) = %v", seed, i, u, v, e, got)
						}
					}
				}
				if got := s.NeighborsNow(uint32(u), nil); !slices.Equal(got, want) {
					t.Fatalf("seed %d op %d: NeighborsNow(%d) = %v, want %v", seed, i, u, got, want)
				}
				if d := s.LiveDegree(uint32(u)); d != len(want) {
					t.Fatalf("seed %d op %d: LiveDegree(%d) = %d, want %d", seed, i, u, d, len(want))
				}
			}
		}
		if doubled == 0 {
			t.Errorf("seed %d: no table doubled; the stream does not cover growth", seed)
		}
	}
}

// vertexWords reads everything u owns — head, deg, idx, every block of
// its chain with the block's address, and its index table — straight
// from the space.
func vertexWords(s *Store, u uint32) []uint64 {
	out := []uint64{s.sp.Load(s.headOf(u)), s.sp.Load(s.degOf(u)), s.sp.Load(s.idxOf(u))}
	for b := mem.Addr(s.sp.Load(s.headOf(u))); b != 0; b = mem.Addr(s.sp.Load(b)) {
		out = append(out, uint64(b))
		for i := mem.Addr(0); i < blockWords; i++ {
			out = append(out, s.sp.Load(b+i))
		}
	}
	if hdr := mem.Addr(s.sp.Load(s.idxOf(u))); hdr != 0 {
		for i := mem.Addr(0); i < idxSlots+1<<s.sp.Load(hdr+idxBits); i++ {
			out = append(out, s.sp.Load(hdr+i))
		}
	}
	return out
}

// TestIndexAbortSafety kills, through a real core.System, the attempt
// that built a vertex's index, the one that doubled its table and the
// one that repointed a slot — at the commit point, after every write of
// the attempt was issued — in H, O and L mode each. The retry must find
// every word the vertex owns as it was before the attempt (H and O
// buffered their writes, L's in-place ones were undone), and must
// commit the state the op asks for.
func TestIndexAbortSafety(t *testing.T) {
	const n = 256
	cfg := core.Config{HMaxHint: 64, OMaxHint: 4096}
	modes := []struct {
		name string
		hint int
	}{{"H", 8}, {"O", 512}, {"L", 1 << 20}}
	// prefill is how many distinct targets vertex 0 holds before the op
	// under test appends one more (at a later stamp, so it is an append).
	cases := []struct {
		name    string
		prefill int
		op      func(s *Store, tx sched.Tx) bool
		want    func(s *Store, before []uint64) error
	}{
		{"built", 3 * slotsPerBlock, func(s *Store, tx sched.Tx) bool { return s.AddArc(tx, 0, 200) },
			func(s *Store, before []uint64) error {
				if before[2] != 0 || s.sp.Load(s.idxOf(0)) == 0 {
					return fmt.Errorf("idx %d → %d, want none → built", before[2], s.sp.Load(s.idxOf(0)))
				}
				return nil
			}},
		{"doubled", 32, func(s *Store, tx sched.Tx) bool { return s.AddArc(tx, 0, 200) },
			func(s *Store, before []uint64) error {
				was, is := s.sp.Load(mem.Addr(before[2])+idxBits), s.sp.Load(mem.Addr(s.sp.Load(s.idxOf(0)))+idxBits)
				if was != 6 || is != 7 {
					return fmt.Errorf("table of 1<<%d → 1<<%d, want 6 → 7", was, is)
				}
				return nil
			}},
		{"updated", 25, func(s *Store, tx sched.Tx) bool { return s.RemoveArc(tx, 0, 5) },
			func(s *Store, before []uint64) error {
				if hdr := s.sp.Load(s.idxOf(0)); hdr != before[2] {
					return fmt.Errorf("idx %d → %d, want the same table", before[2], hdr)
				}
				return nil
			}},
	}
	for _, c := range cases {
		for _, m := range modes {
			t.Run(c.name+"/"+m.name, func(t *testing.T) {
				base := graph.MustBuild(n, nil, graph.BuildOptions{})
				sp := mem.NewSpace(24*(n+8) + SpaceWords(n, 256))
				s := New(sp, base)
				for v := 1; v <= c.prefill; v++ {
					s.AddArc(directTx{sp}, 0, uint32(v))
				}
				s.SetWriteStamp(2)
				if err := checkIndex(s, 0); err != nil {
					t.Fatal(err)
				}
				before := vertexWords(s, 0)
				wantRow := s.NeighborsNow(0, nil)

				sys := core.New(sp, n, cfg)
				fi := sched.NewFaultInjector(sched.FaultSpec{Mode: m.name, Op: "commit", Kind: sched.FaultAbort})
				sys.SetFaultInjector(fi)
				attempts := 0
				var changed bool
				err := sys.Worker(0).Run(m.hint, func(tx sched.Tx) error {
					attempts++
					if fi.Fired() == 1 {
						// The retry after the kill: nothing of the dead
						// attempt may be left in what the vertex owns.
						if now := vertexWords(s, 0); !slices.Equal(now, before) {
							t.Errorf("after the aborted attempt the vertex reads\n%v\nbefore it\n%v", now, before)
						}
					}
					changed = c.op(s, tx)
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				if fi.Fired() != 1 || attempts < 2 {
					t.Fatalf("fault fired %d times over %d attempts: the op did not commit in %s mode", fi.Fired(), attempts, m.name)
				}
				if !changed {
					t.Error("the op reports no change")
				}
				if err := checkIndex(s, 0); err != nil {
					t.Error(err)
				}
				if err := c.want(s, before); err != nil {
					t.Error(err)
				}
				if c.name == "updated" {
					wantRow = slices.DeleteFunc(wantRow, func(v uint32) bool { return v == 5 })
				} else {
					wantRow = append(wantRow, 200)
				}
				if got := s.NeighborsNow(0, nil); !slices.Equal(got, wantRow) {
					t.Errorf("NeighborsNow(0) = %v, want %v", got, wantRow)
				}
				if d := s.LiveDegree(0); d != len(wantRow) {
					t.Errorf("LiveDegree(0) = %d, want %d", d, len(wantRow))
				}
			})
		}
	}
}

// tornReader reads the space, except that the words at the addresses in
// garbage read as the values given: what a doomed attempt may see of an
// index. It records a read outside the space instead of making it.
type tornReader struct {
	sp      *mem.Space
	garbage map[mem.Addr]uint64
	reads   int
	outside []mem.Addr
}

func (r *tornReader) Read(_ uint32, a mem.Addr) uint64 {
	r.reads++
	if v, ok := r.garbage[a]; ok {
		return v
	}
	if uint64(a) >= uint64(r.sp.Cap()) {
		r.outside = append(r.outside, a)
		return 0
	}
	return r.sp.Load(a)
}

// TestFindLatestTornIndex runs findLatest over an indexed vertex whose
// header and slot words read as garbage — sizes no table has, a tail
// and slot addresses outside the space, a table with no empty slot —
// and holds it to terminating after a bounded number of reads, all of
// them inside the space, with every address it returns inside it too.
func TestFindLatestTornIndex(t *testing.T) {
	s, tx := newTestStore(t, 64, nil, false)
	for v := uint32(1); v <= 40; v++ {
		s.AddArc(tx, 0, v)
	}
	hdr := mem.Addr(s.sp.Load(s.idxOf(0)))
	if hdr == 0 {
		t.Fatal("vertex 0 has no index")
	}
	size := mem.Addr(1) << s.sp.Load(hdr+idxBits)
	words := []uint64{0, 1, 5, 31, 32, 33, 63, 64, 65, 1 << 20, 1 << 32, 1<<63 - 1, 1 << 63, ^uint64(0),
		uint64(s.sp.Cap()), uint64(s.sp.Cap() - 1), uint64(s.sp.Cap()-1)<<32 | uint64(s.sp.Cap()-1), 7<<32 | 1<<31}
	check := func(name string, garbage map[mem.Addr]uint64) {
		t.Helper()
		for _, w := range []uint32{1, 7, 40, 41, 63} {
			r := &tornReader{sp: s.sp, garbage: garbage}
			c := s.findLatest(r, 0, w)
			if len(r.outside) != 0 {
				t.Errorf("%s: findLatest(0,%d) read outside the space at %v", name, w, r.outside)
			}
			if r.reads > s.sp.Cap() {
				t.Errorf("%s: findLatest(0,%d) made %d reads in a space of %d words", name, w, r.reads, s.sp.Cap())
			}
			for _, a := range []mem.Addr{c.slot, c.last + blockWords - 1, c.at} {
				if uint64(a) >= uint64(s.sp.Cap()) {
					t.Errorf("%s: findLatest(0,%d) returns address %d outside the space: %+v", name, w, a, c)
				}
			}
			if c.used > slotsPerBlock {
				t.Errorf("%s: findLatest(0,%d) returns used %d", name, w, c.used)
			}
		}
	}
	for _, g := range words {
		check(fmt.Sprintf("bits=%#x", g), map[mem.Addr]uint64{hdr + idxBits: g})
		check(fmt.Sprintf("tail=%#x", g), map[mem.Addr]uint64{hdr + idxTail: g})
		full := map[mem.Addr]uint64{hdr + idxBits: g, hdr + idxTail: g}
		for i := mem.Addr(0); i < size; i++ {
			full[hdr+idxSlots+i] = g | 1<<40 // no slot empty, none matching
		}
		check(fmt.Sprintf("every word=%#x", g), full)
		match := map[mem.Addr]uint64{}
		for i := mem.Addr(0); i < size; i++ {
			match[hdr+idxSlots+i] = 7<<32 | g&(1<<32-1) // target 7 everywhere, at a garbage address
		}
		check(fmt.Sprintf("slots→%#x", g), match)
	}
}

// TestCompactChainKeepsTheTable: chain GC rebuilds the chain into fresh
// blocks and refills the vertex's table where it stands — no new table
// however many passes run, down to a chain compacted away entirely —
// and the vertex goes on mutating through the same table afterwards.
func TestCompactChainKeepsTheTable(t *testing.T) {
	s, tx := newTestStore(t, 128, []graph.Edge{{U: 0, V: 100}, {U: 0, V: 101}}, false)
	for v := uint32(1); v <= 40; v++ {
		s.AddArc(tx, 0, v)
	}
	hdr := s.sp.Load(s.idxOf(0))
	if hdr == 0 {
		t.Fatal("vertex 0 has no index")
	}
	// Supersede most of the chain at later stamps, then collect it.
	s.SetWriteStamp(2)
	for v := uint32(1); v <= 30; v++ {
		s.RemoveArc(tx, 0, v)
	}
	s.RemoveArc(tx, 0, 100)
	s.SetWriteStamp(3)
	used := s.sp.Used()
	if !s.CompactChain(tx, 0, 2) {
		t.Fatal("CompactChain found nothing to reclaim")
	}
	if err := checkIndex(s, 0); err != nil {
		t.Fatal(err)
	}
	// 40 adds and 31 tombstones collapse to 10 live overlay arcs and one
	// tombstone over the base: two blocks, and not a word more.
	if got := s.sp.Load(s.idxOf(0)); got != hdr || s.sp.Used()-used != 2*blockWords {
		t.Errorf("after CompactChain idx is %d (was %d) and the arena grew by %d words, want the same table and %d", got, hdr, s.sp.Used()-used, 2*blockWords)
	}
	want := []uint32{31, 32, 33, 34, 35, 36, 37, 38, 39, 40, 101}
	if got := s.NeighborsNow(0, nil); !slices.Equal(got, want) {
		t.Errorf("NeighborsNow(0) = %v, want %v", got, want)
	}
	// Undo the rest: the chain compacts away, the (empty) table stays.
	for v := uint32(31); v <= 40; v++ {
		s.RemoveArc(tx, 0, v)
	}
	s.AddArc(tx, 0, 100)
	s.SetWriteStamp(4)
	if !s.CompactChain(tx, 0, 3) || s.sp.Load(s.headOf(0)) != 0 {
		t.Fatalf("the chain did not compact away: head %d", s.sp.Load(s.headOf(0)))
	}
	if err := checkIndex(s, 0); err != nil {
		t.Fatal(err)
	}
	if got := s.sp.Load(s.idxOf(0)); got != hdr || s.sp.Load(mem.Addr(hdr)+idxCount) != 0 {
		t.Errorf("after the chain is gone idx is %d (was %d) with count %d", got, hdr, s.sp.Load(mem.Addr(hdr)+idxCount))
	}
	for v := uint32(50); v < 60; v++ {
		if !s.AddArc(tx, 0, v) || !s.HasArcNow(0, v) {
			t.Fatalf("AddArc(0,%d) after the chain was compacted away", v)
		}
		if err := checkIndex(s, 0); err != nil {
			t.Fatal(err)
		}
	}
	if s.HasArcNow(0, 35) || !s.HasArcNow(0, 100) || s.LiveDegree(0) != 12 {
		t.Errorf("final state: has(0,35)=%v has(0,100)=%v degree %d", s.HasArcNow(0, 35), s.HasArcNow(0, 100), s.LiveDegree(0))
	}
}
