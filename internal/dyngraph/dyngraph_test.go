package dyngraph

import (
	"bytes"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"tufast/internal/graph"
	"tufast/internal/mem"
	"tufast/internal/sched"
)

// directTx is a trivial sched.Tx for single-threaded unit tests: every
// read and write goes straight to the space.
type directTx struct{ sp *mem.Space }

func (t directTx) Read(_ uint32, a mem.Addr) uint64 { return t.sp.Load(a) }
func (t directTx) Write(_ uint32, a mem.Addr, v uint64) {
	t.sp.Store(a, v)
}

var _ sched.Tx = directTx{}

func newTestStore(t *testing.T, n int, edges []graph.Edge, undirected bool) (*Store, directTx) {
	t.Helper()
	base, err := graph.Build(n, edges, graph.BuildOptions{Symmetrize: undirected})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	sp := mem.NewSpace(SpaceWords(n, 4096))
	return New(sp, base), directTx{sp}
}

func TestAddRemoveSemantics(t *testing.T) {
	s, tx := newTestStore(t, 8, []graph.Edge{{U: 0, V: 1}, {U: 0, V: 2}}, false)

	if s.Degree(tx, 0) != 2 {
		t.Fatalf("seed degree = %d, want 2", s.Degree(tx, 0))
	}
	// Duplicate of a base arc is a no-op.
	if s.AddArc(tx, 0, 1) {
		t.Error("AddArc(0,1) on base arc should be a no-op")
	}
	// Fresh insert.
	if !s.AddArc(tx, 0, 5) {
		t.Error("AddArc(0,5) should insert")
	}
	if s.AddArc(tx, 0, 5) {
		t.Error("AddArc(0,5) twice should be a no-op")
	}
	if got := s.Degree(tx, 0); got != 3 {
		t.Errorf("degree after insert = %d, want 3", got)
	}
	// Delete a base arc via tombstone.
	if !s.RemoveArc(tx, 0, 1) {
		t.Error("RemoveArc(0,1) should delete base arc")
	}
	if s.RemoveArc(tx, 0, 1) {
		t.Error("RemoveArc(0,1) twice should be a no-op")
	}
	// Delete an overlay insert.
	if !s.RemoveArc(tx, 0, 5) {
		t.Error("RemoveArc(0,5) should delete overlay arc")
	}
	// Re-add a tombstoned base arc.
	if !s.AddArc(tx, 0, 1) {
		t.Error("AddArc(0,1) after delete should re-add")
	}
	// Self-loops are dropped, matching graph.Build.
	if s.AddArc(tx, 3, 3) {
		t.Error("AddArc(3,3) self-loop should be a no-op")
	}
	if !s.HasArc(tx, 0, 1) || !s.HasArc(tx, 0, 2) || s.HasArc(tx, 0, 5) {
		t.Errorf("membership wrong: has(0,1)=%v has(0,2)=%v has(0,5)=%v",
			s.HasArc(tx, 0, 1), s.HasArc(tx, 0, 2), s.HasArc(tx, 0, 5))
	}
	if got := s.Degree(tx, 0); got != 2 {
		t.Errorf("final degree = %d, want 2", got)
	}
	want := []uint32{1, 2}
	if got := s.Neighbors(tx, 0, nil); !reflect.DeepEqual(got, want) {
		t.Errorf("Neighbors(0) = %v, want %v", got, want)
	}
}

func TestNeighborsMerge(t *testing.T) {
	s, tx := newTestStore(t, 16, []graph.Edge{
		{U: 1, V: 3}, {U: 1, V: 6}, {U: 1, V: 9},
	}, false)
	// Interleave overlay adds before, between and after base arcs,
	// tombstone a middle base arc, and re-add another.
	for _, v := range []uint32{0, 4, 12, 15} {
		if !s.AddArc(tx, 1, v) {
			t.Fatalf("AddArc(1,%d) failed", v)
		}
	}
	if !s.RemoveArc(tx, 1, 6) {
		t.Fatal("RemoveArc(1,6) failed")
	}
	if !s.RemoveArc(tx, 1, 9) || !s.AddArc(tx, 1, 9) {
		t.Fatal("remove/re-add of (1,9) failed")
	}
	want := []uint32{0, 3, 4, 9, 12, 15}
	if got := s.Neighbors(tx, 1, nil); !reflect.DeepEqual(got, want) {
		t.Errorf("Neighbors(1) = %v, want %v", got, want)
	}
	if got := s.Degree(tx, 1); got != len(want) {
		t.Errorf("Degree(1) = %d, want %d", got, len(want))
	}
	// Chain spill: push enough inserts through one vertex to cross
	// several blocks.
	for v := uint32(2); v < 16; v += 2 {
		s.AddArc(tx, 7, v)
	}
	if got := s.Degree(tx, 7); got != 7 {
		t.Errorf("Degree(7) = %d, want 7", got)
	}
	want7 := []uint32{2, 4, 6, 8, 10, 12, 14}
	if got := s.Neighbors(tx, 7, nil); !reflect.DeepEqual(got, want7) {
		t.Errorf("Neighbors(7) = %v, want %v", got, want7)
	}
}

// TestCompactOracle drives a random mutation sequence through the
// overlay (sequentially) and checks that Compact matches graph.Build
// over an independently maintained edge set.
func TestCompactOracle(t *testing.T) {
	const n = 64
	var seedEdges []graph.Edge
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		seedEdges = append(seedEdges, graph.Edge{
			U: uint32(rng.Intn(n)), V: uint32(rng.Intn(n)),
		})
	}
	for _, undirected := range []bool{false, true} {
		s, tx := newTestStore(t, n, seedEdges, undirected)

		key := func(u, v uint32) uint64 {
			if undirected && u > v {
				u, v = v, u
			}
			return uint64(u)<<32 | uint64(v)
		}
		live := map[uint64]bool{}
		for u := uint32(0); u < n; u++ {
			for _, v := range s.Base().Neighbors(u) {
				live[key(u, v)] = true
			}
		}
		for i := 0; i < 3000; i++ {
			u, v := uint32(rng.Intn(n)), uint32(rng.Intn(n))
			if u == v {
				continue
			}
			if rng.Intn(3) == 0 {
				s.RemoveArc(tx, u, v)
				if undirected {
					s.RemoveArc(tx, v, u)
				}
				live[key(u, v)] = false
			} else {
				s.AddArc(tx, u, v)
				if undirected {
					s.AddArc(tx, v, u)
				}
				live[key(u, v)] = true
			}
		}
		var edges []graph.Edge
		for k, on := range live {
			if on {
				edges = append(edges, graph.Edge{U: uint32(k >> 32), V: uint32(k)})
			}
		}
		want := graph.MustBuild(n, edges, graph.BuildOptions{Symmetrize: undirected})
		got, err := s.Compact(2)
		if err != nil {
			t.Fatalf("undirected=%v: Compact: %v", undirected, err)
		}
		if got.NumEdges() != want.NumEdges() {
			t.Fatalf("undirected=%v: edges = %d, want %d", undirected, got.NumEdges(), want.NumEdges())
		}
		for u := uint32(0); u < n; u++ {
			g, w := got.Neighbors(u), want.Neighbors(u)
			if len(g) == 0 && len(w) == 0 {
				continue
			}
			if !reflect.DeepEqual(g, w) {
				t.Fatalf("undirected=%v: Neighbors(%d) = %v, want %v", undirected, u, g, w)
			}
			if ld := s.LiveDegree(u); ld != len(w) {
				t.Fatalf("undirected=%v: LiveDegree(%d) = %d, want %d", undirected, u, ld, len(w))
			}
		}
		if got.Undirected() != undirected {
			t.Fatalf("compact lost Undirected flag: got %v want %v", got.Undirected(), undirected)
		}
	}
}

// slowRowAt resolves u's out-neighbors as of maxStamp the obvious way,
// sharing nothing with the scan kernel: walk the chain in order, let
// each target's last version stamped ≤ maxStamp win in a map laid over
// the base row, then sort what is live.
func slowRowAt(s *Store, u uint32, maxStamp uint64) []uint32 {
	live := map[uint32]bool{}
	for _, v := range s.base.Neighbors(u) {
		live[v] = true
	}
	for b := mem.Addr(s.sp.Load(s.headOf(u))); b != 0; b = mem.Addr(s.sp.Load(b)) {
		for i := mem.Addr(0); i < mem.Addr(s.sp.Load(b+1)); i++ {
			if e := s.sp.Load(b + slotBase + i); e&entryValid != 0 && entryStamp(e) <= maxStamp {
				live[entryTarget(e)] = e&entryTomb == 0
			}
		}
	}
	var row []uint32
	for v, on := range live {
		if on {
			row = append(row, v)
		}
	}
	slices.Sort(row)
	return row
}

// referenceCompactAt is the compaction this package shipped before
// direct materialisation, kept only as the differential reference:
// flatten every row into an edge list and replay it through
// graph.Build (count, scatter, per-row sort, de-duplicate, self-loop
// drop, Symmetrize on an undirected base). Its rows come from
// slowRowAt, so it checks the kernel and the stitching at once.
func referenceCompactAt(s *Store, maxStamp uint64) (*graph.CSR, error) {
	var edges []graph.Edge
	for u := uint32(0); int(u) < s.n; u++ {
		for _, v := range slowRowAt(s, u, maxStamp) {
			edges = append(edges, graph.Edge{U: u, V: v})
		}
	}
	return graph.Build(s.n, edges, graph.BuildOptions{Symmetrize: s.base.Undirected()})
}

// csrBytes is g's binary file image: header (n, arcs, undirected),
// offsets, adjacency and checksum — equal images are byte-identical
// offsets and adj.
func csrBytes(t *testing.T, g *graph.CSR) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := g.WriteBinary(&buf); err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	return buf.Bytes()
}

// TestCompactAtDifferential drives seeded random streams over directed
// and undirected bases through a dozen epochs and holds CompactAt, at
// every epoch and thread count, byte-identical to both the replayed
// truth of that epoch and the Build-based reference. The streams cover
// a 2k-degree hub (vertex 0), a band of isolated vertices, self-loop
// attempts, a pool of hot pairs toggled again and again (several
// versions of one target in one chain, in-place flips within an epoch)
// and one base arc scripted tombstone → re-add → tombstone → … across
// consecutive epochs; then every chain is rewritten by CompactChain at
// a mid-stream watermark and the retained epochs are checked again.
func TestCompactAtDifferential(t *testing.T) {
	const (
		n        = 2400
		touched  = 2300 // vertices ≥ touched stay isolated
		hubDeg   = 2000
		epochs   = 12
		perEpoch = 1500
	)
	seeds := int64(3)
	if testing.Short() {
		seeds = 1
	}
	for _, undirected := range []bool{false, true} {
		for seed := int64(1); seed <= seeds; seed++ {
			rng := rand.New(rand.NewSource(seed))
			var baseEdges []graph.Edge
			for v := uint32(1); v <= hubDeg; v++ {
				baseEdges = append(baseEdges, graph.Edge{U: 0, V: v})
			}
			for i := 0; i < 6000; i++ {
				baseEdges = append(baseEdges, graph.Edge{U: uint32(1 + rng.Intn(touched-1)), V: uint32(1 + rng.Intn(touched-1))})
			}
			base := graph.MustBuild(n, baseEdges, graph.BuildOptions{Symmetrize: undirected})
			sp := mem.NewSpace(SpaceWords(n, 8*epochs*perEpoch))
			s, tx := New(sp, base), directTx{sp}

			live := map[uint64]bool{} // the truth, arc by arc
			for u := uint32(0); u < n; u++ {
				for _, v := range base.Neighbors(u) {
					live[uint64(u)<<32|uint64(v)] = true
				}
			}
			mutate := func(u, v uint32, del bool) {
				arcs := [][2]uint32{{u, v}}
				if undirected {
					arcs = append(arcs, [2]uint32{v, u})
				}
				for _, a := range arcs {
					k := uint64(a[0])<<32 | uint64(a[1])
					var changed bool
					if del {
						changed = s.RemoveArc(tx, a[0], a[1])
					} else {
						changed = s.AddArc(tx, a[0], a[1])
					}
					if want := a[0] != a[1] && live[k] == del; changed != want {
						t.Fatalf("mutate(%d,%d,del=%v) changed=%v, want %v", a[0], a[1], del, changed, want)
					}
					if a[0] != a[1] {
						live[k] = !del
					}
				}
			}
			truthBytes := func() []byte {
				var edges []graph.Edge
				for k, on := range live {
					if on {
						edges = append(edges, graph.Edge{U: uint32(k >> 32), V: uint32(k)})
					}
				}
				return csrBytes(t, graph.MustBuild(n, edges, graph.BuildOptions{Symmetrize: undirected}))
			}
			hot := make([][2]uint32, 200)
			for i := range hot {
				hot[i] = [2]uint32{uint32(rng.Intn(touched)), uint32(rng.Intn(touched))}
			}
			truth := [][]byte{truthBytes()} // truth[e] = file image as of epoch e
			for e := uint64(1); e <= epochs; e++ {
				s.SetWriteStamp(e)
				mutate(0, 1, e%2 == 1) // a base arc: tombstone, re-add, tombstone, …
				for i := 0; i < perEpoch; i++ {
					u, v := uint32(rng.Intn(touched)), uint32(rng.Intn(touched))
					switch p := rng.Intn(100); {
					case p < 40:
						u, v = hot[rng.Intn(len(hot))][0], hot[rng.Intn(len(hot))][1]
					case p < 55:
						u = 0 // the hub's own chain
					case p < 58:
						v = u // self-loop attempt
					}
					mutate(u, v, rng.Intn(3) == 0)
				}
				truth = append(truth, truthBytes())
			}

			check := func(stage string, from uint64) {
				for e := from; e <= epochs; e++ {
					ref, err := referenceCompactAt(s, e)
					if err != nil {
						t.Fatalf("%s: reference at %d: %v", stage, e, err)
					}
					if !bytes.Equal(csrBytes(t, ref), truth[e]) {
						t.Fatalf("%s undirected=%v seed=%d: reference at epoch %d differs from the replayed truth", stage, undirected, seed, e)
					}
					for _, threads := range []int{1, 2, 3, 8} {
						got, err := s.CompactAt(e, threads)
						if err != nil {
							t.Fatalf("%s: CompactAt(%d, %d): %v", stage, e, threads, err)
						}
						if !bytes.Equal(csrBytes(t, got), truth[e]) {
							t.Fatalf("%s undirected=%v seed=%d: CompactAt(%d) on %d threads is not byte-identical to the reference", stage, undirected, seed, e, threads)
						}
					}
				}
				got, err := s.Compact(2)
				if err != nil || !bytes.Equal(csrBytes(t, got), truth[epochs]) {
					t.Fatalf("%s undirected=%v seed=%d: Compact differs from the final truth (err %v)", stage, undirected, seed, err)
				}
			}
			check("full history", 0)

			// The pinned readers agree with the compacted rows.
			const at = epochs / 2
			g, err := s.CompactAt(at, 2)
			if err != nil {
				t.Fatal(err)
			}
			var buf []uint32
			for u := uint32(0); u < n; u++ {
				row := g.Neighbors(u)
				if buf = s.NeighborsAt(u, at, buf); !slices.Equal(buf, row) {
					t.Fatalf("NeighborsAt(%d) = %v, compacted row %v", u, buf, row)
				}
				if d := s.DegreeAt(u, at); d != len(row) {
					t.Fatalf("DegreeAt(%d) = %d, compacted row has %d", u, d, len(row))
				}
				for _, v := range row {
					if !s.HasArcAt(u, v, at) {
						t.Fatalf("HasArcAt(%d,%d) = false for a compacted arc", u, v)
					}
				}
				if v := uint32(rng.Intn(n)); s.HasArcAt(u, v, at) != slices.Contains(row, v) {
					t.Fatalf("HasArcAt(%d,%d) disagrees with the compacted row", u, v)
				}
			}
			for _, threads := range []int{1, 3} {
				if a := s.ArcsAt(at, threads); a != g.NumEdges() {
					t.Fatalf("ArcsAt on %d threads = %d, compacted graph has %d", threads, a, g.NumEdges())
				}
			}
			if d := g.Degree(n - 1); d != 0 {
				t.Fatalf("isolated vertex compacted to degree %d", d)
			}

			// GC at a mid-stream watermark: every epoch ≥ keep still
			// compacts to its truth out of the rewritten chains.
			rewritten := 0
			for u := uint32(0); u < n; u++ {
				if s.CompactChain(tx, u, at) {
					rewritten++
				}
			}
			if rewritten == 0 {
				t.Fatal("CompactChain rewrote nothing; the stream should leave superseded versions")
			}
			check("after chain GC", at)
		}
	}
}

// TestCompactDropsBaseSelfLoops: a loaded base may carry self-loops
// (graph.Build drops them only on request); compaction must leave them
// out as the Build-based path did, while the readers keep showing the
// base as it is.
func TestCompactDropsBaseSelfLoops(t *testing.T) {
	base := graph.MustBuild(5, []graph.Edge{{U: 1, V: 1}, {U: 1, V: 3}, {U: 2, V: 2}, {U: 4, V: 0}, {U: 4, V: 4}},
		graph.BuildOptions{KeepSelfLoops: true})
	sp := mem.NewSpace(SpaceWords(5, 64))
	s, tx := New(sp, base), directTx{sp}
	s.AddArc(tx, 1, 0)
	s.RemoveArc(tx, 4, 0)
	got, err := s.Compact(2)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := referenceCompactAt(s, StampLatest)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(csrBytes(t, got), csrBytes(t, ref)) {
		t.Fatalf("rows %v %v %v differ from the reference", got.Neighbors(1), got.Neighbors(2), got.Neighbors(4))
	}
	if want := []uint32{0, 3}; !slices.Equal(got.Neighbors(1), want) {
		t.Errorf("compacted row of 1 = %v, want %v", got.Neighbors(1), want)
	}
	if want := []uint32{0, 1, 3}; !slices.Equal(s.NeighborsNow(1, nil), want) {
		t.Errorf("NeighborsNow(1) = %v, want %v", s.NeighborsNow(1, nil), want)
	}
	if a := s.ArcsAt(StampLatest, 2); a != got.NumEdges() {
		t.Errorf("ArcsAt = %d, compacted graph has %d arcs", a, got.NumEdges())
	}
}

// TestCompactMoreThreadsThanVertices: n < threads must neither hang
// nor drop a row.
func TestCompactMoreThreadsThanVertices(t *testing.T) {
	s, tx := newTestStore(t, 3, []graph.Edge{{U: 0, V: 1}}, true)
	s.AddArc(tx, 1, 2)
	s.AddArc(tx, 2, 1)
	got, err := s.Compact(8)
	if err != nil {
		t.Fatal(err)
	}
	want := graph.MustBuild(3, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}}, graph.BuildOptions{Symmetrize: true})
	if !bytes.Equal(csrBytes(t, got), csrBytes(t, want)) {
		t.Fatalf("rows %v %v %v", got.Neighbors(0), got.Neighbors(1), got.Neighbors(2))
	}
	if a := s.ArcsAt(StampLatest, 8); a != 4 {
		t.Fatalf("ArcsAt = %d, want 4", a)
	}
}

func TestQuiescentHelpers(t *testing.T) {
	s, tx := newTestStore(t, 8, []graph.Edge{{U: 0, V: 1}, {U: 2, V: 3}}, false)
	s.AddArc(tx, 0, 4)
	s.RemoveArc(tx, 2, 3)
	if !s.HasArcNow(0, 4) || s.HasArcNow(2, 3) || !s.HasArcNow(0, 1) {
		t.Error("HasArcNow wrong")
	}
	if got := s.NeighborsNow(0, nil); !reflect.DeepEqual(got, []uint32{1, 4}) {
		t.Errorf("NeighborsNow(0) = %v", got)
	}
	if got := s.LiveArcs(); got != 2 {
		t.Errorf("LiveArcs = %d, want 2", got)
	}
	if h := s.Hint(0, 2); h <= 0 {
		t.Errorf("Hint = %d, want positive", h)
	}
}

func TestStreamRoundTrip(t *testing.T) {
	st := &Stream{
		N:          10,
		Undirected: true,
		Base:       []graph.Edge{{U: 0, V: 1}, {U: 2, V: 3}},
		Ops: []Op{
			{Time: 1, U: 4, V: 5},
			{Time: 2, U: 0, V: 1, Del: true},
			{Time: 3, U: 0, V: 1},
		},
	}
	var buf bytes.Buffer
	if err := WriteStream(&buf, st); err != nil {
		t.Fatalf("WriteStream: %v", err)
	}
	got, err := ReadStream(&buf)
	if err != nil {
		t.Fatalf("ReadStream: %v", err)
	}
	if !reflect.DeepEqual(got, st) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, st)
	}
}

func TestReplayEdges(t *testing.T) {
	st := &Stream{
		N:          6,
		Undirected: true,
		Base:       []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}},
		Ops: []Op{
			{Time: 1, U: 3, V: 4},            // insert
			{Time: 2, U: 1, V: 0, Del: true}, // delete base (mirrored key)
			{Time: 3, U: 3, V: 4, Del: true}, // delete the insert
			{Time: 4, U: 3, V: 4},            // re-insert
		},
	}
	g := graph.MustBuild(st.N, st.ReplayEdges(), graph.BuildOptions{Symmetrize: true})
	want := graph.MustBuild(st.N, []graph.Edge{{U: 1, V: 2}, {U: 3, V: 4}},
		graph.BuildOptions{Symmetrize: true})
	if g.NumEdges() != want.NumEdges() {
		t.Fatalf("edges = %d, want %d", g.NumEdges(), want.NumEdges())
	}
	for u := uint32(0); u < uint32(st.N); u++ {
		if !reflect.DeepEqual(g.Neighbors(u), want.Neighbors(u)) &&
			!(len(g.Neighbors(u)) == 0 && len(want.Neighbors(u)) == 0) {
			t.Fatalf("Neighbors(%d) = %v, want %v", u, g.Neighbors(u), want.Neighbors(u))
		}
	}
}

func TestSynthesizeDeterministicAndConsistent(t *testing.T) {
	var edges []graph.Edge
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 400; i++ {
		u, v := uint32(rng.Intn(50)), uint32(rng.Intn(50))
		edges = append(edges, graph.Edge{U: u, V: v})
	}
	g := graph.MustBuild(50, edges, graph.BuildOptions{Symmetrize: true})

	a := Synthesize(g, 0.2, 0.1, 42)
	b := Synthesize(g, 0.2, 0.1, 42)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("Synthesize not deterministic for equal seeds")
	}
	c := Synthesize(g, 0.2, 0.1, 43)
	if reflect.DeepEqual(a.Ops, c.Ops) {
		t.Error("Synthesize identical across different seeds (suspicious)")
	}
	if len(a.Ops) == 0 {
		t.Fatal("Synthesize produced no ops")
	}
	// Replaying the synthesized stream must reproduce the source graph:
	// held-out edges come back as inserts, sampled deletes remove base
	// edges — so the final set is source minus deletes.
	replay := graph.MustBuild(a.N, a.ReplayEdges(), graph.BuildOptions{Symmetrize: true})
	// Each op touches a distinct pair, so: final = (base - dels) + adds.
	nDel := 0
	for _, op := range a.Ops {
		if op.Del {
			nDel++
		}
	}
	// NumEdges counts stored arcs; an undirected delete removes two.
	wantEdges := g.NumEdges() - 2*nDel
	if replay.NumEdges() != wantEdges {
		t.Errorf("replayed edges = %d, want %d", replay.NumEdges(), wantEdges)
	}
}
