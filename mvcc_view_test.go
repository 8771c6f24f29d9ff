// mvcc_view_test.go — the multi-version oracle: an epoch-pinned view
// must reproduce that epoch's exact topology, bit for bit, while
// concurrent mutation batches keep committing around it. Phase 1
// applies half the stream sequentially and snapshots per-epoch truth
// via replay; phase 2 turns 8 mutator workers loose on the rest while
// the main goroutine cross-examines pinned views against the frozen
// truth, sampling their readers and compacting them whole on 8 chunk
// workers — under -race this is the whole lock-free-read safety
// argument in executable form.
package tufast_test

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"

	"tufast"
	"tufast/internal/dyngraph"
)

// truthAt replays base+ops[:k] into per-vertex sorted adjacency — the
// exact topology a view pinned at the epoch covering k ops must show.
func truthAt(st *dyngraph.Stream, ops []tufast.StreamOp, n int) [][]uint32 {
	ps := &dyngraph.Stream{N: n, Undirected: true, Base: st.Base, Ops: ops}
	adj := make([][]uint32, n)
	for _, e := range ps.ReplayEdges() {
		adj[e.U] = append(adj[e.U], e.V)
		adj[e.V] = append(adj[e.V], e.U)
	}
	for _, a := range adj {
		sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
	}
	return adj
}

// checkView samples random vertices of v against the truth adjacency:
// neighborhoods, degrees, and edge membership both ways. Called from
// the test goroutine only.
func checkView(t *testing.T, v *tufast.GraphView, adj [][]uint32, rng *rand.Rand, samples int) {
	t.Helper()
	n := len(adj)
	var buf []uint32
	for i := 0; i < samples; i++ {
		u := uint32(rng.Intn(n))
		buf = v.Neighbors(u, buf[:0])
		got := append([]uint32(nil), buf...)
		sort.Slice(got, func(a, b int) bool { return got[a] < got[b] })
		want := adj[u]
		if !(len(got) == 0 && len(want) == 0) && !reflect.DeepEqual(got, want) {
			t.Fatalf("epoch %d: Neighbors(%d) = %v, want %v", v.Epoch(), u, got, want)
		}
		if d := v.Degree(u); d != len(want) {
			t.Fatalf("epoch %d: Degree(%d) = %d, want %d", v.Epoch(), u, d, len(want))
		}
		if len(want) > 0 {
			w := want[rng.Intn(len(want))]
			if !v.HasEdge(u, w) {
				t.Fatalf("epoch %d: HasEdge(%d,%d) = false, want true", v.Epoch(), u, w)
			}
		}
		w := uint32(rng.Intn(n))
		has := false
		for _, x := range want {
			if x == w {
				has = true
				break
			}
		}
		if v.HasEdge(u, w) != has {
			t.Fatalf("epoch %d: HasEdge(%d,%d) = %v, want %v", v.Epoch(), u, w, !has, has)
		}
	}
}

// checkCompact freezes v into a CSR and holds every row to the truth
// adjacency of v's epoch, then holds the view's own readers —
// Neighbors, Degree, HasEdge, Arcs — to the compacted rows. Called from
// the test goroutine only, while the mutators run.
func checkCompact(t *testing.T, v *tufast.GraphView, adj [][]uint32) {
	t.Helper()
	g, err := v.Compact()
	if err != nil {
		t.Fatalf("epoch %d: Compact: %v", v.Epoch(), err)
	}
	var buf []uint32
	for u := range adj {
		row := g.Neighbors(uint32(u))
		if !slices.Equal(row, adj[u]) {
			t.Fatalf("epoch %d: compacted row %d = %v, want %v", v.Epoch(), u, row, adj[u])
		}
		if buf = v.Neighbors(uint32(u), buf); !slices.Equal(buf, row) {
			t.Fatalf("epoch %d: Neighbors(%d) = %v, compacted row %v", v.Epoch(), u, buf, row)
		}
		if d := v.Degree(uint32(u)); d != len(row) {
			t.Fatalf("epoch %d: Degree(%d) = %d, compacted row has %d", v.Epoch(), u, d, len(row))
		}
		if len(row) > 0 && !v.HasEdge(uint32(u), row[len(row)/2]) {
			t.Fatalf("epoch %d: HasEdge(%d,%d) = false for a compacted arc", v.Epoch(), u, row[len(row)/2])
		}
	}
	if a := v.Arcs(); a != g.NumEdges() {
		t.Fatalf("epoch %d: Arcs = %d, compacted graph has %d", v.Epoch(), a, g.NumEdges())
	}
	if !g.Undirected() {
		t.Fatalf("epoch %d: compaction lost the undirected flag", v.Epoch())
	}
}

func TestMVCCViewOracle(t *testing.T) {
	n, baseE, nOps, batch := 2000, 15_000, 100_000, 2_000
	if testing.Short() {
		nOps, batch = 24_000, 1_000
	}
	g, st := makeOracleStream(n, baseE, nOps, 7)
	_, d := newDynFixture(t, g, 0, tufast.Options{
		Threads: 8,
		// Every effective op appends a stamped entry that GC is not
		// running to reclaim, so size the overlay for the whole stream
		// with headroom.
		SpaceWords: tufast.DynSpaceWords(g, 2*nOps),
	})

	half := len(st.Ops) / 2 / batch * batch

	// Phase 1: sequential batches. prefixAt maps each observed epoch to
	// the op-prefix it covers; an ineffective batch leaves the epoch in
	// place and overwrites with a longer prefix, which replays to the
	// same graph by definition.
	prefixAt := map[uint64]int{0: 0}
	for i := 0; i < half; i += batch {
		stats, err := d.ApplyStream(st.Ops[i:i+batch], tufast.StreamOptions{Window: 512})
		if err != nil {
			t.Fatalf("phase-1 ApplyStream: %v", err)
		}
		prefixAt[stats.Epoch] = i + batch
	}
	var p1epochs []uint64
	for e := range prefixAt {
		p1epochs = append(p1epochs, e)
	}
	sort.Slice(p1epochs, func(i, j int) bool { return p1epochs[i] < p1epochs[j] })
	// Sample ~8 epochs (always epoch 0 and the newest) and freeze truth.
	step := len(p1epochs)/8 + 1
	var sampled []uint64
	for i := 0; i < len(p1epochs); i += step {
		sampled = append(sampled, p1epochs[i])
	}
	if last := p1epochs[len(p1epochs)-1]; sampled[len(sampled)-1] != last {
		sampled = append(sampled, last)
	}
	truths := map[uint64][][]uint32{}
	for _, e := range sampled {
		truths[e] = truthAt(st, st.Ops[:prefixAt[e]], n)
	}

	// A view pinned now must still show this exact topology after the
	// full phase-2 barrage has committed over it.
	pinned := d.View()
	defer pinned.Close()

	// Phase 2: 8 mutator workers drain the remaining batches while the
	// main goroutine cross-examines the phase-1 epochs through fresh
	// pinned views. Effective batches record their (epoch, op-range) so
	// phase-2 epochs can be replayed afterwards.
	type committedBatch struct {
		epoch  uint64
		lo, hi int
	}
	var (
		mu        sync.Mutex
		committed []committedBatch
	)
	jobs := make(chan [2]int, (len(st.Ops)-half)/batch+1)
	for i := half; i < len(st.Ops); i += batch {
		hi := i + batch
		if hi > len(st.Ops) {
			hi = len(st.Ops)
		}
		jobs <- [2]int{i, hi}
	}
	close(jobs)
	errCh := make(chan error, 8)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				stats, err := d.ApplyStream(st.Ops[j[0]:j[1]], tufast.StreamOptions{Window: 512})
				if err != nil {
					select {
					case errCh <- err:
					default:
					}
					return
				}
				if stats.Inserted+stats.Removed > 0 {
					mu.Lock()
					committed = append(committed, committedBatch{stats.Epoch, j[0], j[1]})
					mu.Unlock()
				}
			}
		}()
	}
	mutDone := make(chan struct{})
	go func() { wg.Wait(); close(mutDone) }()

	rng := rand.New(rand.NewSource(42))
	for sampling := true; sampling; {
		select {
		case <-mutDone:
			sampling = false
		default:
		}
		for _, e := range sampled {
			v := d.ViewAt(e)
			checkView(t, v, truths[e], rng, 40)
			checkCompact(t, v, truths[e])
			v.Close()
		}
	}
	select {
	case err := <-errCh:
		t.Fatalf("phase-2 ApplyStream: %v", err)
	default:
	}

	// The long-pinned view never drifted.
	checkView(t, pinned, truths[sampled[len(sampled)-1]], rng, 200)
	checkCompact(t, pinned, truths[sampled[len(sampled)-1]])

	// Phase-2 epochs: batches took their epochs in commit order, so the
	// topology at a committed epoch is the phase-1 prefix plus every
	// batch that committed at or below it (ineffective batches replay
	// as no-ops either way). Verify the first, a middle, and the last.
	sort.Slice(committed, func(i, j int) bool { return committed[i].epoch < committed[j].epoch })
	if len(committed) == 0 {
		t.Fatal("phase 2 committed no effective batches")
	}
	ops := append([]tufast.StreamOp(nil), st.Ops[:half]...)
	checks := map[uint64][][]uint32{}
	picks := []int{0, len(committed) / 2, len(committed) - 1}
	for i, b := range committed {
		ops = append(ops, st.Ops[b.lo:b.hi]...)
		for _, p := range picks {
			if i == p {
				checks[b.epoch] = truthAt(st, ops, n)
			}
		}
	}
	for e, adj := range checks {
		v := d.ViewAt(e)
		checkView(t, v, adj, rng, 200)
		checkCompact(t, v, adj)
		v.Close()
	}
}
