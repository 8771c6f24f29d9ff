package algorithms_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"tufast"
	"tufast/algorithms"
	"tufast/internal/algo"
	"tufast/internal/dyngraph"
)

// synthStream derives a reproducible mixed stream from a power-law
// graph: addFrac of its edges held out as inserts, delFrac of the rest
// replayed as deletes.
func synthStream(t *testing.T, n, m int, addFrac, delFrac float64, seed uint64) (*tufast.Graph, *dyngraph.Stream) {
	t.Helper()
	full := tufast.GeneratePowerLaw(n, m, 2.1, seed).Undirect()
	st := dyngraph.Synthesize(full.CSR(), addFrac, delFrac, seed)
	base, err := st.BuildBase()
	if err != nil {
		t.Fatalf("BuildBase: %v", err)
	}
	return tufast.WrapCSR(base), st
}

func dynSystem(t *testing.T, g *tufast.Graph, mutations int) (*tufast.System, *tufast.DynGraph) {
	t.Helper()
	s := tufast.NewSystem(g, tufast.Options{
		Threads:    4,
		SpaceWords: tufast.DynSpaceWords(g, mutations) + 8*g.NumVertices(),
		HMaxHint:   64,
		OMaxHint:   512,
	})
	return s, tufast.NewDynGraph(s)
}

// staticLabels computes connected components of g from scratch on a
// fresh system — the oracle for the incremental labels.
func staticLabels(t *testing.T, g *tufast.Graph) []uint64 {
	t.Helper()
	s := tufast.NewSystem(g, tufast.Options{Threads: 4})
	comp, err := algorithms.ConnectedComponents(s)
	if err != nil {
		t.Fatalf("ConnectedComponents: %v", err)
	}
	return comp
}

func TestStreamingCCInsertOnly(t *testing.T) {
	g, st := synthStream(t, 600, 2400, 0.3, 0, 17)
	s, d := dynSystem(t, g, 2*len(st.Ops))
	_ = s
	comp, stats, err := algorithms.StreamingCC(context.Background(), d, st.Ops, 256)
	if err != nil {
		t.Fatalf("StreamingCC: %v", err)
	}
	if stats.Inserted == 0 || stats.Removed != 0 {
		t.Fatalf("unexpected stream stats %+v", stats)
	}
	final, err := d.Compact()
	if err != nil {
		t.Fatalf("Compact: %v", err)
	}
	want := staticLabels(t, final)
	for v := range want {
		if comp[v] != want[v] {
			t.Fatalf("comp[%d] = %d, static says %d", v, comp[v], want[v])
		}
	}
}

func TestStreamingCCWithDeletes(t *testing.T) {
	g, st := synthStream(t, 500, 2000, 0.25, 0.3, 23)
	s, d := dynSystem(t, g, 2*len(st.Ops))
	_ = s
	comp, stats, err := algorithms.StreamingCC(context.Background(), d, st.Ops, 256)
	if err != nil {
		t.Fatalf("StreamingCC: %v", err)
	}
	if stats.Removed == 0 {
		t.Fatalf("stream had no deletes: %+v", stats)
	}
	final, err := d.Compact()
	if err != nil {
		t.Fatalf("Compact: %v", err)
	}
	want := staticLabels(t, final)
	for v := range want {
		if comp[v] != want[v] {
			t.Fatalf("comp[%d] = %d, static says %d (deletes must trigger recompute)", v, comp[v], want[v])
		}
	}
}

func TestIncrementalCCRequiresUndirected(t *testing.T) {
	g := tufast.GeneratePowerLaw(100, 300, 2.1, 3) // directed
	s := tufast.NewSystem(g, tufast.Options{Threads: 2, SpaceWords: tufast.DynSpaceWords(g, 64)})
	d := tufast.NewDynGraph(s)
	if _, err := algorithms.NewIncrementalCC(d); err != algorithms.ErrNeedUndirected {
		t.Fatalf("err = %v, want ErrNeedUndirected", err)
	}
}

// TestIncrementalCCRepair drives the Committed/Repair contract by hand,
// one batch and one repair at a time, on two 4-cycles joined by the
// bridge 3-4 beside the triangle 8-9-10. After every repair the labels
// must match ConnectedComponents on the compacted graph.
func TestIncrementalCCRepair(t *testing.T) {
	edges := []tufast.EdgePair{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 0},
		{U: 4, V: 5}, {U: 5, V: 6}, {U: 6, V: 7}, {U: 7, V: 4},
		{U: 3, V: 4},
		{U: 8, V: 9}, {U: 9, V: 10}, {U: 10, V: 8},
	}
	g, err := tufast.BuildGraph(11, edges, true)
	if err != nil {
		t.Fatal(err)
	}
	_, d := dynSystem(t, g, 64)
	cc, err := algorithms.NewIncrementalCC(d)
	if err != nil {
		t.Fatal(err)
	}
	apply := func(ops ...tufast.StreamOp) {
		t.Helper()
		stats, err := d.ApplyOwned(ops)
		if err != nil {
			t.Fatalf("ApplyOwned: %v", err)
		}
		cc.Committed(ops, stats)
	}
	repair := func(ctx context.Context) (algorithms.Repaired, error) {
		view := d.View()
		defer view.Close()
		return cc.Repair(ctx, view)
	}
	check := func(step string, want algorithms.Repaired) {
		t.Helper()
		got, err := repair(context.Background())
		if err != nil {
			t.Fatalf("%s: Repair: %v", step, err)
		}
		if got != want {
			t.Errorf("%s: Repair did %+v, want %+v", step, got, want)
		}
		final, err := d.Compact()
		if err != nil {
			t.Fatalf("%s: Compact: %v", step, err)
		}
		labels, oracle := cc.Components(), staticLabels(t, final)
		for v := range oracle {
			if labels[v] != oracle[v] {
				t.Fatalf("%s: label[%d] = %d, static says %d", step, v, labels[v], oracle[v])
			}
		}
	}
	bridge := tufast.StreamOp{U: 3, V: 4}
	cut := tufast.StreamOp{U: 3, V: 4, Del: true}

	check("seed", algorithms.Repaired{Recomputed: true})

	apply(cut)
	check("a delete that splits a component", algorithms.Repaired{Deletes: 1})

	apply(bridge)
	check("the bridge re-inserted", algorithms.Repaired{})
	apply(cut)
	apply(bridge)
	check("a delete re-added before the repair", algorithms.Repaired{Deletes: 1})

	apply(tufast.StreamOp{U: 8, V: 9, Del: true})
	check("a delete inside a triangle", algorithms.Repaired{Deletes: 1})

	// A repair that fails must put the deletes it took back: the next
	// one still has to split the component.
	apply(cut)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := repair(ctx); err == nil {
		t.Fatal("Repair under a cancelled context succeeded")
	}
	check("the repair after a cancelled one", algorithms.Repaired{Deletes: 1})
}

// staticRanks computes PageRank of g from scratch on a fresh system.
func staticRanks(t *testing.T, g *tufast.Graph, damping, eps float64) []float64 {
	t.Helper()
	s := tufast.NewSystem(g, tufast.Options{Threads: 4})
	pr, err := algorithms.PageRank(s, damping, eps)
	if err != nil {
		t.Fatalf("PageRank: %v", err)
	}
	return pr
}

func checkRanksClose(t *testing.T, got, want []float64, tol float64) {
	t.Helper()
	worst, at := 0.0, -1
	for v := range want {
		if d := math.Abs(got[v] - want[v]); d > worst {
			worst, at = d, v
		}
	}
	if worst > tol {
		t.Fatalf("rank[%d] = %g, static says %g (|Δ| = %g > %g)", at, got[at], want[at], worst, tol)
	}
}

func TestDeltaPageRankStaticConvergence(t *testing.T) {
	// No mutations at all: delta-PageRank's init + drain must agree
	// with the from-scratch PageRank on the same graph.
	g, _ := synthStream(t, 400, 1600, 0, 0, 31)
	_, d := dynSystem(t, g, 64)
	const damping, eps = 0.85, 1e-7
	ranks, _, err := algorithms.StreamingPageRank(context.Background(), d, nil, damping, eps, 256)
	if err != nil {
		t.Fatalf("StreamingPageRank: %v", err)
	}
	checkRanksClose(t, ranks, staticRanks(t, g, damping, eps), 1e-3)
}

func TestStreamingPageRankMixed(t *testing.T) {
	// Inserts and deletes: the delta fix-up is exact, so the final
	// ranks must match a from-scratch PageRank of the final topology.
	g, st := synthStream(t, 400, 1600, 0.25, 0.2, 41)
	_, d := dynSystem(t, g, 2*len(st.Ops))
	const damping, eps = 0.85, 1e-7
	ranks, stats, err := algorithms.StreamingPageRank(context.Background(), d, st.Ops, damping, eps, 256)
	if err != nil {
		t.Fatalf("StreamingPageRank: %v", err)
	}
	if stats.Inserted == 0 || stats.Removed == 0 {
		t.Fatalf("stream had no effect: %+v", stats)
	}
	final, err := d.Compact()
	if err != nil {
		t.Fatalf("Compact: %v", err)
	}
	checkRanksClose(t, ranks, staticRanks(t, final, damping, eps), 1e-3)
}

// TestRepairExactAtPinnedEpoch is the repair oracle: a standing
// DeltaPageRank and IncrementalCC, repaired against a pinned view while
// later batches apply owned beside the repair, must each equal a
// from-scratch computation of the view's own topology — PageRank within
// the residual bound, labels exactly. The batches flip arcs of a hub
// source. After the pin one arc is inserted and deleted in one batch,
// and another is inserted before the Repair and deleted beside it.
func TestRepairExactAtPinnedEpoch(t *testing.T) {
	// Paths of five vertices, every third path hanging off hub 0: many
	// components for inserts to merge and deletes to split.
	const n, damping, eps = 300, 0.85, 1e-7
	var edges []tufast.EdgePair
	for v := 1; v < n; v++ {
		if v%5 != 0 && v+1 < n {
			edges = append(edges, tufast.EdgePair{U: uint32(v), V: uint32(v + 1)})
		}
		if v%15 == 1 {
			edges = append(edges, tufast.EdgePair{U: 0, V: uint32(v)})
		}
	}
	g, err := tufast.BuildGraph(n, edges, true)
	if err != nil {
		t.Fatal(err)
	}
	tol := 2 * n * eps / (1 - damping) // the summed-residual bound, both sides
	for _, threads := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("threads=%d", threads), func(t *testing.T) {
			d := tufast.NewDynGraph(tufast.NewSystem(g, tufast.Options{
				Threads:    threads,
				SpaceWords: tufast.DynSpaceWords(g, 20_000) + 8*(n+8),
			}))
			pr := algorithms.NewDeltaPageRank(d, damping, eps)
			defer pr.Close()
			cc, err := algorithms.NewIncrementalCC(d)
			if err != nil {
				t.Fatal(err)
			}
			comps := []algorithms.Incremental{pr, cc}
			apply := func(ops []tufast.StreamOp) {
				stats, err := d.ApplyOwned(ops)
				if err != nil {
					t.Errorf("ApplyOwned: %v", err)
					return
				}
				for _, c := range comps {
					c.Committed(ops, stats)
				}
			}
			rng := rand.New(rand.NewSource(int64(threads)))
			// hubOps flips k of the hub's arcs: deletes where the hub has
			// an arc, inserts where it has none.
			hubOps := func(k int) []tufast.StreamOp {
				var ops []tufast.StreamOp
				for range k {
					v := uint32(1 + rng.Intn(n-1))
					ops = append(ops, tufast.StreamOp{U: 0, V: v, Del: d.HasEdgeNow(0, v)})
				}
				return ops
			}
			// randomOps inserts random pairs and deletes live edges.
			randomOps := func(k int) []tufast.StreamOp {
				var ops []tufast.StreamOp
				for range k {
					u := uint32(rng.Intn(n))
					if nbs := d.NeighborsNow(u, nil); len(nbs) > 0 && rng.Intn(2) == 0 {
						ops = append(ops, tufast.StreamOp{U: u, V: nbs[rng.Intn(len(nbs))], Del: true})
					} else {
						ops = append(ops, tufast.StreamOp{U: u, V: uint32(rng.Intn(n))})
					}
				}
				return ops
			}
			check := func(round int, view *tufast.GraphView) {
				t.Helper()
				frozen, err := view.Compact()
				if err != nil {
					t.Fatalf("round %d: Compact: %v", round, err)
				}
				checkRanksClose(t, pr.Ranks(), algo.SeqPageRank(frozen.CSR(), damping, 1e-12), tol)
				want := staticLabels(t, frozen)
				for v, l := range cc.Components() {
					if l != want[v] {
						t.Fatalf("round %d (epoch %d): label[%d] = %d, from-scratch says %d", round, view.Epoch(), v, l, want[v])
					}
				}
			}
			// absent returns a vertex u has no arc to, other than u and skip.
			absent := func(u, skip uint32) uint32 {
				for {
					if v := uint32(rng.Intn(n)); v != u && v != skip && !d.HasEdgeNow(u, v) {
						return v
					}
				}
			}
			for round := 0; round < 4; round++ {
				apply(append(hubOps(12), randomOps(24)...))
				view := d.View()
				// Between the pin and the Repair: hub arcs flip, a fresh arc
				// is inserted and a second is inserted and deleted in one
				// batch. Beside the Repair: the first fresh arc is deleted
				// again and more hub arcs flip.
				u := uint32(1 + rng.Intn(n-1))
				v := absent(u, u)
				w := absent(u, v)
				apply(append(hubOps(8), tufast.StreamOp{U: u, V: v},
					tufast.StreamOp{U: u, V: w}, tufast.StreamOp{U: w, V: u, Del: true}))
				beside := append(hubOps(8), tufast.StreamOp{U: v, V: u, Del: true})
				done := make(chan struct{})
				go func() {
					defer close(done)
					apply(beside)
				}()
				for _, c := range comps {
					if _, err := c.Repair(context.Background(), view); err != nil {
						t.Fatalf("round %d: Repair: %v", round, err)
					}
				}
				<-done
				check(round, view)
				view.Close()
			}
			view := d.View()
			defer view.Close()
			for _, c := range comps {
				if _, err := c.Repair(context.Background(), view); err != nil {
					t.Fatalf("final Repair: %v", err)
				}
			}
			check(4, view)
		})
	}
}
