// hub_oracle_test.go — the target index under everything that runs
// beside it on a serving graph: concurrent ApplyStream batches whose ops
// all land on four hub sources (so the hubs' tables are built, repointed
// and doubled while other transactions wait on the same vertices), chain
// GC rebuilding those chains and tables underneath, and pinned views
// reading the chains the index points into.
package tufast_test

import (
	"context"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"tufast"
	"tufast/internal/dyngraph"
	"tufast/internal/graph"
)

func TestHubMutationOracle(t *testing.T) {
	const (
		hubs    = 4
		writers = 4
		n       = 1200
		batch   = 200
	)
	batches := 60
	if testing.Short() {
		batches = 24
	}
	// A base that gives every hub arcs to delete, and every writer its
	// own targets: writer w owns the edges (hub, v) with v%writers == w,
	// so whatever order the writers' batches commit in, each edge sees
	// its ops in its owner's order and the replay is exact.
	var pairs []tufast.EdgePair
	st := &dyngraph.Stream{N: n, Undirected: true}
	for h := uint32(0); h < hubs; h++ {
		for v := uint32(hubs) + h; v < n; v += 5 {
			pairs = append(pairs, tufast.EdgePair{U: h, V: v})
			st.Base = append(st.Base, graph.Edge{U: h, V: v})
		}
	}
	g, err := tufast.BuildGraph(n, pairs, true)
	if err != nil {
		t.Fatal(err)
	}
	// Twice the stream's budget: GC re-allocates what it compacts, tables
	// included, pass after pass, and is told below to leave the stream's
	// own half alone.
	space := tufast.DynSpaceWords(g, 2*writers*batches*batch)
	_, d := newDynFixture(t, g, 0, tufast.Options{Threads: 4, SpaceWords: space})

	// Each writer's stream, generated up front: within a batch every edge
	// at most once (ops of one window commit in any order), across
	// batches the same edges again and again (versions, in-place flips,
	// re-adds of tombstoned base arcs).
	streams := make([][]tufast.StreamOp, writers)
	for w := range streams {
		rng := rand.New(rand.NewSource(int64(100 + w)))
		mine := (n - hubs + writers - 1 - w) / writers
		for b := 0; b < batches; b++ {
			inBatch := map[[2]uint32]bool{}
			for len(inBatch) < batch {
				e := [2]uint32{uint32(rng.Intn(hubs)), uint32(hubs + w + writers*rng.Intn(mine))}
				if inBatch[e] {
					continue
				}
				inBatch[e] = true
				streams[w] = append(streams[w], tufast.StreamOp{U: e[0], V: e[1], Del: rng.Intn(5) < 2})
			}
		}
	}

	ctx, stop := context.WithCancel(context.Background())
	var bg sync.WaitGroup
	var gcPasses, viewChecks atomic.Int64
	// Chain GC, pass after pass.
	bg.Add(1)
	go func() {
		defer bg.Done()
		for ctx.Err() == nil {
			if _, err := d.GCCtx(ctx, space/2); err != nil && ctx.Err() == nil {
				t.Errorf("GCCtx: %v", err)
				return
			}
			gcPasses.Add(1)
		}
	}()
	// Pinned views: read the hubs' rows, let batches and GC passes go by,
	// read them again.
	for r := 0; r < 2; r++ {
		bg.Add(1)
		go func() {
			defer bg.Done()
			var rows [hubs][]uint32
			for ctx.Err() == nil {
				v := d.View()
				for h := range rows {
					rows[h] = v.Neighbors(uint32(h), rows[h])
				}
				passes := gcPasses.Load()
				for ctx.Err() == nil && gcPasses.Load() < passes+2 {
					for h := range rows {
						if again := v.Neighbors(uint32(h), nil); !slices.Equal(again, rows[h]) {
							t.Errorf("view at epoch %d: hub %d read %d neighbors, then %d", v.Epoch(), h, len(rows[h]), len(again))
						}
						if deg := v.Degree(uint32(h)); deg != len(rows[h]) {
							t.Errorf("view at epoch %d: hub %d has degree %d and %d neighbors", v.Epoch(), h, deg, len(rows[h]))
						}
					}
					viewChecks.Add(1)
				}
				v.Close()
			}
		}()
	}

	var total tufast.StreamStats
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for lo := 0; lo < len(streams[w]); lo += batch {
				ops := slices.Clone(streams[w][lo : lo+batch])
				stats, err := d.ApplyStream(ops, tufast.StreamOptions{Window: 64})
				if err != nil {
					t.Errorf("writer %d: ApplyStream: %v", w, err)
					return
				}
				mu.Lock()
				total.Applied += stats.Applied
				total.Inserted += stats.Inserted
				total.Removed += stats.Removed
				total.NoOps += stats.NoOps
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	stop()
	bg.Wait()
	if t.Failed() {
		return
	}
	t.Logf("%d view re-reads and %d GC passes beside %d batches", viewChecks.Load(), gcPasses.Load(), writers*batches)

	if total.Applied != writers*batches*batch || total.Applied != total.Inserted+total.Removed+total.NoOps {
		t.Errorf("applied %d of %d ops: %+v", total.Applied, writers*batches*batch, total)
	}
	ins, rem, noops := d.MutationStats()
	if int(ins) != total.Inserted || int(rem) != total.Removed || int(noops) != total.NoOps {
		t.Errorf("MutationStats (%d,%d,%d), the batches' StreamStats add up to %+v", ins, rem, noops, total)
	}

	// The truth: every writer's ops in its own order (Time is the op's
	// place in its writer's stream; writers never share an edge).
	for w := range streams {
		for i, op := range streams[w] {
			op.Time = uint64(i)
			st.Ops = append(st.Ops, op)
		}
	}
	adj := make([][]uint32, n)
	for _, e := range st.ReplayEdges() {
		adj[e.U] = append(adj[e.U], e.V)
		adj[e.V] = append(adj[e.V], e.U)
	}
	arcs := 0
	for u := range adj {
		slices.Sort(adj[u])
		arcs += len(adj[u])
		// The row comes from a scan of the chain; HasEdgeNow goes through
		// the index where the vertex has one.
		if got := d.NeighborsNow(uint32(u), nil); !slices.Equal(got, adj[u]) {
			t.Fatalf("NeighborsNow(%d) has %d neighbors, the replay %d, and they differ", u, len(got), len(adj[u]))
		}
		if deg := d.LiveDegree(uint32(u)); deg != len(adj[u]) {
			t.Fatalf("LiveDegree(%d) = %d, the replay has %d", u, deg, len(adj[u]))
		}
	}
	for h := uint32(0); h < hubs; h++ {
		for v := uint32(0); v < n; v++ {
			_, want := slices.BinarySearch(adj[h], v)
			if d.HasEdgeNow(h, v) != want || d.HasEdgeNow(v, h) != want {
				t.Fatalf("HasEdgeNow(%d,%d) = %v / reverse %v, the replay says %v", h, v, d.HasEdgeNow(h, v), d.HasEdgeNow(v, h), want)
			}
		}
	}
	if got := d.LiveArcs(); got != arcs {
		t.Errorf("LiveArcs = %d, the replay has %d", got, arcs)
	}
}
