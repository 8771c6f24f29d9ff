package algo

import (
	"fmt"
	"testing"

	"tufast/internal/graph"
	"tufast/internal/graph/gen"
	"tufast/internal/mem"
	"tufast/internal/worklist"
)

// undirect symmetrizes g, as the undirected workloads run it.
func undirect(g *graph.CSR) *graph.CSR {
	edges := make([]graph.Edge, 0, g.NumEdges())
	for v := uint32(0); int(v) < g.NumVertices(); v++ {
		for _, u := range g.Neighbors(v) {
			edges = append(edges, graph.Edge{U: v, V: u})
		}
	}
	return graph.MustBuild(g.NumVertices(), edges, graph.BuildOptions{Symmetrize: true})
}

// path is the undirected path 0-1-...-(n-1), where a label or a distance
// travels furthest.
func path(n int) *graph.CSR {
	edges := make([]graph.Edge, 0, n-1)
	for v := uint32(0); int(v) < n-1; v++ {
		edges = append(edges, graph.Edge{U: v, V: v + 1})
	}
	return graph.MustBuild(n, edges, graph.BuildOptions{Symmetrize: true})
}

// hubOf returns a vertex of maximum degree.
func hubOf(g *graph.CSR) uint32 {
	hub := uint32(0)
	for v := uint32(0); int(v) < g.NumVertices(); v++ {
		if g.Degree(v) > g.Degree(hub) {
			hub = v
		}
	}
	return hub
}

// TestQueuedKernelsMatchSequential: WCC without self-wakeups and SPFA
// with lazy deletion equal the sequential references on a skewed graph,
// a flat one and a long path, at 1, 2 and 4 threads.
func TestQueuedKernelsMatchSequential(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.CSR
	}{
		{"skew", undirect(gen.RMAT(10, 8, 1))},
		{"flat", undirect(gen.Uniform(2000, 8, 1))},
		{"path", path(1500)},
	}
	for _, tc := range graphs {
		wantWCC := SeqWCC(tc.g)
		source := hubOf(tc.g)
		wantSSSP := SeqSSSP(tc.g, source)
		for _, threads := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/t%d", tc.name, threads), func(t *testing.T) {
				r, _ := tufastRuntime(tc.g, threads)
				cc, err := WCC(r)
				if err != nil {
					t.Fatal(err)
				}
				for v := range wantWCC {
					if cc.Component[v] != wantWCC[v] {
						t.Fatalf("wcc: comp[%d] = %d, want %d", v, cc.Component[v], wantWCC[v])
					}
				}
				r, _ = tufastRuntime(tc.g, threads)
				sp, err := SPFA(r, source)
				if err != nil {
					t.Fatal(err)
				}
				for v := range wantSSSP {
					if sp.Dist[v] != wantSSSP[v] {
						t.Fatalf("spfa from %d: dist[%d] = %d, want %d", source, v, sp.Dist[v], wantSSSP[v])
					}
				}
			})
		}
	}
}

// TestSPFAStaleEntryOneRead: an entry (v, p) whose priority exceeds v's
// distance, polled by the real driver, commits one transaction of one
// read. An entry at v's distance reads v's neighbors too (they are at 0
// here, so neither entry writes or emits anything).
func TestSPFAStaleEntryOneRead(t *testing.T) {
	const v, dv = 5, 40
	for _, tc := range []struct {
		name  string
		prio  uint64
		reads uint64
	}{
		{"stale", dv + 1, 1},
		{"current", dv, 3}, // v and its two neighbors on the path
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, s := tufastRuntime(path(10), 1)
			dist := r.NewVertexArray(None)
			r.Sp.Store(dist+mem.Addr(v), dv)
			r.Sp.Store(dist+mem.Addr(v-1), 0)
			r.Sp.Store(dist+mem.Addr(v+1), 0)
			pq := worklist.NewPQ(1)
			pq.Push(v, tc.prio)
			committed, err := r.ForEachQueued(PQSource{pq}, dist, relax(r, dist))
			if err != nil {
				t.Fatal(err)
			}
			st := s.Metrics().Snapshot().Totals()
			if committed != 1 || st.Commits != 1 || st.Writes != 0 || st.Reads != tc.reads {
				t.Fatalf("%d committed, %d commits, %d writes, %d reads; want 1, 1, 0, %d",
					committed, st.Commits, st.Writes, st.Reads, tc.reads)
			}
		})
	}
}
