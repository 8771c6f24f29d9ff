package algo

import (
	"math"
	"testing"

	"tufast/internal/core"
	"tufast/internal/deadlock"
	"tufast/internal/graph"
	"tufast/internal/graph/gen"
	"tufast/internal/mem"
	"tufast/internal/sched"
	"tufast/internal/vlock"
)

// schedFactories builds every scheduler over a fresh space, so the whole
// application suite is exercised against the full §VI-B comparison set.
func schedFactories(n int) map[string]func(sp *mem.Space) sched.Scheduler {
	return map[string]func(sp *mem.Space) sched.Scheduler{
		"tufast": func(sp *mem.Space) sched.Scheduler {
			return core.New(sp, n, core.Config{})
		},
		"tufast-static": func(sp *mem.Space) sched.Scheduler {
			return core.New(sp, n, core.Config{StaticPeriod: true, PeriodInit: 500})
		},
		"2pl-detect": func(sp *mem.Space) sched.Scheduler {
			det := deadlock.NewDetector(64)
			return sched.NewTPL(sp, vlock.NewTable(n), det)
		},
		"2pl-exclusive": func(sp *mem.Space) sched.Scheduler {
			s := sched.NewTPL(sp, vlock.NewTable(n), deadlock.NewDetector(64))
			s.SetExclusiveOnly(true)
			return s
		},
		"occ": func(sp *mem.Space) sched.Scheduler {
			return sched.NewOCC(sp, vlock.NewTable(n))
		},
		"to": func(sp *mem.Space) sched.Scheduler {
			return sched.NewTO(sp, vlock.NewTable(n), n)
		},
		"stm": func(sp *mem.Space) sched.Scheduler {
			return sched.NewSTM(sp)
		},
		"hsync": func(sp *mem.Space) sched.Scheduler {
			return sched.NewHSync(sp, 8)
		},
		"hto": func(sp *mem.Space) sched.Scheduler {
			return sched.NewHTO(sp, vlock.NewTable(n), n, 500)
		},
	}
}

func testGraph(t *testing.T) *graph.CSR {
	t.Helper()
	// Symmetrized for the undirected algorithms; directed ones work too.
	return undirect(gen.PowerLaw(3_000, 24_000, 2.1, 99))
}

func newRuntime(g *graph.CSR, mk func(sp *mem.Space) sched.Scheduler) *Runtime {
	sp := mem.NewSpace(SpaceWordsFor(g.NumVertices()))
	return NewRuntime(g, sp, mk(sp), 8)
}

func TestAllSchedulersAllAlgorithms(t *testing.T) {
	g := testGraph(t)
	wantBFS := SeqBFS(g, 0)
	wantWCC := SeqWCC(g)
	wantTri := SeqTriangles(g)
	wantSSSP := SeqSSSP(g, 0)
	wantPR := SeqPageRank(g, 0.85, 1e-7)

	for name, mk := range schedFactories(g.NumVertices()) {
		t.Run(name, func(t *testing.T) {
			t.Run("bfs", func(t *testing.T) {
				r := newRuntime(g, mk)
				res, err := BFS(r, 0)
				if err != nil {
					t.Fatal(err)
				}
				for v := range wantBFS {
					if res.Level[v] != wantBFS[v] {
						t.Fatalf("level[%d]=%d want %d", v, res.Level[v], wantBFS[v])
					}
				}
			})
			t.Run("wcc", func(t *testing.T) {
				r := newRuntime(g, mk)
				res, err := WCC(r)
				if err != nil {
					t.Fatal(err)
				}
				for v := range wantWCC {
					if res.Component[v] != wantWCC[v] {
						t.Fatalf("comp[%d]=%d want %d", v, res.Component[v], wantWCC[v])
					}
				}
			})
			t.Run("triangles", func(t *testing.T) {
				r := newRuntime(g, mk)
				res, err := Triangles(r)
				if err != nil {
					t.Fatal(err)
				}
				if res.Triangles != wantTri {
					t.Fatalf("triangles=%d want %d", res.Triangles, wantTri)
				}
			})
			t.Run("bellman-ford", func(t *testing.T) {
				r := newRuntime(g, mk)
				res, err := BellmanFord(r, 0)
				if err != nil {
					t.Fatal(err)
				}
				for v := range wantSSSP {
					if res.Dist[v] != wantSSSP[v] {
						t.Fatalf("dist[%d]=%d want %d", v, res.Dist[v], wantSSSP[v])
					}
				}
			})
			t.Run("spfa", func(t *testing.T) {
				r := newRuntime(g, mk)
				res, err := SPFA(r, 0)
				if err != nil {
					t.Fatal(err)
				}
				for v := range wantSSSP {
					if res.Dist[v] != wantSSSP[v] {
						t.Fatalf("dist[%d]=%d want %d", v, res.Dist[v], wantSSSP[v])
					}
				}
			})
			t.Run("pagerank", func(t *testing.T) {
				r := newRuntime(g, mk)
				res, err := PageRank(r, 0.85, 1e-7)
				if err != nil {
					t.Fatal(err)
				}
				var l1 float64
				for v := range wantPR {
					l1 += math.Abs(res.Rank[v] - wantPR[v])
				}
				if l1/float64(g.NumVertices()) > 1e-4 {
					t.Fatalf("pagerank mean L1 deviation %g too large", l1/float64(g.NumVertices()))
				}
			})
			t.Run("mis", func(t *testing.T) {
				r := newRuntime(g, mk)
				res, err := MIS(r)
				if err != nil {
					t.Fatal(err)
				}
				if err := VerifyMIS(g, res.InSet); err != nil {
					t.Fatal(err)
				}
			})
			t.Run("matching", func(t *testing.T) {
				r := newRuntime(g, mk)
				res, err := MaximalMatching(r)
				if err != nil {
					t.Fatal(err)
				}
				if err := VerifyMatching(g, res.Match); err != nil {
					t.Fatal(err)
				}
			})
		})
	}
}
