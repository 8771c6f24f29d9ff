package bench

import (
	"fmt"
	"testing"

	"tufast"
	"tufast/algorithms"
)

// BenchmarkLibSuite runs each call of the benchmark's lib suite
// (benchmark/lib.go: PageRank(0.85, 1e-4), ConnectedComponents,
// ShortestPathsSPFA from the hub, KCore, MaximalIndependentSet) on the
// shapes of lib_skew's graph (R-MAT scale 14, edge factor 8, undirected)
// and lib_flat's (50k vertices of degree 8, undirected), each at 1 and 2
// threads, so a call's t1/t2 and where its attempts went sit side by side:
//
//	go test -run '^$' -bench 'BenchmarkLibSuite$' -benchtime 5x -count 5 ./internal/bench
//
// One iteration is one call on a fresh System, as the suite runs it.
// Beside ns/op (per call) it reports per call, from the System's metrics
// snapshot: commits, the reads those commits made, aborts, deadlock
// victims, the milliseconds inside Backoff.Wait and the commits in each
// mode (H, O, O+, O2L, L). -short runs the same on graphs a sixteenth the
// size.
func BenchmarkLibSuite(b *testing.B) {
	scale, n := 14, 50000
	if testing.Short() {
		scale, n = 10, 50000/16
	}
	shapes := []struct {
		name string
		gen  func() *tufast.Graph
	}{
		{"skew", func() *tufast.Graph { return tufast.GenerateRMAT(scale, 8, 1).Undirect() }},
		{"flat", func() *tufast.Graph { return tufast.GenerateUniform(n, 8, 1).Undirect() }},
	}
	for _, shape := range shapes {
		g := shape.gen()
		hub := uint32(0)
		for v := uint32(0); int(v) < g.NumVertices(); v++ {
			if g.Degree(v) > g.Degree(hub) {
				hub = v
			}
		}
		calls := []struct {
			name string
			run  func(*tufast.System) error
		}{
			{"pagerank", func(s *tufast.System) error { _, err := algorithms.PageRank(s, 0.85, 1e-4); return err }},
			{"cc", func(s *tufast.System) error { _, err := algorithms.ConnectedComponents(s); return err }},
			{"spfa", func(s *tufast.System) error { _, err := algorithms.ShortestPathsSPFA(s, hub); return err }},
			{"kcore", func(s *tufast.System) error { _, err := algorithms.KCore(s); return err }},
			{"mis", func(s *tufast.System) error { _, err := algorithms.MaximalIndependentSet(s); return err }},
		}
		for _, call := range calls {
			for _, threads := range []int{1, 2} {
				b.Run(fmt.Sprintf("%s/%s/t%d", shape.name, call.name, threads), func(b *testing.B) {
					var snap tufast.MetricsSnapshot
					for i := 0; i < b.N; i++ {
						b.StopTimer()
						sys := tufast.NewSystem(g, tufast.Options{Threads: threads})
						b.StartTimer()
						if err := call.run(sys); err != nil {
							b.Fatal(err)
						}
						b.StopTimer()
						snap = snap.Merge(sys.MetricsSnapshot())
						b.StartTimer()
					}
					per := func(v uint64) float64 { return float64(v) / float64(b.N) }
					t := snap.Totals()
					b.ReportMetric(per(t.Commits), "commits/op")
					b.ReportMetric(per(t.Reads), "reads/op")
					b.ReportMetric(per(t.Aborts), "aborts/op")
					b.ReportMetric(per(t.Deadlocks), "deadlocks/op")
					b.ReportMetric(per(snap.Backoff.Ns)/1e6, "backoff-ms/op")
					for _, m := range []string{"H", "O", "O+", "O2L", "L"} {
						b.ReportMetric(per(snap.Modes[m].Commits), m+"/op")
					}
				})
			}
		}
	}
}
