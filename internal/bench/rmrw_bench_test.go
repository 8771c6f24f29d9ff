package bench

import (
	"testing"

	"tufast/internal/graph/gen"
	"tufast/internal/obs"
)

// BenchmarkRM and BenchmarkRW are the Fig. 13 and Fig. 14 cells of the
// twitter stand-in as benchmarks, so that the gap between TuFast and the
// two schedulers that beat it on this box is a median of repeated runs
// instead of one tufast-bench cell:
//
//	go test -run '^$' -bench 'Benchmark(RM|RW)$' -benchtime 5x -count 10 ./internal/bench
//
// One iteration is one cell as `tufast-bench -short fig13` runs it: a
// fresh space and scheduler, the injected tax, 8 workers, 6000
// transactions. ns/txn is the cell's wall time over its transactions;
// beside TuFast's the run prints where its attempts went, from its
// metrics snapshot: the share of H attempts that began quiet, and per thousand
// transactions the quiet attempts a locker killed, the aborts by reason
// (all modes) and the microseconds inside Backoff.Wait.
func BenchmarkRM(b *testing.B) { benchCell(b, RM) }
func BenchmarkRW(b *testing.B) { benchCell(b, RW) }

func benchCell(b *testing.B, kind Workload) {
	const threads, txns = 8, 6000
	ds, _ := gen.DatasetByName("twitter-mpi")
	g := ds.Generate(1.0 / 16)
	n := g.NumVertices()
	for _, s := range []labeled{{"TuFast", "tufast"}, {"HSync", "hsync"}, {"STM", "stm"}} {
		b.Run(s.label, func(b *testing.B) {
			var split obs.Snapshot // TuFast's counters, summed over the cells
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				sp, base := newWorkloadSpace(n)
				sc := newScheduler(s.id, sp, n)
				b.StartTimer()
				runWorkload(g, sp, sc, kind, base, txns, threads, 0)
				if s.id == "tufast" {
					b.StopTimer()
					split = split.Merge(sc.Metrics().Snapshot())
					b.StartTimer()
				}
			}
			done := float64(b.N * txns)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/done, "ns/txn")
			if s.id != "tufast" {
				return
			}
			perK := func(v uint64) float64 { return 1000 * float64(v) / done }
			h := split.Modes["H"]
			b.ReportMetric(float64(split.HQuiet.Attempts)/float64(max(h.Commits+h.AbortTotal(), 1)), "quiet/H-attempt")
			b.ReportMetric(perK(split.HQuiet.Killed), "kills/ktxn")
			aborts := split.AbortReasons()
			for _, r := range []string{"conflict", "capacity", "explicit", "locked", "deadlock"} {
				b.ReportMetric(perK(aborts[r]), r+"/ktxn")
			}
			b.ReportMetric(perK(split.Backoff.Ns)/1000, "backoff-µs/ktxn")
		})
	}
}
