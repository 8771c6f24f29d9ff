package bench

import (
	"fmt"
	"sync/atomic"
	"time"

	"tufast/internal/algo"
	"tufast/internal/core"
	"tufast/internal/graph/gen"
	"tufast/internal/mem"
)

// Fig16 reproduces the parameter-sensitivity study (§VI-D): throughput
// under a sweep of static O-mode periods and of H-mode retry budgets, on
// the twitter stand-in. The paper finds TuFast insensitive under a static
// workload — throughput varies by small factors across the sweep.
func Fig16(o Options) []Table {
	o = o.normalize()
	ds, _ := gen.DatasetByName("twitter-mpi")
	g := ds.Generate(o.Scale / 2)
	n := g.NumVertices()
	txns := 30_000
	if o.Short {
		txns = 5_000
	}

	periodTab := &Table{
		ID:     "fig16",
		Title:  "Throughput (txn/s) vs static period (adaptation off)",
		Header: []string{"period", "RM", "RW"},
		Notes:  []string{"paper shape: flat-ish curve — insensitive under a static workload"},
	}
	for _, period := range []int{125, 250, 500, 1000, 2000, 4096} {
		row := []any{period}
		for _, kind := range []Workload{RM, RW} {
			sp, base := newWorkloadSpace(n)
			tf := newTuFast(sp, n, core.Config{AdaptivePeriod: false, PeriodInit: period})
			row = append(row, runWorkload(g, sp, tf, kind, base, txns, o.Threads))
		}
		periodTab.AddRow(row...)
	}

	retryTab := &Table{
		ID:     "fig16",
		Title:  "Throughput (txn/s) vs H-mode retry budget",
		Header: []string{"retries", "RM", "RW"},
		Notes:  []string{"paper: worth retrying a few times (cache warm after first attempt) before falling to O"},
	}
	for _, retries := range []int{1, 2, 4, 8, 16} {
		row := []any{retries}
		for _, kind := range []Workload{RM, RW} {
			sp, base := newWorkloadSpace(n)
			tf := newTuFast(sp, n, core.Config{HRetries: retries})
			row = append(row, runWorkload(g, sp, tf, kind, base, txns, o.Threads))
		}
		retryTab.AddRow(row...)
	}
	return []Table{*periodTab, *retryTab}
}

// Fig17 reproduces the adaptive-period study: PageRank on the uk-2007-05
// stand-in, reporting per-window transaction throughput and the adaptive
// period trace, against a static-period run. As PageRank converges the
// active set shifts toward dense high-degree regions, so a static period
// is wrong for part of the run.
func Fig17(o Options) []Table {
	o = o.normalize()
	ds, _ := gen.DatasetByName("uk-2007-05")
	g := ds.Generate(o.Scale / 2)

	type windowSample struct {
		ms     int64
		txns   uint64
		period int
	}
	run := func(adaptive bool) ([]windowSample, float64) {
		sp := mem.NewSpace(algo.SpaceWordsFor(g.NumVertices()))
		cfg := core.Config{AdaptivePeriod: adaptive, PeriodInit: 1000}
		tf := newTuFast(sp, g.NumVertices(), cfg)
		r := algo.NewRuntime(g, sp, tf, o.Threads)

		var samples []windowSample
		stop := make(chan struct{})
		samplerDone := make(chan struct{})
		start := time.Now()
		var stopped atomic.Bool
		go func() {
			defer close(samplerDone)
			tick := time.NewTicker(20 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					if stopped.Load() {
						return
					}
					samples = append(samples, windowSample{
						ms:     time.Since(start).Milliseconds(),
						txns:   tf.Metrics().Snapshot().Totals().Commits,
						period: tf.CurrentPeriod(),
					})
				}
			}
		}()
		elapsed := timeIt(func() { _, _ = algo.PageRank(r, prDamping, prEps) })
		stopped.Store(true)
		close(stop)
		<-samplerDone
		samples = append(samples, windowSample{
			ms:     time.Since(start).Milliseconds(),
			txns:   tf.Metrics().Snapshot().Totals().Commits,
			period: tf.CurrentPeriod(),
		})
		return samples, elapsed
	}

	adaptiveSamples, adaptiveMs := run(true)
	staticSamples, staticMs := run(false)

	t := &Table{
		ID:     "fig17",
		Title:  "PageRank progress: adaptive vs static period (uk stand-in)",
		Header: []string{"config", "window_ms", "cum_txns", "period"},
		Notes: []string{
			fmt.Sprintf("total runtime: adaptive %.1f ms, static %.1f ms (paper: adaptive increases throughput significantly)", adaptiveMs, staticMs),
		},
	}
	for _, s := range adaptiveSamples {
		t.AddRow("adaptive", s.ms, s.txns, s.period)
	}
	for _, s := range staticSamples {
		t.AddRow("static", s.ms, s.txns, s.period)
	}
	return []Table{*t}
}

// Ablation quantifies the design choices DESIGN.md §6 calls out, on the
// RW workload over the twitter stand-in:
//
//   - early abort off: O-mode segments stop revalidating mid-flight;
//   - chopping effectively off: a huge static period sends every O
//     transaction through one giant segment (capacity aborts at will);
//   - no-H: size routing forces every transaction through O/L
//     (HMaxHint = 0 would misroute; instead retries=0 with tiny O entry
//     measures the H fast path's value indirectly via HRetries=0 plus
//     routing hints are kept intact).
func Ablation(o Options) []Table {
	o = o.normalize()
	ds, _ := gen.DatasetByName("twitter-mpi")
	g := ds.Generate(o.Scale / 2)
	n := g.NumVertices()
	txns := 30_000
	if o.Short {
		txns = 5_000
	}
	t := &Table{
		ID:     "ablation",
		Title:  "Design ablations, workload RW (txn/s)",
		Header: []string{"variant", "RM", "RW"},
		Notes:  []string{"each row disables one TuFast mechanism; full > ablated validates the design choice"},
	}
	variants := []struct {
		name string
		cfg  core.Config
	}{
		{"full", core.Config{}},
		{"no-early-abort", core.Config{DisableEarlyAbort: true}},
		{"no-chopping", core.Config{AdaptivePeriod: false, PeriodInit: 1 << 20, PeriodFloor: 1 << 19}},
		{"no-h-retries", core.Config{HRetries: 1}},
		{"static-period", core.Config{AdaptivePeriod: false, PeriodInit: 1000}},
	}
	for _, v := range variants {
		row := []any{v.name}
		for _, kind := range []Workload{RM, RW} {
			sp, base := newWorkloadSpace(n)
			tf := newTuFast(sp, n, v.cfg)
			row = append(row, runWorkload(g, sp, tf, kind, base, txns, o.Threads))
		}
		t.AddRow(row...)
	}
	return []Table{*t}
}
