package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"tufast"
	"tufast/algorithms"
	"tufast/internal/algo"
)

// suiteCalls names the suite's five calls in order; each runs on a
// fresh System over the same graph.
var suiteCalls = []string{"pagerank", "cc", "spfa", "kcore", "mis"}

// suiteRun is one suite: its wall time, each call's time, the outputs
// (for the oracles) and the Systems (for their counters).
type suiteRun struct {
	wall    time.Duration
	call    map[string]time.Duration
	ranks   []float64
	comp    []uint64
	dist    []uint64
	inSet   []bool
	systems []*tufast.System
}

// runSuite runs the five-algorithm suite once. The harness times each
// call from outside; a traced run also records a span per call.
func runSuite(c *runCtx, g *tufast.Graph, source uint32, round int) suiteRun {
	s := suiteRun{call: make(map[string]time.Duration)}
	root := c.tr.begin("suite", -1, int64(round+1))
	begin := time.Now()
	for _, name := range suiteCalls {
		sp := c.tr.begin("core.system_new", root, int64(round+1))
		sys := tufast.NewSystem(g, tufast.Options{Threads: c.threads})
		c.tr.end(sp)
		s.systems = append(s.systems, sys)
		sp = c.tr.begin("algorithms."+name, root, int64(round+1))
		t0 := time.Now()
		var err error
		switch name {
		case "pagerank":
			s.ranks, err = algorithms.PageRank(sys, 0.85, 1e-4)
		case "cc":
			s.comp, err = algorithms.ConnectedComponents(sys)
		case "spfa":
			s.dist, err = algorithms.ShortestPathsSPFA(sys, source)
		case "kcore":
			_, err = algorithms.KCore(sys)
		case "mis":
			s.inSet, err = algorithms.MaximalIndependentSet(sys)
		}
		s.call[name] = time.Since(t0)
		c.tr.end(sp)
		c.op(err == nil)
	}
	s.wall = time.Since(begin)
	c.tr.end(root)
	return s
}

// runLib is lib_skew and lib_flat: one untimed warm-up suite, then
// rounds identical suites; every reported time is a median over them.
func runLib(c *runCtx) error {
	g := genGraph(c.w, c.seed)
	c.sizes["vertices"], c.sizes["arcs"], c.sizes["max_degree"] = g.NumVertices(), g.NumEdges(), g.MaxDegree()
	source := hubOf(g)
	runSuite(c, g, source, -1)
	runtime.GC() // the first timed suite starts from the heap the others do
	c.setupDone()

	var wall []float64
	call := make(map[string][]float64)
	var last suiteRun
	var st tufast.Stats
	cpu0, begin := cpuSeconds(), time.Now()
	for r := 0; r < c.w.Rounds; r++ {
		last = runSuite(c, g, source, r)
		wall = append(wall, last.wall.Seconds())
		for name, d := range last.call {
			call[name] = append(call[name], d.Seconds()*1e3)
		}
		for _, sys := range last.systems {
			st = addStats(st, sys.StatsSnapshot())
		}
		c.roundDone()
	}
	elapsed := time.Since(begin).Seconds()
	c.set("process.cpu_s", cpuSeconds()-cpu0)

	c.setMedian("suite_p50_s", wall)
	for _, name := range suiteCalls {
		c.setMedian("algorithms."+name+"_ms", call[name])
	}
	setCoreCounts(c, st, elapsed)
	c.set("core.period_final", float64(last.systems[0].StatsSnapshot().CurrentPeriod))

	// Oracles, outside every timed region, on the last suite's outputs.
	csr := g.CSR()
	c.oracle("cc", equalWords(last.comp, algo.SeqWCC(csr)))
	c.oracle("spfa", equalWords(last.dist, algo.SeqSSSP(csr, source)))
	c.oracle("mis", algo.VerifyMIS(csr, last.inSet))
	c.oracle("pagerank", closeRanks(last.ranks, algo.SeqPageRank(csr, 0.85, 1e-9)))

	if c.tr != nil {
		probeGraph(c, g)
		probeRuntime(c, g)
	}
	return nil
}

// addStats sums the counters of two snapshots (the gauge is dropped).
func addStats(a, b tufast.Stats) tufast.Stats {
	a.Commits += b.Commits
	a.Aborts += b.Aborts
	a.Reads += b.Reads
	a.Writes += b.Writes
	a.HTMStarts += b.HTMStarts
	a.HTMCommits += b.HTMCommits
	a.HTMConflicts += b.HTMConflicts
	a.HTMCapacity += b.HTMCapacity
	a.HTMExplicit += b.HTMExplicit
	a.HTMLocked += b.HTMLocked
	a.Deadlocks += b.Deadlocks
	if a.Mode == nil {
		a.Mode = make(map[string]tufast.ModeBucket)
	}
	for k, v := range b.Mode {
		m := a.Mode[k]
		m.Transactions += v.Transactions
		m.Operations += v.Operations
		a.Mode[k] = m
	}
	return a
}

// setCoreCounts reports the htm/core/sched counters of the main phase.
func setCoreCounts(c *runCtx, st tufast.Stats, elapsed float64) {
	c.set("htm.starts", float64(st.HTMStarts))
	c.set("htm.commits", float64(st.HTMCommits))
	c.set("htm.abort_conflict", float64(st.HTMConflicts))
	c.set("htm.abort_capacity", float64(st.HTMCapacity))
	c.set("htm.abort_explicit", float64(st.HTMExplicit))
	c.set("htm.abort_locked", float64(st.HTMLocked))
	c.set("core.commits_h", float64(st.Mode["H"].Transactions))
	c.set("core.commits_o", float64(st.Mode["O"].Transactions))
	c.set("core.commits_oplus", float64(st.Mode["O+"].Transactions))
	c.set("core.commits_o2l", float64(st.Mode["O2L"].Transactions))
	c.set("core.commits_l", float64(st.Mode["L"].Transactions))
	if n := st.Commits + st.Aborts; n > 0 {
		c.set("core.abort_frac", float64(st.Aborts)/float64(n))
	}
	if elapsed > 0 {
		c.set("core.ops_per_s", float64(st.Reads+st.Writes)/elapsed)
	}
	c.set("sched.deadlocks", float64(st.Deadlocks))
}

func equalWords(got, want []uint64) error {
	if len(got) != len(want) {
		return fmt.Errorf("length %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("vertex %d: got %d, want %d", i, got[i], want[i])
		}
	}
	return nil
}

// rankTolerance bounds the mean per-vertex L1 distance between a
// residual-push PageRank stopped at eps 1e-4 and power iteration run to
// 1e-9; ranks average 1.
const rankTolerance = 5e-3

func closeRanks(got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("length %d, want %d", len(got), len(want))
	}
	var l1 float64
	for i := range want {
		l1 += math.Abs(got[i] - want[i])
	}
	if mean := l1 / float64(len(want)); mean > rankTolerance {
		return fmt.Errorf("mean L1 deviation %.3g above %.3g", mean, rankTolerance)
	}
	return nil
}
