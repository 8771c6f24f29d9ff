package algo

import (
	"runtime"
	"testing"

	"tufast/internal/core"
	"tufast/internal/graph"
	"tufast/internal/graph/gen"
	"tufast/internal/mem"
	"tufast/internal/sched"
	"tufast/internal/worklist"
)

// edgeRuntime is a TuFast Runtime on a graph of n vertices (n a multiple
// of mem.WordsPerLine) whose one vertex array is the last thing its Space
// holds: vertex n-1's word is the Space's last word, on its last line.
// Vertex 0 has no arcs, vertex 1 a self-loop, and n-1 neighbours 2.
func edgeRuntime(t *testing.T, threads int) (*Runtime, *core.System, mem.Addr) {
	t.Helper()
	const n = 64
	edges := []graph.Edge{{U: 1, V: 1}, {U: n - 1, V: 2}}
	for v := uint32(2); v < n-2; v++ {
		edges = append(edges, graph.Edge{U: v, V: v + 1})
	}
	g := graph.MustBuild(n, edges, graph.BuildOptions{Symmetrize: true, KeepSelfLoops: true})
	if g.Degree(0) != 0 || g.Neighbors(1)[0] != 1 {
		t.Fatal("graph lacks its degree-0 vertex or its self-loop")
	}
	// What the scheduler takes of a Space, measured on a throwaway one.
	probe := mem.NewSpace(1 << 16)
	core.New(probe, n, core.Config{})
	used := (probe.Used() + mem.WordsPerLine - 1) &^ (mem.WordsPerLine - 1)
	sp := mem.NewSpace(used + n)
	s := core.New(sp, n, core.Config{})
	r := NewRuntime(g, sp, s, threads)
	arr := r.NewVertexArray(1)
	if int(arr)+n != sp.Cap() {
		t.Fatalf("array at %d..%d, the Space ends at %d", arr, int(arr)+n, sp.Cap())
	}
	return r, s, arr
}

// warmedSum is what the pooled workers' warms loaded, summed.
func warmedSum(r *Runtime) (sum uint64) {
	for _, w := range r.workers.free {
		sum += w.warmed
	}
	return sum
}

// TestWarmStaysInRange warms a degree-0 vertex, a self-loop and the
// vertex whose word is the Space's last, directly and through both
// drivers: nothing reads out of range, and on an array of ones nobody
// wrote transactionally (every version word 0) each warm loads v's word
// and one per neighbour.
func TestWarmStaysInRange(t *testing.T) {
	r, _, arr := edgeRuntime(t, 1)
	g := r.G
	n := uint32(g.NumVertices())
	var want uint64
	for v := uint32(0); v < n; v++ {
		w := uint64(g.Degree(v)) + 1
		if got := r.warm(arr, v); got != w {
			t.Fatalf("warm(%d) loaded %d, want %d", v, got, w)
		}
		want += w
	}
	body := func(tx sched.Tx, v uint32) error {
		for _, u := range g.Neighbors(v) {
			tx.Read(u, arr+mem.Addr(u))
		}
		return nil
	}
	if err := r.ForEachVertex(arr, body); err != nil {
		t.Fatal(err)
	}
	if got := warmedSum(r); got != want {
		t.Fatalf("ForEachVertex warmed %d, want %d", got, want)
	}
	q := worklist.NewQueue(1)
	for v := uint32(0); v < n; v++ {
		q.Push(v)
	}
	if _, err := r.ForEachQueued(FIFOSource{q}, arr, func(tx sched.Tx, v uint32, _ uint64, _ func(uint32, uint64)) error {
		return body(tx, v)
	}); err != nil {
		t.Fatal(err)
	}
	if got := warmedSum(r); got != 2*want {
		t.Fatalf("ForEachVertex and ForEachQueued warmed %d, want %d", got, 2*want)
	}
}

// TestWarmOncePerTransaction: an attempt that aborts and retries is not
// warmed again, and a driver passed NoWarm warms nothing.
func TestWarmOncePerTransaction(t *testing.T) {
	r, s, arr := edgeRuntime(t, 1)
	g := r.G
	var want uint64
	for v := uint32(0); int(v) < g.NumVertices(); v++ {
		want += uint64(g.Degree(v)) + 1
	}
	fi := sched.NewFaultInjector(sched.FaultSpec{Mode: "H", Op: "read", N: 40})
	s.SetFaultInjector(fi)
	body := func(tx sched.Tx, v uint32) error {
		for _, u := range g.Neighbors(v) {
			tx.Read(u, arr+mem.Addr(u))
		}
		return nil
	}
	if err := r.ForEachVertex(arr, body); err != nil {
		t.Fatal(err)
	}
	if fi.Fired() != 1 || s.Metrics().Snapshot().Totals().Aborts == 0 {
		t.Fatalf("injector fired %d times: the test exercises no retry", fi.Fired())
	}
	if got := warmedSum(r); got != want {
		t.Fatalf("warmed %d with a retried attempt, want %d (once per transaction)", got, want)
	}
	if err := r.ForEachVertex(NoWarm, body); err != nil {
		t.Fatal(err)
	}
	if got := warmedSum(r); got != want {
		t.Fatalf("a NoWarm sweep warmed %d words", got-want)
	}
}

// TestKCoreAllocationsDoNotGrowWithTransactions runs KCore on graphs of
// 1k and 8k vertices: eight times the transactions must not mean more
// allocations in step with them (each attempt used to allocate its
// h-index histogram).
func TestKCoreAllocationsDoNotGrowWithTransactions(t *testing.T) {
	measure := func(n int) (allocs, commits uint64) {
		r, s := tufastRuntime(gen.Uniform(n, 8, 7), 1)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if _, err := KCore(r); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&m1)
		return m1.Mallocs - m0.Mallocs, s.Metrics().Snapshot().Totals().Commits
	}
	a1, c1 := measure(1000)
	a8, c8 := measure(8000)
	t.Logf("1k vertices: %d allocations, %d transactions; 8k: %d, %d", a1, c1, a8, c8)
	if c8 < 4*c1 {
		t.Fatalf("the larger graph ran %d transactions, the smaller %d: the test exercises nothing", c8, c1)
	}
	if a8 > a1+(c8-c1)/64 {
		t.Fatalf("%d more allocations for %d more transactions", a8-a1, c8-c1)
	}
}
