// driver_test.go — one driver under the library: the System's own sweeps
// and package algorithms lease workers from one pool, and a sweep costs
// what its goroutines cost, not what its vertices do.
package tufast_test

import (
	"testing"

	"tufast"
	"tufast/algorithms"
)

// TestAlgorithmsShareSystemWorkers runs an algorithms call beside the
// System's own sweeps, with ceilings low enough that most transactions
// take vertex locks in L mode. Lock ownership, the deadlock detector's
// hold lists and H mode's stamps are all keyed by thread id, so every live
// worker must have its own: when algorithms minted ids 0..Threads-1 a
// second time over the same scheduler, two goroutines shared each id and
// this was a data race in the detector (and lost updates here).
func TestAlgorithmsShareSystemWorkers(t *testing.T) {
	g := tufast.GeneratePowerLaw(1500, 12000, 2.1, 1).Undirect()
	sys := tufast.NewSystem(g, tufast.Options{Threads: 4, HMaxHint: 8, OMaxHint: 16})
	counter := sys.NewVertexArray(0)

	cc := make(chan error, 1)
	go func() {
		_, err := algorithms.ConnectedComponents(sys)
		cc <- err
	}()
	const rounds = 3
	for r := 0; r < rounds; r++ {
		err := sys.ForEachVertex(func(tx tufast.Tx, v uint32) error {
			for _, u := range g.Neighbors(v) {
				a := counter.Addr(u)
				tx.Write(u, a, tx.Read(u, a)+1)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
	}
	if err := <-cc; err != nil {
		t.Fatalf("ConnectedComponents: %v", err)
	}
	// Undirected: v is a neighbour of exactly Degree(v) vertices.
	for v := 0; v < g.NumVertices(); v++ {
		if got, want := counter.Get(uint32(v)), uint64(rounds*g.Degree(uint32(v))); got != want {
			t.Fatalf("vertex %d counted %d increments, want %d", v, got, want)
		}
	}
	if st := sys.StatsSnapshot(); st.Mode["L"].Transactions == 0 {
		t.Fatalf("no transaction committed in L mode: the test exercises no vertex locks (%+v)", st.Mode)
	}
}

// TestAlgorithmCallsMintNoWorkers: algorithm calls run on the System's
// pool, so however many are made the System has handed out at most Threads
// thread ids (each call used to register Threads more worker contexts,
// which every L-mode entry then scanned, and which were never freed).
func TestAlgorithmCallsMintNoWorkers(t *testing.T) {
	const threads, calls = 2, 50
	g := tufast.GenerateUniform(256, 4, 1)
	// Every call allocates its level array and nothing frees one.
	sys := tufast.NewSystem(g, tufast.Options{Threads: threads, SpaceWords: calls * 512})
	for i := 0; i < calls; i++ {
		if _, err := algorithms.BFS(sys, 0); err != nil {
			t.Fatal(err)
		}
	}
	if w := sys.MetricsSnapshot().Gauges["workers"]; w < 1 || w > threads {
		t.Fatalf("workers gauge = %d after %d calls, want 1..%d", w, calls, threads)
	}
}

// TestForEachVertexAllocsPerGoroutine holds the sweep to allocating per
// goroutine, never per vertex or per chunk: four times the vertices cost
// (almost) the same allocations. The loop this one replaced made a closure
// for every vertex.
func TestForEachVertexAllocsPerGoroutine(t *testing.T) {
	const n = 4096
	sweep := func(n int) float64 {
		g, err := tufast.BuildGraph(n, nil, false)
		if err != nil {
			t.Fatal(err)
		}
		sys := tufast.NewSystem(g, tufast.Options{Threads: 2})
		run := func() {
			if err := sys.ForEachVertex(func(tufast.Tx, uint32) error { return nil }); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm the worker pool
		return testing.AllocsPerRun(8, run)
	}
	small, large := sweep(n), sweep(4*n)
	if large-small >= n/256+8 {
		t.Errorf("ForEachVertex allocates %.0f times on %d vertices and %.0f on %d: it allocates per vertex or per chunk", small, n, large, 4*n)
	} else {
		t.Logf("%.0f allocations on %d vertices, %.0f on %d", small, n, large, 4*n)
	}
}
