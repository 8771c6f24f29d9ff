package algo

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"tufast/internal/core"
	"tufast/internal/graph"
	"tufast/internal/mem"
	"tufast/internal/sched"
	"tufast/internal/worklist"
)

// tufastRuntime is a Runtime on TuFast's own scheduler, with the System
// exposed for its counters and fault injector.
func tufastRuntime(g *graph.CSR, threads int) (*Runtime, *core.System) {
	sp := mem.NewSpace(SpaceWordsFor(g.NumVertices()))
	s := core.New(sp, g.NumVertices(), core.Config{})
	return NewRuntime(g, sp, s, threads), s
}

// clique is the complete graph on n vertices: every vertex transaction
// touches every other vertex, so concurrent ones conflict.
func clique(n int) *graph.CSR {
	var edges []graph.Edge
	for u := uint32(0); int(u) < n; u++ {
		for v := u + 1; int(v) < n; v++ {
			edges = append(edges, graph.Edge{U: u, V: v})
		}
	}
	return graph.MustBuild(n, edges, graph.BuildOptions{Symmetrize: true})
}

// TestResultsCountCommitsNotAttempts: PageRankResult.Iterations and
// SSSPResult.Relaxed are transactions that committed. They used to be
// counted inside the transaction body, once per attempt, so every abort
// inflated them.
func TestResultsCountCommitsNotAttempts(t *testing.T) {
	t.Run("one injected abort", func(t *testing.T) {
		r, s := tufastRuntime(clique(40), 1)
		fi := sched.NewFaultInjector(sched.FaultSpec{Mode: "H", Op: "write", N: 100})
		s.SetFaultInjector(fi)
		res, err := PageRank(r, 0.85, 1e-6)
		if err != nil {
			t.Fatal(err)
		}
		st := s.Metrics().Snapshot().Totals()
		if fi.Fired() != 1 || st.Aborts == 0 {
			t.Fatalf("injector fired %d times, %d aborts: the test exercises nothing", fi.Fired(), st.Aborts)
		}
		if res.Iterations != st.Commits {
			t.Fatalf("Iterations = %d, the scheduler committed %d transactions (and aborted %d attempts)", res.Iterations, st.Commits, st.Aborts)
		}
	})
	t.Run("contended", func(t *testing.T) {
		g := clique(40)
		var aborts uint64
		for try := 0; try < 10 && aborts == 0; try++ {
			r, s := tufastRuntime(g, 8)
			res, err := PageRank(r, 0.85, 1e-6)
			if err != nil {
				t.Fatal(err)
			}
			st := s.Metrics().Snapshot().Totals()
			if res.Iterations != st.Commits {
				t.Fatalf("PageRank: Iterations = %d, commits = %d, aborts = %d", res.Iterations, st.Commits, st.Aborts)
			}
			aborts += st.Aborts

			r, s = tufastRuntime(g, 8)
			sres, err := BellmanFord(r, 0)
			if err != nil {
				t.Fatal(err)
			}
			st = s.Metrics().Snapshot().Totals()
			if sres.Relaxed != st.Commits {
				t.Fatalf("BellmanFord: Relaxed = %d, commits = %d, aborts = %d", sres.Relaxed, st.Commits, st.Aborts)
			}
			aborts += st.Aborts
		}
		if aborts == 0 {
			t.Skip("eight threads on a 40-clique never aborted here: nothing distinguishes attempts from commits")
		}
	})
}

// chainRuntime is a runtime over a path graph 0-1-...-(n-1) with a queue
// holding vertex 0.
func chainRuntime(n, threads int) (*Runtime, *core.System, FIFOSource) {
	edges := make([]graph.Edge, 0, n-1)
	for v := uint32(0); int(v) < n-1; v++ {
		edges = append(edges, graph.Edge{U: v, V: v + 1})
	}
	r, s := tufastRuntime(graph.MustBuild(n, edges, graph.BuildOptions{Symmetrize: true}), threads)
	q := worklist.NewQueue(threads)
	q.Push(0)
	return r, s, FIFOSource{q}
}

// TestForEachQueuedAbortedAttemptEmitsOnce: a transaction that emits and
// then aborts runs again and emits again; only the committed attempt's
// wakeups may reach the queue.
func TestForEachQueuedAbortedAttemptEmitsOnce(t *testing.T) {
	const n = 64
	r, s, q := chainRuntime(n, 4)
	// The 20th H-mode write aborts its attempt, after that attempt's emit.
	fi := sched.NewFaultInjector(sched.FaultSpec{Mode: "H", Op: "write", N: 20})
	s.SetFaultInjector(fi)
	mark := r.NewVertexArray(0)
	var attempts atomic.Int32
	committed, err := r.ForEachQueued(q, func(tx sched.Tx, v uint32, emit func(uint32, uint64)) error {
		attempts.Add(1)
		if v+1 < n {
			emit(v+1, 0)
		}
		tx.Write(v, mark+mem.Addr(v), 1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if fi.Fired() != 1 || attempts.Load() != n+1 {
		t.Fatalf("injector fired %d times over %d attempts, want one abort in %d", fi.Fired(), attempts.Load(), n+1)
	}
	// Every vertex is woken by its predecessor alone, so a lost wakeup
	// ends the chain early and a doubled one commits a vertex twice.
	if committed != n {
		t.Fatalf("%d transactions committed, want %d: a wakeup was lost or delivered twice", committed, n)
	}
}

// TestForEachQueuedQuiesces runs the driver's lost-wakeup and quiesce
// cases through this entry point: a failing transaction while the other
// workers idle on an empty queue, and a cancelled drain that never
// empties. Both used to be able to hang.
func TestForEachQueuedQuiesces(t *testing.T) {
	within := func(t *testing.T, run func() error) error {
		t.Helper()
		done := make(chan error, 1)
		go func() { done <- run() }()
		select {
		case err := <-done:
			return err
		case <-time.After(10 * time.Second):
			t.Fatal("ForEachQueued hung")
			return nil
		}
	}
	t.Run("error while others idle", func(t *testing.T) {
		r, _, q := chainRuntime(8, 8)
		boom := errors.New("fn failed")
		err := within(t, func() error {
			_, err := r.ForEachQueued(q, func(sched.Tx, uint32, func(uint32, uint64)) error {
				time.Sleep(50 * time.Millisecond) // let the other workers reach their idle spin
				return boom
			})
			return err
		})
		if err != boom {
			t.Fatalf("err = %v, want %v", err, boom)
		}
	})
	t.Run("cancel", func(t *testing.T) {
		r, _, q := chainRuntime(8, 4)
		ctx, cancel := context.WithCancel(context.Background())
		r.Ctx = ctx
		go func() {
			time.Sleep(10 * time.Millisecond)
			cancel()
		}()
		err := within(t, func() error {
			_, err := r.ForEachQueued(q, func(_ sched.Tx, v uint32, emit func(uint32, uint64)) error {
				emit(v, 0) // never lets the queue drain
				return nil
			})
			return err
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	})
}
