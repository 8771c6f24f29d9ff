package tufast_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tufast"
	"tufast/internal/sched"
)

// lHint is a size hint large enough that the router sends the transaction
// straight to L mode (> OMaxHint = 8 * htm.CapacityWords).
const lHint = 1 << 20

// assertNoVertexLocks inspects the shared vertex-lock table and fails if
// any lock survived: that is the lock-leak the panic contract forbids.
func assertNoVertexLocks(t *testing.T, s *tufast.System) {
	t.Helper()
	locks := s.Core().Locks()
	for v := 0; v < locks.Len(); v++ {
		if owner, held := locks.ExclusiveOwner(uint32(v)); held {
			t.Fatalf("vertex %d exclusively locked by tid %d after unwind", v, owner)
		}
		if n := locks.SharedCount(uint32(v)); n != 0 {
			t.Fatalf("vertex %d has %d shared holders after unwind", v, n)
		}
	}
}

// TestPanicInLModeLeavesNoLockHeld is the headline acceptance test: a
// TxFunc that panics after locking and writing in L mode must leave no
// vertex lock held, no write visible, and the System able to commit
// subsequent transactions.
func TestPanicInLModeLeavesNoLockHeld(t *testing.T) {
	g, err := tufast.BuildGraph(8, []tufast.EdgePair{{U: 0, V: 1}, {U: 2, V: 3}, {U: 4, V: 5}}, true)
	if err != nil {
		t.Fatal(err)
	}
	s := tufast.NewSystem(g, tufast.Options{Threads: 4})
	arr := s.NewVertexArray(0)

	if err := s.Atomic(lHint, func(tx tufast.Tx) error {
		tx.Write(2, arr.Addr(2), 20)
		tx.Write(4, arr.Addr(4), 40)
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	err = s.Atomic(lHint, func(tx tufast.Tx) error {
		tx.Write(2, arr.Addr(2), 999) // exclusive lock + in-place write
		tx.Write(4, arr.Addr(4), 999)
		panic("bug in user analytics code")
	})
	var pe *tufast.TxPanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *TxPanicError", err)
	}
	if pe.Value != "bug in user analytics code" {
		t.Fatalf("panic value = %v", pe.Value)
	}

	assertNoVertexLocks(t, s)
	if got := arr.Get(2); got != 20 {
		t.Fatalf("vertex 2 = %d, want rollback to 20", got)
	}
	if got := arr.Get(4); got != 40 {
		t.Fatalf("vertex 4 = %d, want rollback to 40", got)
	}

	// The system keeps committing afterwards — including on the same
	// (pooled, now-recycled) worker.
	for i := 0; i < 8; i++ {
		if err := s.Atomic(lHint, func(tx tufast.Tx) error {
			tx.Write(2, arr.Addr(2), uint64(100+i))
			return nil
		}); err != nil {
			t.Fatalf("post-panic commit %d: %v", i, err)
		}
	}
	if got := arr.Get(2); got != 107 {
		t.Fatalf("vertex 2 = %d, want 107", got)
	}
	if st := s.StatsSnapshot(); st.Panics != 1 {
		t.Fatalf("Stats.Panics = %d, want 1", st.Panics)
	}
}

// TestWorkerReuseAfterPanicAndError exercises the explicit-worker pooling
// path: a worker whose transactions panicked or errored must come back
// clean from Release/Worker.
func TestWorkerReuseAfterPanicAndError(t *testing.T) {
	g := tufast.GenerateUniform(64, 4, 1)
	s := tufast.NewSystem(g, tufast.Options{Threads: 4})
	arr := s.NewVertexArray(0)
	userErr := errors.New("user abort")

	for round := 0; round < 16; round++ {
		w := s.Worker()
		// Panic in H mode (small hint) and in L mode (huge hint).
		hint := 8
		if round%2 == 1 {
			hint = lHint
		}
		err := w.Atomic(hint, func(tx tufast.Tx) error {
			tx.Write(1, arr.Addr(1), 999)
			panic(fmt.Sprintf("round %d", round))
		})
		var pe *tufast.TxPanicError
		if !errors.As(err, &pe) {
			t.Fatalf("round %d: err = %v, want TxPanicError", round, err)
		}
		if err := w.Atomic(hint, func(tx tufast.Tx) error {
			return userErr
		}); err != userErr {
			t.Fatalf("round %d: err = %v, want userErr", round, err)
		}
		// The same worker must still commit.
		if err := w.Atomic(hint, func(tx tufast.Tx) error {
			tx.Write(1, arr.Addr(1), uint64(round))
			return nil
		}); err != nil {
			t.Fatalf("round %d: commit after panic/error: %v", round, err)
		}
		s.Release(w)
		assertNoVertexLocks(t, s)
		if got := arr.Get(1); got != uint64(round) {
			t.Fatalf("round %d: vertex 1 = %d", round, got)
		}
	}
}

// TestInjectedCommitPanicThenRelease injects a panic into the L-mode
// commit window — the one place the panic contract deliberately does NOT
// recover (commit code runs outside the attempt). The panic escapes
// Atomic with locks held; Release must then refuse to pool the worker
// as-is and instead verifiably reset it, leaving the system healthy.
func TestInjectedCommitPanicThenRelease(t *testing.T) {
	g := tufast.GenerateUniform(64, 4, 1)
	s := tufast.NewSystem(g, tufast.Options{Threads: 4})
	arr := s.NewVertexArray(0)

	for _, mode := range []string{"L", "H"} {
		hint := 8
		if mode == "L" {
			hint = lHint
		}
		fi := sched.NewFaultInjector(sched.FaultSpec{Mode: mode, Op: "commit", Kind: sched.FaultPanic})
		s.Core().SetFaultInjector(fi)

		w := s.Worker()
		var recovered any
		func() {
			defer func() { recovered = recover() }()
			_ = w.Atomic(hint, func(tx tufast.Tx) error {
				tx.Write(3, arr.Addr(3), 555)
				return nil
			})
		}()
		if recovered == nil {
			t.Fatalf("%s: injected commit panic did not escape", mode)
		}
		if p, ok := recovered.(sched.InjectedPanic); !ok || p.Mode != mode || p.Op != "commit" {
			t.Fatalf("%s: recovered %#v", mode, recovered)
		}
		if fi.Fired() != 1 {
			t.Fatalf("%s: injector fired %d times", mode, fi.Fired())
		}
		s.Core().SetFaultInjector(nil)

		// Release the poisoned worker: it must be abandoned (locks
		// reclaimed, undo rolled back) before pooling.
		s.Release(w)
		assertNoVertexLocks(t, s)
		if got := arr.Get(3); got != 0 {
			t.Fatalf("%s: vertex 3 = %d, want rollback to 0", mode, got)
		}
		if err := s.Atomic(hint, func(tx tufast.Tx) error {
			tx.Write(3, arr.Addr(3), 7)
			return nil
		}); err != nil {
			t.Fatalf("%s: commit after abandoned release: %v", mode, err)
		}
		if got := arr.Get(3); got != 7 {
			t.Fatalf("%s: vertex 3 = %d, want 7", mode, got)
		}
		arr.Set(3, 0)
	}
}

// TestInjectedCommitAbortRetries checks the abort-kind commit fault is
// invisible to the caller: the attempt fails its commit, rolls back, and
// the retry commits.
func TestInjectedCommitAbortRetries(t *testing.T) {
	g := tufast.GenerateUniform(64, 4, 1)
	s := tufast.NewSystem(g, tufast.Options{Threads: 4})
	arr := s.NewVertexArray(0)

	for _, tc := range []struct {
		mode string
		hint int
	}{{"H", 8}, {"O", 8192}, {"L", lHint}} {
		fi := sched.NewFaultInjector(sched.FaultSpec{Mode: tc.mode, Op: "commit", Kind: sched.FaultAbort})
		s.Core().SetFaultInjector(fi)
		if err := s.Atomic(tc.hint, func(tx tufast.Tx) error {
			tx.Write(5, arr.Addr(5), tx.Read(5, arr.Addr(5))+1)
			return nil
		}); err != nil {
			t.Fatalf("%s: %v", tc.mode, err)
		}
		if fi.Fired() != 1 {
			t.Fatalf("%s: injector fired %d times, want 1", tc.mode, fi.Fired())
		}
		s.Core().SetFaultInjector(nil)
		assertNoVertexLocks(t, s)
	}
	if got := arr.Get(5); got != 3 {
		t.Fatalf("vertex 5 = %d, want 3 (each increment exactly once)", got)
	}
}

// TestForEachVertexCtxCancelPrompt is the sweep-cancellation acceptance
// test: once ctx is cancelled mid-sweep the driver must return ctx.Err()
// in well under 100ms instead of draining the remaining vertices.
func TestForEachVertexCtxCancelPrompt(t *testing.T) {
	g := tufast.GenerateUniform(100_000, 2, 1)
	s := tufast.NewSystem(g, tufast.Options{Threads: 4})
	arr := s.NewVertexArray(0)

	ctx, cancel := context.WithCancel(context.Background())
	var visited atomic.Int64
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	err := s.ForEachVertexCtx(ctx, func(tx tufast.Tx, v uint32) error {
		visited.Add(1)
		time.Sleep(20 * time.Microsecond) // make the full sweep take ~seconds
		tx.Write(v, arr.Addr(v), 1)
		return nil
	})
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed > 105*time.Millisecond {
		t.Fatalf("cancelled sweep returned after %v, want < 100ms", elapsed)
	}
	if n := visited.Load(); n >= int64(g.NumVertices()) {
		t.Fatal("sweep ran to completion despite cancellation")
	}
	assertNoVertexLocks(t, s)
}

// TestForEachQueuedCtxCancelPrompt cancels a drain whose queue never
// empties (fn re-pushes every vertex): only cancellation can end it.
func TestForEachQueuedCtxCancelPrompt(t *testing.T) {
	g := tufast.GenerateUniform(1024, 4, 1)
	s := tufast.NewSystem(g, tufast.Options{Threads: 4})
	arr := s.NewVertexArray(0)
	q := s.NewQueue()
	for v := uint32(0); v < 64; v++ {
		q.Push(v)
	}

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	err := s.ForEachQueuedCtx(ctx, q, func(tx tufast.Tx, v uint32) error {
		tx.Write(v, arr.Addr(v), tx.Read(v, arr.Addr(v))+1)
		q.Push(v) // never lets the queue drain
		return nil
	})
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed > 110*time.Millisecond {
		t.Fatalf("cancelled drain returned after %v, want < 100ms after cancel", elapsed)
	}
	assertNoVertexLocks(t, s)
}

// TestForEachQueuedErrorWhileOthersIdle is the quiesce-invariant
// regression: one worker's fn fails while every other worker idle-spins
// on an empty queue. Before the fix the erroring worker left without
// contributing to the idle count, so the spinners never reached the
// all-idle threshold and the call hung forever.
func TestForEachQueuedErrorWhileOthersIdle(t *testing.T) {
	g := tufast.GenerateUniform(256, 4, 1)
	s := tufast.NewSystem(g, tufast.Options{Threads: 8})
	q := s.NewQueue()
	q.Push(0) // exactly one item: one worker runs fn, seven idle-spin

	boom := errors.New("fn failed")
	done := make(chan error, 1)
	go func() {
		done <- s.ForEachQueued(q, func(tx tufast.Tx, v uint32) error {
			time.Sleep(50 * time.Millisecond) // let the other workers reach their idle spin
			return boom
		})
	}()
	select {
	case err := <-done:
		if err != boom {
			t.Fatalf("err = %v, want %v", err, boom)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("ForEachQueued hung: error exit did not keep its idle contribution")
	}
	assertNoVertexLocks(t, s)
}

// popOnlyQueue is a caller's own Source and Sink: it has none of the
// chunk methods the library's queues have, so the driver polls it one id
// at a time and publishes emits one Push at a time.
type popOnlyQueue struct{ q *tufast.Queue }

func (p popOnlyQueue) Pop() (uint32, bool) { return p.q.Pop() }
func (p popOnlyQueue) Len() int            { return p.q.Len() }
func (p popOnlyQueue) Push(v uint32)       { p.q.Push(v) }

// TestQueuedDriversQuiesce runs the two cases above — a failing
// transaction while every other worker idles, a cancelled drain that
// never empties — through every queued entry point and both kinds of
// queue, now that one loop (worklist.Drain) serves them all.
func TestQueuedDriversQuiesce(t *testing.T) {
	g := tufast.GenerateUniform(256, 4, 1)
	type drain func(ctx context.Context, s *tufast.System, q tufast.Sink, fn func(tx tufast.Tx, v uint32, emit func(uint32)) error) error
	queued := func(ctx context.Context, s *tufast.System, q tufast.Sink, fn func(tufast.Tx, uint32, func(uint32)) error) error {
		return s.ForEachQueuedCtx(ctx, q, func(tx tufast.Tx, v uint32) error { return fn(tx, v, q.Push) })
	}
	emitting := func(ctx context.Context, s *tufast.System, q tufast.Sink, fn func(tufast.Tx, uint32, func(uint32)) error) error {
		return s.ForEachQueuedEmitCtx(ctx, q, nil, fn)
	}
	for _, tc := range []struct {
		name    string
		run     drain
		popOnly bool
	}{
		{"ForEachQueuedCtx/pop-only source", queued, true},
		{"ForEachQueuedEmitCtx/queue", emitting, false},
		{"ForEachQueuedEmitCtx/pop-only sink", emitting, true},
	} {
		newQueue := func(s *tufast.System) tufast.Sink {
			if tc.popOnly {
				return popOnlyQueue{s.NewQueue()}
			}
			return s.NewQueue()
		}
		t.Run(tc.name+"/error while others idle", func(t *testing.T) {
			s := tufast.NewSystem(g, tufast.Options{Threads: 8})
			q := newQueue(s)
			q.Push(0)
			boom := errors.New("fn failed")
			done := make(chan error, 1)
			go func() {
				done <- tc.run(context.Background(), s, q, func(tufast.Tx, uint32, func(uint32)) error {
					time.Sleep(50 * time.Millisecond)
					return boom
				})
			}()
			select {
			case err := <-done:
				if err != boom {
					t.Fatalf("err = %v, want %v", err, boom)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("drain hung: error exit did not keep its idle contribution")
			}
			assertNoVertexLocks(t, s)
		})
		t.Run(tc.name+"/cancel", func(t *testing.T) {
			s := tufast.NewSystem(g, tufast.Options{Threads: 4})
			arr := s.NewVertexArray(0)
			q := newQueue(s)
			for v := uint32(0); v < 64; v++ {
				q.Push(v)
			}
			ctx, cancel := context.WithCancel(context.Background())
			go func() {
				time.Sleep(10 * time.Millisecond)
				cancel()
			}()
			start := time.Now()
			err := tc.run(ctx, s, q, func(tx tufast.Tx, v uint32, emit func(uint32)) error {
				tx.Write(v, arr.Addr(v), tx.Read(v, arr.Addr(v))+1)
				emit(v) // never lets the queue drain
				return nil
			})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if elapsed := time.Since(start); elapsed > 110*time.Millisecond {
				t.Fatalf("cancelled drain returned after %v, want < 100ms after cancel", elapsed)
			}
			assertNoVertexLocks(t, s)
		})
	}
}

// TestMixedModeFaultHammer hammers all three modes concurrently with a
// mix of commits, user errors, and panics under the race detector, then
// checks exactly the committed increments landed.
func TestMixedModeFaultHammer(t *testing.T) {
	g := tufast.GenerateUniform(256, 4, 1)
	s := tufast.NewSystem(g, tufast.Options{Threads: 8})
	arr := s.NewVertexArray(0)

	const (
		goroutines = 8
		iters      = 300
	)
	hints := [3]int{8, 8192, lHint} // H, O, L routing
	var commits atomic.Uint64
	var wg sync.WaitGroup
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			w := s.Worker()
			defer s.Release(w)
			for it := 0; it < iters; it++ {
				v := uint32((gi*31 + it*7) % 4) // few vertices -> real conflicts
				hint := hints[(gi+it)%3]
				switch (gi + it) % 5 {
				case 0: // user error: no effect
					err := w.Atomic(hint, func(tx tufast.Tx) error {
						tx.Write(v, arr.Addr(v), tx.Read(v, arr.Addr(v))+1000)
						return errors.New("nope")
					})
					if err == nil {
						t.Error("user error swallowed")
						return
					}
				case 1: // panic: no effect, surfaces as TxPanicError
					err := w.Atomic(hint, func(tx tufast.Tx) error {
						tx.Write(v, arr.Addr(v), tx.Read(v, arr.Addr(v))+1000)
						panic("hammer")
					})
					var pe *tufast.TxPanicError
					if !errors.As(err, &pe) {
						t.Errorf("want TxPanicError, got %v", err)
						return
					}
				default: // commit: increments exactly once
					if err := w.Atomic(hint, func(tx tufast.Tx) error {
						tx.Write(v, arr.Addr(v), tx.Read(v, arr.Addr(v))+1)
						return nil
					}); err != nil {
						t.Errorf("commit failed: %v", err)
						return
					}
					commits.Add(1)
				}
			}
		}(gi)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	var total uint64
	for v := uint32(0); v < 4; v++ {
		total += arr.Get(v)
	}
	if total != commits.Load() {
		t.Fatalf("sum of counters = %d, want %d committed increments (atomicity violated)", total, commits.Load())
	}
	assertNoVertexLocks(t, s)
	st := s.StatsSnapshot()
	if st.Panics == 0 || st.UserStops < st.Panics {
		t.Fatalf("stats: Panics=%d UserStops=%d", st.Panics, st.UserStops)
	}
}

// TestAtomicCtxCancelStopsRetry cancels a transaction stuck retrying
// against a persistent conflict (a foreign exclusive lock) — L-mode
// lock waits must observe the context.
func TestAtomicCtxCancelStopsRetry(t *testing.T) {
	g := tufast.GenerateUniform(64, 4, 1)
	s := tufast.NewSystem(g, tufast.Options{Threads: 4})
	arr := s.NewVertexArray(0)

	locks := s.Core().Locks()
	const blocker = 63 // foreign tid outside the pooled range in this test
	if !locks.TryExclusive(1, blocker) {
		t.Fatal("setup lock failed")
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	err := s.AtomicCtx(ctx, lHint, func(tx tufast.Tx) error {
		tx.Write(1, arr.Addr(1), 1)
		return nil
	})
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed > 110*time.Millisecond {
		t.Fatalf("cancel took %v", elapsed)
	}
	locks.ReleaseExclusive(1, blocker)
	if err := s.Atomic(lHint, func(tx tufast.Tx) error {
		tx.Write(1, arr.Addr(1), 2)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	assertNoVertexLocks(t, s)
}
