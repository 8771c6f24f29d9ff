package sched

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"tufast/internal/mem"
	"tufast/internal/vlock"
)

// TestRunAttemptClassification pins the four attempt outcomes the panic
// contract distinguishes.
func TestRunAttemptClassification(t *testing.T) {
	// Normal commit.
	if err, ok := runAttempt(nil, func(Tx) error { return nil }); err != nil || !ok {
		t.Fatalf("commit: (%v, %v), want (nil, true)", err, ok)
	}
	// User abort: error returned as-is, no retry.
	userErr := errors.New("stop")
	if err, ok := runAttempt(nil, func(Tx) error { return userErr }); err != userErr || !ok {
		t.Fatalf("user abort: (%v, %v), want (%v, true)", err, ok, userErr)
	}
	// Internal abort: retry.
	if err, ok := runAttempt(nil, func(Tx) error { ThrowAbort("conflict"); return nil }); err != nil || ok {
		t.Fatalf("internal abort: (%v, %v), want (nil, false)", err, ok)
	}
	// Cancellation: terminal with the cancel error.
	if err, ok := runAttempt(nil, func(Tx) error { ThrowCancel(context.DeadlineExceeded); return nil }); err != context.DeadlineExceeded || !ok {
		t.Fatalf("cancel: (%v, %v), want (DeadlineExceeded, true)", err, ok)
	}
	if err, ok := runAttempt(nil, func(Tx) error { ThrowCancel(nil); return nil }); err != context.Canceled || !ok {
		t.Fatalf("cancel(nil): (%v, %v), want (Canceled, true)", err, ok)
	}
	// User panic: wrapped, terminal, stack captured.
	err, ok := runAttempt(nil, func(Tx) error { panic("boom") })
	if !ok {
		t.Fatal("panic must be terminal (ok=true), not a retry")
	}
	pe, isPanic := AsPanicError(err)
	if !isPanic {
		t.Fatalf("err = %v, want *TxPanicError", err)
	}
	if pe.Value != "boom" {
		t.Fatalf("panic value = %v, want boom", pe.Value)
	}
	if len(pe.Stack) == 0 {
		t.Fatal("panic stack not captured")
	}
	// Wrapped TxPanicError still unwraps.
	if _, isPanic := AsPanicError(fmt.Errorf("outer: %w", pe)); !isPanic {
		t.Fatal("AsPanicError must see through wrapping")
	}
}

// TestFaultInjectorDeterminism checks a fault fires exactly once, exactly
// at the Nth matching operation, and never again.
func TestFaultInjectorDeterminism(t *testing.T) {
	fi := NewFaultInjector(FaultSpec{Mode: "L", Op: "read", N: 3, Kind: FaultAbort})
	fired := 0
	hit := func(mode, op string) (threw bool) {
		defer func() {
			if r := recover(); r != nil {
				if _, isAbort := r.(abortSig); !isAbort {
					panic(r)
				}
				threw = true
				fired++
			}
		}()
		fi.At(mode, op)
		return false
	}
	for i := 1; i <= 10; i++ {
		threw := hit("L", "read")
		if (i == 3) != threw {
			t.Fatalf("op %d: threw=%v, want fire only at 3", i, threw)
		}
	}
	if fired != 1 || fi.Fired() != 1 {
		t.Fatalf("fired %d times (injector says %d), want exactly 1", fired, fi.Fired())
	}
	// Non-matching mode/op never counts.
	fi2 := NewFaultInjector(FaultSpec{Mode: "H", Op: "write", N: 1, Kind: FaultAbort})
	fi2.At("L", "write")
	fi2.At("H", "read")
	if fi2.Fired() != 0 {
		t.Fatal("non-matching ops must not fire")
	}
	// Panic kind carries a structured payload.
	fi3 := NewFaultInjector(FaultSpec{Mode: "O", Op: "read", Kind: FaultPanic})
	func() {
		defer func() {
			p, isInjected := recover().(InjectedPanic)
			if !isInjected || p.Mode != "O" || p.Op != "read" || p.N != 1 {
				t.Fatalf("payload = %#v", p)
			}
		}()
		fi3.At("O", "read")
	}()
	// Nil injector is inert.
	var nilFI *FaultInjector
	nilFI.At("L", "read")
	if nilFI.AtCommit("L") {
		t.Fatal("nil injector must not fail commits")
	}
}

func newTPLFixture(t *testing.T, vertices int) (*TPL, *mem.Space, *vlock.Table) {
	t.Helper()
	sp := mem.NewSpace(vertices * 8)
	locks := vlock.NewTable(vertices)
	return NewTPL(sp, locks), sp, locks
}

// assertNoLocksHeld fails if any vertex lock is held.
func assertNoLocksHeld(t *testing.T, locks *vlock.Table) {
	t.Helper()
	for v := 0; v < locks.Len(); v++ {
		if owner, held := locks.ExclusiveOwner(uint32(v)); held {
			t.Fatalf("vertex %d still exclusively locked by tid %d", v, owner)
		}
		if n := locks.SharedCount(uint32(v)); n != 0 {
			t.Fatalf("vertex %d still has %d shared holders", v, n)
		}
	}
}

// TestTPLPanicReleasesLocksAndRollsBack is the L-mode core of the panic
// contract: a TxFunc that panics after taking exclusive locks and writing
// must leave no lock held, its writes undone, and the worker reusable.
func TestTPLPanicReleasesLocksAndRollsBack(t *testing.T) {
	s, sp, locks := newTPLFixture(t, 16)
	w := s.NewWorker(0)

	seed := s.NewWorker(1)
	if err := seed.Run(0, func(tx Tx) error {
		tx.Write(3, mem.Addr(3), 30)
		tx.Write(5, mem.Addr(5), 50)
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	err := w.Run(0, func(tx Tx) error {
		tx.Write(3, mem.Addr(3), 999)
		tx.Write(5, mem.Addr(5), 999)
		panic("user bug")
	})
	pe, isPanic := AsPanicError(err)
	if !isPanic {
		t.Fatalf("err = %v, want *TxPanicError", err)
	}
	if pe.Value != "user bug" {
		t.Fatalf("panic value = %v", pe.Value)
	}
	assertNoLocksHeld(t, locks)
	if got := sp.Load(mem.Addr(3)); got != 30 {
		t.Fatalf("vertex 3 word = %d, want rollback to 30", got)
	}
	if got := sp.Load(mem.Addr(5)); got != 50 {
		t.Fatalf("vertex 5 word = %d, want rollback to 50", got)
	}
	if p := totals(s).Panics; p != 1 {
		t.Fatalf("Panics stat = %d, want 1", p)
	}

	// The same worker commits afterwards.
	if err := w.Run(0, func(tx Tx) error {
		tx.Write(3, mem.Addr(3), 31)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := sp.Load(mem.Addr(3)); got != 31 {
		t.Fatalf("post-panic commit lost: word = %d", got)
	}
	assertNoLocksHeld(t, locks)
}

// TestTPLRunCtxCancelDuringLockWait blocks a worker on a lock a foreign
// thread holds and cancels it: RunCtx must return ctx.Err() promptly with
// nothing held.
func TestTPLRunCtxCancelDuringLockWait(t *testing.T) {
	s, _, locks := newTPLFixture(t, 16)
	w := s.NewWorker(0)

	const blocker = 7 // fake foreign tid holding the lock for the test
	if !locks.TryExclusive(9, blocker) {
		t.Fatal("setup: could not take blocking lock")
	}

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	err := w.RunCtx(ctx, 0, func(tx Tx) error {
		tx.Write(9, mem.Addr(9), 1) // blocks: vertex 9 is foreign-locked
		return nil
	})
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed > 100*time.Millisecond {
		t.Fatalf("cancellation took %v, want < 100ms", elapsed)
	}
	if owner, held := locks.ExclusiveOwner(9); !held || owner != blocker {
		t.Fatal("blocking lock must still belong to the foreign holder")
	}
	// Worker holds nothing and is reusable once the blocker goes away.
	locks.ReleaseExclusive(9, blocker)
	if err := w.Run(0, func(tx Tx) error {
		tx.Write(9, mem.Addr(9), 2)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	assertNoLocksHeld(t, locks)
}

// TestTPLRunCtxPreCancelled returns immediately without an attempt.
func TestTPLRunCtxPreCancelled(t *testing.T) {
	s, _, _ := newTPLFixture(t, 4)
	w := s.NewWorker(0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	if err := w.RunCtx(ctx, 0, func(Tx) error { ran = true; return nil }); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if ran {
		t.Fatal("TxFunc must not run under a pre-cancelled context")
	}
}

// TestTPLInjectedCommitAbortRetries checks the FaultAbort commit fault is
// treated as a failed commit: the attempt rolls back and a retry commits.
func TestTPLInjectedCommitAbortRetries(t *testing.T) {
	s, sp, locks := newTPLFixture(t, 16)
	s.SetFaultInjector(NewFaultInjector(FaultSpec{Mode: "L", Op: "commit", Kind: FaultAbort}))
	w := s.NewWorker(0)
	attempts := 0
	if err := w.Run(0, func(tx Tx) error {
		attempts++
		tx.Write(2, mem.Addr(2), uint64(attempts))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (one injected commit failure, one commit)", attempts)
	}
	if got := sp.Load(mem.Addr(2)); got != 2 {
		t.Fatalf("word = %d, want the retry's value 2", got)
	}
	if a := totals(s).Aborts; a != 1 {
		t.Fatalf("Aborts = %d, want 1", a)
	}
	assertNoLocksHeld(t, locks)
}

// TestTPLInjectedCommitPanicAbandon models a crash inside the L commit
// window: the panic escapes Run with locks still held (by design — commit
// code runs outside runAttempt), and AbandonInFlight reclaims everything
// so the worker can be pooled again.
func TestTPLInjectedCommitPanicAbandon(t *testing.T) {
	s, sp, locks := newTPLFixture(t, 16)
	s.SetFaultInjector(NewFaultInjector(FaultSpec{Mode: "L", Op: "commit", Kind: FaultPanic}))
	w := s.NewWorker(0)

	var recovered any
	func() {
		defer func() { recovered = recover() }()
		_ = w.Run(0, func(tx Tx) error {
			tx.Write(4, mem.Addr(4), 77)
			return nil
		})
	}()
	p, isInjected := recovered.(InjectedPanic)
	if !isInjected || p.Mode != "L" || p.Op != "commit" {
		t.Fatalf("recovered %#v, want InjectedPanic at L commit", recovered)
	}
	if owner, held := locks.ExclusiveOwner(4); !held || owner != 0 {
		t.Fatal("commit-window panic should have left the vertex lock held (that's the hazard)")
	}

	if !w.AbandonInFlight() {
		t.Fatal("AbandonInFlight must report the worker reusable")
	}
	assertNoLocksHeld(t, locks)
	if got := sp.Load(mem.Addr(4)); got != 0 {
		t.Fatalf("word = %d, want rollback to 0", got)
	}
	// Reuse after abandonment: the drain mutex must not be wedged either.
	if err := w.Run(0, func(tx Tx) error {
		tx.Write(4, mem.Addr(4), 5)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := sp.Load(mem.Addr(4)); got != 5 {
		t.Fatalf("post-abandon commit lost: word = %d", got)
	}
}

// TestTPLCancelWhileWaiting cancels a worker blocked in a lock wait: the
// transaction returns the cancellation, and the worker commits once the
// lock is free.
func TestTPLCancelWhileWaiting(t *testing.T) {
	sp := mem.NewSpace(64)
	locks := vlock.NewTable(8)
	s := NewTPL(sp, locks)
	w := s.NewWorker(0)

	const blocker = 3
	if !locks.TryExclusive(2, blocker) {
		t.Fatal("setup lock failed")
	}

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	err := w.RunCtx(ctx, 0, func(tx Tx) error {
		tx.Write(2, mem.Addr(2), 1)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	locks.ReleaseExclusive(2, blocker)
	if err := w.Run(0, func(tx Tx) error {
		tx.Write(2, mem.Addr(2), 9)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	assertNoLocksHeld(t, locks)
}

// TestTPLWorkerDropsGiantScratch is TPL's share of the driver pool's trim:
// the hold table, lock order and undo log a hub-sized transaction grew go
// when an idle worker is trimmed, a small transaction's stay, and the
// worker commits afterwards.
func TestTPLWorkerDropsGiantScratch(t *testing.T) {
	const hub = 6000
	s, sp, locks := newTPLFixture(t, hub)
	w := s.NewWorker(0)
	touch := func(n uint32) TxFunc {
		return func(tx Tx) error {
			for v := uint32(0); v < n; v++ {
				tx.Write(v, mem.Addr(v), tx.Read(v, mem.Addr(v))+1)
			}
			return nil
		}
	}
	size := func() int { return w.held.Cap() + cap(w.order) + cap(w.undo) }

	if err := w.Run(0, touch(8)); err != nil {
		t.Fatal(err)
	}
	held := w.held
	if w.TrimScratch(); w.held != held {
		t.Fatal("a small transaction's tables were dropped")
	}
	if err := w.Run(0, touch(hub)); err != nil {
		t.Fatal(err)
	}
	if size() < 2*hub {
		t.Fatalf("scratch is %d entries after a %d-vertex transaction: the test grows nothing", size(), hub)
	}
	if w.TrimScratch(); size() > ScratchKeep {
		t.Fatalf("scratch is %d entries after the trim, want at most %d", size(), ScratchKeep)
	}
	if err := w.Run(0, touch(8)); err != nil {
		t.Fatal(err)
	}
	assertNoLocksHeld(t, locks)
	if got := sp.Load(mem.Addr(0)); got != 3 {
		t.Fatalf("word 0 = %d, want 3", got)
	}
}
