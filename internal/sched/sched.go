// Package sched is the transaction-scheduler contract TuFast runs: Tx,
// Worker, Scheduler, and the one retry loop (loop.go) every scheduler's
// attempt protocol runs under, which alone retries, drains, cancels,
// backs off and records each outcome, once, to the worker's obs.Probe;
// every count a scheduler reports is read from its Metrics().Snapshot().
// TuFast's H and O modes (internal/core) are such protocols, and so is
// this package's one scheduler, TPL: two-phase locking with deadlock
// prevention by lock order, both TuFast's L mode and the paper's 2PL. The
// paper's other baselines (§VI-B) are in internal/baselines.
//
// Transactions address shared state through a mem.Space; every operation
// names the vertex the address belongs to, which is the lock and conflict
// granularity (paper Table I: READ(v, addr), WRITE(v, addr, val)).
package sched

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"

	"tufast/internal/mem"
	"tufast/internal/obs"
)

// Tx is the transactional handle passed to user code. Implementations are
// single-goroutine. Read and Write may abort the attempt internally (the
// scheduler retries transparently); user code aborts by returning an error
// from the transaction function.
type Tx interface {
	// Read returns the word at addr, which belongs to vertex v.
	Read(v uint32, addr mem.Addr) uint64
	// Write stores val to addr, which belongs to vertex v.
	Write(v uint32, addr mem.Addr, val uint64)
}

// TxFunc is the body of a transaction. Returning nil commits; returning an
// error aborts the transaction (its effects are discarded) and the error
// is surfaced from Run without retry.
type TxFunc func(tx Tx) error

// ErrAborted is the conventional error for a user-requested abort.
var ErrAborted = errors.New("sched: transaction aborted by user")

// TxPanicError reports a panic that escaped a user TxFunc. The attempt is
// unwound exactly like a user abort — buffered writes are discarded, held
// locks are released, undo logs are rolled back — and the panic surfaces
// as this error from Run instead of crashing the worker goroutine.
type TxPanicError struct {
	// Value is the original panic payload.
	Value any
	// Stack is the stack trace captured at recovery.
	Stack []byte
}

// Error implements error.
func (e *TxPanicError) Error() string {
	return fmt.Sprintf("sched: panic in transaction: %v", e.Value)
}

// AsPanicError unwraps err to a *TxPanicError if one is in its chain.
func AsPanicError(err error) (*TxPanicError, bool) {
	var pe *TxPanicError
	if errors.As(err, &pe) {
		return pe, true
	}
	return nil, false
}

// Worker executes transactions on behalf of one goroutine. Workers are not
// safe for concurrent use; create one per goroutine via Scheduler.Worker.
type Worker interface {
	// Run executes fn as one serializable transaction, retrying internal
	// aborts until commit. sizeHint is the paper's optional BEGIN(size)
	// hint: the approximate number of shared words the transaction will
	// touch (0 = unknown).
	Run(sizeHint int, fn TxFunc) error
	// RunCtx is Run, but returns ctx.Err() (without committing) once ctx
	// is cancelled — including from inside lock-wait and retry loops. A
	// nil ctx or one that can never be cancelled costs nothing over Run.
	RunCtx(ctx context.Context, sizeHint int, fn TxFunc) error
}

// Abandoner is implemented by workers that can verifiably reset in-flight
// attempt state (held locks, undo logs, open segments) after a panic
// escaped mid-attempt. AbandonInFlight returns true when the worker is
// safe to reuse.
type Abandoner interface {
	AbandonInFlight() bool
}

// Trimmer is implemented by workers that can shed the scratch memory a
// giant transaction grew; a pool calls TrimScratch on idle workers.
type Trimmer interface{ TrimScratch() }

// ScratchKeep is how many table slots and log entries, added up, a mode
// context may take back into a pool. The power law's body stays under it
// (a transaction over 64 vertices needs about 250), so the common case
// never reallocates; what a rarer, larger one grew would otherwise stay for
// the life of the scheduler — ~0.4 MB a worker after a 2.4k-degree hub,
// where the benchmark's lib_skew reads live heap with ten workers alive
// (EXPERIMENTS.md "One driver": 512 retains +0.16 MB there, 2048 +0.57).
const ScratchKeep = 1 << 9

// Scheduler is a transaction scheduling discipline over one mem.Space.
type Scheduler interface {
	// Name identifies the scheduler in reports ("2PL", "OCC", ...).
	Name() string
	// Worker returns the per-thread execution context for thread tid.
	// tid must be unique among concurrently running workers.
	Worker(tid int) Worker
	// Metrics returns the scheduler's observability metrics, the one
	// record of its transactions' outcomes.
	Metrics() *obs.Metrics
}

// ReadFloat reads a float64 stored as bits at addr.
func ReadFloat(tx Tx, v uint32, addr mem.Addr) float64 {
	return mem.Float(tx.Read(v, addr))
}

// WriteFloat stores a float64 as bits at addr.
func WriteFloat(tx Tx, v uint32, addr mem.Addr, val float64) {
	tx.Write(v, addr, mem.Word(val))
}

// abortSig is the panic payload used to unwind user code on an internal
// abort. Schedulers recover it and retry.
type abortSig struct {
	reason string
}

// ThrowAbort unwinds the current transaction attempt.
func ThrowAbort(reason string) {
	panic(abortSig{reason: reason})
}

// cancelSig is the panic payload used to unwind an attempt blocked in a
// lock-wait (or any other internal loop) when its context is cancelled.
// runAttempt converts it into a terminal error: the scheduler cleans up
// exactly as for a user abort and Run returns err without retrying.
type cancelSig struct {
	err error
}

// ThrowCancel unwinds the current transaction attempt with a terminal
// cancellation error (conventionally ctx.Err()).
func ThrowCancel(err error) {
	if err == nil {
		err = context.Canceled
	}
	panic(cancelSig{err: err})
}

// runAttempt invokes fn(tx) and classifies how the attempt ended:
//
//   - normal return: (fn's error, ok=true) — nil commits, non-nil is a
//     user abort the scheduler must not retry;
//   - internal abort (ThrowAbort): (nil, ok=false) — the scheduler
//     rolls back and retries;
//   - cancellation (ThrowCancel): (ctx error, ok=true) — terminal, the
//     scheduler rolls back and surfaces the error;
//   - any other panic escaping fn: (*TxPanicError, ok=true) — terminal.
//     The attempt is unwound like a user abort, so a panicking TxFunc
//     never leaks locks, undo state, or a poisoned worker.
func runAttempt(tx Tx, fn TxFunc) (err error, ok bool) {
	defer func() {
		if r := recover(); r != nil {
			switch sig := r.(type) {
			case abortSig:
				err, ok = nil, false
			case cancelSig:
				err, ok = sig.err, true
			default:
				err, ok = &TxPanicError{Value: r, Stack: debug.Stack()}, true
			}
		}
	}()
	return fn(tx), true
}
