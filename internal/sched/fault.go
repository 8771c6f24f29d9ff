package sched

import (
	"fmt"
	"sync/atomic"
	"time"
)

// FaultKind selects what an injected fault does when it fires.
type FaultKind int

const (
	// FaultAbort aborts the attempt (internal abort: the scheduler rolls
	// back and retries) or forces a commit failure at a commit point.
	FaultAbort FaultKind = iota
	// FaultPanic panics with an InjectedPanic payload, exercising the
	// panic-unwinding and worker-recovery paths.
	FaultPanic
	// FaultStall sleeps the matched worker for the spec's Stall and lets
	// the operation go on: a holder descheduled with whatever it holds
	// (at an L read or write, the locks taken before it; at an H commit,
	// its commit-gate flag).
	FaultStall
)

// FaultSpec selects the operation an injected fault fires at: the Nth
// operation (1-based, counted across all workers) matching Mode and Op.
// Empty Mode or Op matches everything.
type FaultSpec struct {
	Mode string    // "H", "O", "L" (TuFast modes) or a baseline's label; "" = any
	Op   string    // "read", "write", "commit"; "" = any
	N    uint64    // fire on the Nth matching operation (0 means 1st)
	Kind FaultKind // what to do when firing
	// Stall is how long a FaultStall fault sleeps.
	Stall time.Duration
}

// InjectedPanic is the panic payload of a FaultPanic fault; it surfaces to
// callers wrapped in a TxPanicError.
type InjectedPanic struct {
	Mode string
	Op   string
	N    uint64
}

func (p InjectedPanic) String() string {
	return fmt.Sprintf("injected panic at %s %s #%d", p.Mode, p.Op, p.N)
}

// FaultInjector deterministically injects one fault into an instrumented
// scheduler: the Nth operation matching the spec aborts, panics or stalls, every
// other operation proceeds untouched. The match counter is shared across
// workers, so under a single-threaded workload the firing point is exactly
// reproducible; under concurrency it still fires exactly once. A nil
// injector is valid and inert, so hook sites need no guard.
type FaultInjector struct {
	spec  FaultSpec
	seen  atomic.Uint64
	fired atomic.Uint64
}

// NewFaultInjector creates an injector for spec.
func NewFaultInjector(spec FaultSpec) *FaultInjector {
	if spec.N == 0 {
		spec.N = 1
	}
	return &FaultInjector{spec: spec}
}

// Fired returns how many times the injector has fired (0 or 1).
func (fi *FaultInjector) Fired() uint64 {
	if fi == nil {
		return 0
	}
	return fi.fired.Load()
}

func (fi *FaultInjector) match(mode, op string) bool {
	return (fi.spec.Mode == "" || fi.spec.Mode == mode) &&
		(fi.spec.Op == "" || fi.spec.Op == op)
}

// At is the read/write hook, called from inside a transaction attempt
// (where ThrowAbort is legal). It either returns without effect (after a
// stall, perhaps), aborts the attempt, or panics. It sits on every
// transactional operation of every mode, so the nil case is split off
// small enough to inline.
func (fi *FaultInjector) At(mode, op string) {
	if fi != nil {
		fi.at(mode, op)
	}
}

func (fi *FaultInjector) at(mode, op string) {
	if fi.fire(mode, op) {
		ThrowAbort("injected abort")
	}
}

// AtCommit is the commit-point hook, called where an abort must be
// reported as a commit failure rather than thrown (commit code runs
// outside runAttempt). It returns true when the commit must fail; a
// FaultPanic fault panics instead, deliberately modelling a crash inside
// the commit window, and a FaultStall fault stalls there and lets the
// commit go on.
func (fi *FaultInjector) AtCommit(mode string) bool {
	return fi != nil && fi.fire(mode, "commit")
}

// fire counts an operation that matches the spec and reports whether it
// is the Nth, where an abort fires: a FaultPanic fault panics there
// instead, and a FaultStall fault stalls and reports false.
func (fi *FaultInjector) fire(mode, op string) bool {
	if !fi.match(mode, op) || fi.seen.Add(1) != fi.spec.N {
		return false
	}
	fi.fired.Add(1)
	switch fi.spec.Kind {
	case FaultPanic:
		panic(InjectedPanic{Mode: mode, Op: op, N: fi.spec.N})
	case FaultStall:
		time.Sleep(fi.spec.Stall)
		return false
	}
	return true
}
