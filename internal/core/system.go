package core

import (
	"context"
	"sync"
	"sync/atomic"

	"tufast/internal/htm"
	"tufast/internal/mem"
	"tufast/internal/obs"
	"tufast/internal/sched"
	"tufast/internal/vlock"
)

// System is the TuFast runtime: a three-mode hybrid TM over one memory
// space and one vertex-lock table. It implements sched.Scheduler so the
// same algorithm code runs unchanged on TuFast and on every baseline.
type System struct {
	sched.Instrumented
	sp    *mem.Space
	locks *vlock.Table
	cfg   Config

	lmode  *sched.TPL
	period *periodController

	// faults deterministically injects aborts or panics at chosen H/O/L
	// operations (tests only); nil when inactive.
	faults atomic.Pointer[sched.FaultInjector]

	// registry lists every worker's commit-gate flag (counters.go).
	regMu    sync.Mutex
	registry atomic.Pointer[[]*counters]

	// lState is generation<<32 | lockers in flight. A locker is a
	// transaction that may hold a vertex lock exclusively while its writes
	// are not yet all in place: an L transaction (runL) and an O commit
	// with writes (omode.go, Commit). Each raises both halves before its
	// first exclusive acquisition and lowers the count after its last
	// release, so — outside an H commit's own window, whose publish the
	// line locks make atomic — an exclusive vertex lock is held only while
	// the count is > 0. Two things rest on it:
	//
	//   - an H attempt that begins with the count at 0 runs quiet: it
	//     subscribes to this word instead of one lock word per vertex
	//     (hmode.go), and commits only if the word never moved;
	//   - an H commit skips the vertex locks when the count reads 0 inside
	//     its commit-gate window. An H commit raises its worker's flag and
	//     then reads lState; an L transaction raises lState and then waits
	//     for every registered flag to read 0 (awaitHCommits). Go's atomics
	//     are sequentially consistent, so for each H commit either it saw
	//     the L transaction (a quiet attempt dies, a subscribed one takes
	//     the real vertex locks) or the L transaction saw its flag and
	//     waited for the publish to finish before its first read.
	//
	// On real TSX both are implicit: the lock words sit in the read set and
	// are written transactionally. Every H attempt reads the word and only
	// lockers write it, so it gets a cache line of its own.
	_      [64]byte
	lState atomic.Uint64
	_      [64]byte
}

// lockerEnter raises lState's generation and count, lockerExit lowers the
// count; lockers reads the count out of a loaded word.
func (s *System) lockerEnter()  { s.lState.Add(1<<32 | 1) }
func (s *System) lockerExit()   { s.lState.Add(^uint64(0)) }
func lockers(lState uint64) int { return int(uint32(lState)) }

// New creates a TuFast system over sp with per-vertex locks for
// nVertices vertices.
func New(sp *mem.Space, nVertices int, cfg Config) *System {
	cfg = cfg.normalize()
	s := &System{
		sp:     sp,
		locks:  vlock.NewTable(nVertices),
		cfg:    cfg,
		period: newPeriodController(cfg.PeriodInit, cfg.PeriodFloor, periodCap),
	}
	s.lmode = sched.NewTPL(sp, s.locks)
	s.lmode.SetTax(cfg.Tax)
	s.period.m = s.Metrics()
	return s
}

// SetFaultInjector installs (or, with nil, removes) a deterministic fault
// injector covering all three modes: H and O operations are matched here,
// L operations inside the TPL sub-scheduler. Install it before running
// the workload under test.
func (s *System) SetFaultInjector(fi *sched.FaultInjector) {
	s.faults.Store(fi)
	s.lmode.SetFaultInjector(fi)
}

// Name implements sched.Scheduler.
func (s *System) Name() string { return "TuFast" }

// CurrentPeriod returns the adaptive O-mode segment length now in force
// (the Fig. 17 trace reads this).
func (s *System) CurrentPeriod() int { return s.period.Current() }

// Locks exposes the vertex lock table (tests and invariant checks).
func (s *System) Locks() *vlock.Table { return s.locks }

// Space returns the memory space the system schedules over.
func (s *System) Space() *mem.Space { return s.sp }

// Config returns the normalized configuration in force.
func (s *System) Config() Config { return s.cfg }

// Worker implements sched.Scheduler.
func (s *System) Worker(tid int) sched.Worker {
	if tid < 0 || tid >= sched.MaxThreads {
		panic("core: worker tid out of range")
	}
	w := &worker{s: s, tid: tid, c: new(counters), probe: s.Metrics().NewProbe()}
	// Registered before the worker can commit: an L transaction whose
	// scan missed the block raised lState before the registration, so this
	// worker's first H commit will see it.
	s.register(w.c)
	w.h = newHCtx(w)
	w.o = newOCtx(w)
	// The H and O rungs run under a loop of the worker's own, L mode
	// under the TPL worker's: the loop every baseline runs under, each
	// recording into this worker's probe.
	w.loop = sched.NewLoop(nil, &w.probe, obs.ModeH, nil, uint64(tid)*0x9E3779B97F4A7C15+0xA5)
	w.l = s.lmode.NewWorkerFor(tid, &w.probe)
	return w
}

// worker is the per-goroutine TuFast execution context.
type worker struct {
	s   *System
	tid int
	c   *counters
	h   *hCtx
	o   *oCtx
	l   *sched.TPLWorker
	// loop runs the H and O rungs (Rung), so a transaction keeps one
	// backoff level across both.
	loop sched.Loop

	// held lists the exclusive vertex locks an H or O commit of this
	// worker has taken (lockWriteSet), until unlockHeld.
	held []uint32

	// route is what this worker has learnt about where each size class's
	// ladder steps fail (router.go).
	route [numSizeClasses]classStats

	// probe records this worker's lifecycle telemetry; span and attempts
	// carry the in-flight transaction's sampled start time and aborted
	// attempt count across the H→O→L mode ladder.
	probe    obs.Probe
	span     obs.Span
	attempts uint32

	// ctx is the cancellation context of the in-flight RunCtx call (nil
	// when the transaction is not cancellable); the loops poll it.
	ctx context.Context
}

// Run implements sched.Worker: the Fig. 10 routing state machine, with
// the rungs a size class has learnt to fail on skipped (router.go).
// HMaxHint and OMaxHint stay hard ceilings. Transactions with an unknown
// hint (0) start optimistic in H mode.
func (w *worker) Run(sizeHint int, fn sched.TxFunc) error {
	cfg := &w.s.cfg
	w.span = w.probe.TxBegin()
	w.attempts = 0
	// Every transaction starts at the minimum backoff, however the
	// previous one ended (commit in any mode, user stop, cancel, panic).
	w.loop.Backoff().Reset()
	if sizeHint > cfg.OMaxHint {
		return w.runL(fn, obs.ModeL)
	}
	rc := &w.route[sizeClass(sizeHint)]
	skipH, skipO := rc.plan()
	triedH := sizeHint <= cfg.HMaxHint && !skipH
	if triedH {
		done, err := w.loop.Rung(w.ctx, w.h, obs.ModeH, w.span, &w.attempts, fn)
		rc.noteH(!done && w.h.tx.LastAbort() == htm.AbortCapacity)
		if done {
			return err
		}
	}
	// A transaction that never entered O commits as class L, whether or
	// not it tried H first.
	class := obs.ModeL
	if !skipO {
		if triedH {
			w.s.Metrics().Transition(obs.TransHO)
		}
		if err := w.ctxErr(); err != nil {
			w.probe.TxStop(obs.ModeO, sched.StopReason(err))
			return err
		}
		done, err := false, error(nil)
		if w.o.enter() {
			done, err = w.loop.Rung(w.ctx, w.o, obs.ModeO, w.span, &w.attempts, fn)
		}
		rc.noteO(!done)
		if done {
			return err
		}
		w.s.Metrics().Transition(obs.TransOL)
		class = obs.ModeO2L
	}
	if err := w.ctxErr(); err != nil {
		w.probe.TxStop(class, sched.StopReason(err))
		return err
	}
	return w.runL(fn, class)
}

// RunCtx implements sched.Worker: Run, but returning ctx.Err()
// promptly once ctx is cancelled — between retries in H and O mode and
// from inside L-mode lock-wait loops.
func (w *worker) RunCtx(ctx context.Context, sizeHint int, fn sched.TxFunc) error {
	if ctx == nil || ctx.Done() == nil {
		return w.Run(sizeHint, fn)
	}
	// Polling Done is two loads; ctx.Err() takes the context's mutex,
	// which every worker of a drain would then write once per transaction.
	select {
	case <-ctx.Done():
		return ctx.Err()
	default:
	}
	w.ctx = ctx
	defer func() { w.ctx = nil }()
	return w.Run(sizeHint, fn)
}

func (w *worker) ctxErr() error {
	if w.ctx == nil {
		return nil
	}
	return w.ctx.Err()
}

// AbandonInFlight implements sched.Abandoner: after a panic escaped an
// attempt (e.g. from inside a commit window), lower the commit-gate flag,
// release every lock the worker may still hold, its commits' and L
// mode's, take an interrupted O commit out of lState's count (left up,
// it would make every later H attempt a subscribed one for the life of
// the System) and roll back L-mode in-place writes (every transaction
// starts its backoff afresh). The worker is then safe to pool again.
func (w *worker) AbandonInFlight() bool {
	// A panic inside the H commit window left the gate flag up; every
	// later L transaction would wait on it forever.
	w.c.committing.Store(0)
	w.o.abandon()
	w.l.AbandonInFlight()
	return true
}

// TrimScratch implements sched.Trimmer: a mode context is empty between
// transactions and as large as the biggest one it ran, so one that a giant
// transaction grew is rebuilt. The worker's identity — id, gate flag,
// probe, router, backoff — is what the pool keeps it for and stays.
func (w *worker) TrimScratch() {
	if cap(w.h.subs)+w.h.vstate.Cap() > sched.ScratchKeep {
		w.h = newHCtx(w)
	}
	if cap(w.o.reads)+w.o.readIdx.Cap()+cap(w.o.writes)+w.o.writeIdx.Cap() > sched.ScratchKeep {
		w.o = newOCtx(w)
	}
	w.l.TrimScratch()
}

// lockWriteSet takes the exclusive locks of vs, sorted ascending, in
// order, into w.held: the write set of an H or O commit. A vertex whose
// lock is held is polled up to polls times with a sched.Spin between
// polls, recorded under reason; past that, or at once when unmoved (nil
// for none) says the vertex's stamp moved since the transaction read it,
// the commit gives up and lockWriteSet returns false. Either way the
// caller releases what was taken (unlockHeld). The wait is bounded — at
// most polls polls a vertex (H 16, O 32), so polls·len(vs) in all — but
// not wait-free, and it cannot close a cycle: taken in ascending order,
// a commit waits only for a vertex above every lock it holds, as an L
// transaction does (TPLWorker.block).
func (w *worker) lockWriteSet(vs []uint32, polls int, reason obs.WaitReason, unmoved func(v uint32, stamp uint64) bool) bool {
	locks := w.s.locks
	w.held = w.held[:0]
	for _, v := range vs {
		var sp sched.Spin
		ok := false
		for n := 1; ; n++ {
			pre := locks.Stamp(v)
			if unmoved != nil && !unmoved(v, pre) {
				break
			}
			if ok = vlock.StampFree(pre) && locks.TryExclusive(v, w.tid); ok || n == polls {
				break
			}
			sp.Pause()
		}
		sp.Done(&w.probe, reason)
		if !ok {
			return false
		}
		w.held = append(w.held, v)
	}
	return true
}

// unlockHeld releases the locks lockWriteSet took.
func (w *worker) unlockHeld() {
	for _, v := range w.held {
		w.s.locks.ReleaseExclusive(v, w.tid)
	}
	w.held = w.held[:0]
}

// awaitHCommits returns once no H commit that may have read lState before
// the caller raised it is still publishing, recording the wait on p under
// committing. A commit that raises its flag after the flag was read here
// sees the caller: it dies if its attempt is quiet and takes real locks
// otherwise.
func (s *System) awaitHCommits(p *obs.Probe) {
	var sp sched.Spin
	for _, c := range s.registered() {
		for c.committing.Load() != 0 {
			sp.Pause() // the committer may need this core
		}
	}
	sp.Done(p, obs.WaitCommitting)
}

// runL executes fn under blocking 2PL, which always commits but for a
// user error, a panic or a cancellation: the TPL worker's loop retries
// attempts whose waits were refused and records every attempt under
// class, as the rest of the transaction this worker began.
func (w *worker) runL(fn sched.TxFunc, class obs.Mode) error {
	// Announce the L transaction: from here on every H commit either
	// sees it in lState or finishes publishing before awaitHCommits
	// returns.
	w.s.lockerEnter()
	defer w.s.lockerExit()
	w.s.awaitHCommits(&w.probe)
	// L starts from the minimum backoff, on the TPL worker's loop.
	w.l.Backoff().Reset()
	_, err := w.l.Rung(w.ctx, w.l, class, w.span, &w.attempts, fn)
	return err
}
