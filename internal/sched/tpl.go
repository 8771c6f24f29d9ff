package sched

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"tufast/internal/deadlock"
	"tufast/internal/gentab"
	"tufast/internal/mem"
	"tufast/internal/obs"
	"tufast/internal/vlock"
)

// TPL is strict two-phase locking over per-vertex reader-writer locks,
// with pluggable deadlock handling (detection, ordered prevention, or
// no-wait restart). It is both the paper's 2PL baseline (§III, §VI-B) and
// TuFast's L mode (§IV-A, Algorithm 3): writes go in place under
// exclusive locks (with an undo log), so optimistic readers in other
// modes observe the version bumps and the lock stamps.
type TPL struct {
	Instrumented
	Taxed
	sp    *mem.Space
	locks *vlock.Table
	det   *deadlock.Detector
	mode  deadlock.Mode
	stats Stats
	name  string

	// drain is the starvation escape hatch: under extreme contention the
	// shared->exclusive upgrade path can deadlock-victim the same
	// transaction indefinitely (every retry meets fresh shared holders).
	// After starveLimit consecutive aborts a transaction runs alone.
	drain sync.RWMutex

	// exclusiveOnly acquires every lock in exclusive mode (the classic
	// pessimistic configuration; read-then-update transactions otherwise
	// live on the deadlock-prone upgrade path). This is how 2PL "wins at
	// high contention" in the paper's Figure 7: blocking on an exclusive
	// lock is cheap, repeated upgrade deadlocks are not.
	exclusiveOnly bool

	// faults is the deterministic fault-injection hook (tests only);
	// TPL's operations carry the "L" mode label, matching its role as
	// TuFast's L mode.
	faults atomic.Pointer[FaultInjector]
}

// SetExclusiveOnly switches every acquisition to exclusive mode.
func (s *TPL) SetExclusiveOnly(on bool) { s.exclusiveOnly = on }

// SetFaultInjector installs (or, with nil, removes) a fault injector.
func (s *TPL) SetFaultInjector(fi *FaultInjector) { s.faults.Store(fi) }

// NewTPL creates a 2PL scheduler. det may be nil unless mode is Detect.
func NewTPL(sp *mem.Space, locks *vlock.Table, det *deadlock.Detector, mode deadlock.Mode) *TPL {
	if mode == deadlock.Detect && det == nil {
		panic("sched: TPL in Detect mode requires a detector")
	}
	return &TPL{sp: sp, locks: locks, det: det, mode: mode, name: "2PL"}
}

// Name implements Scheduler.
func (s *TPL) Name() string { return s.name }

// Stats implements Scheduler.
func (s *TPL) Stats() *Stats { return &s.stats }

// Worker implements Scheduler.
func (s *TPL) Worker(tid int) Worker { return s.NewWorker(tid) }

// NewWorker returns the concrete worker.
func (s *TPL) NewWorker(tid int) *TPLWorker {
	p := s.Metrics().NewProbe(tid)
	return s.newWorker(tid, &p, false)
}

// NewHostedWorker returns a worker embedded in another scheduler's
// worker (TuFast's core uses it as the L-mode executor). The host records
// transaction outcomes itself — it alone knows the end-to-end latency and
// the O2L/L class split; per-run breakdowns stay available through
// LastOpCounts / LastAbortBreakdown — so a hosted worker records only
// what it alone sees, its backoff waits, and records them on the host's
// probe.
func (s *TPL) NewHostedWorker(tid int, host *obs.Probe) *TPLWorker {
	return s.newWorker(tid, host, true)
}

func (s *TPL) newWorker(tid int, probe *obs.Probe, hosted bool) *TPLWorker {
	return &TPLWorker{
		s:      s,
		tid:    tid,
		held:   gentab.New(6),
		bo:     NewBackoff(uint64(tid)*0x9E3779B97F4A7C15 + 1),
		probe:  probe,
		hosted: hosted,
	}
}

// A held-table value packs the hold's mode with its position in order
// (and, in Detect mode, in the detector's hold list, which grows in
// lockstep): an upgrade names its hold instead of searching for it.
const (
	holdShared int32 = 1
	holdExcl   int32 = 2
	holdMode   int32 = 3
	holdShift        = 2
)

type undoRec struct {
	addr mem.Addr
	old  uint64
}

// TPLWorker executes transactions under strict 2PL for one goroutine.
type TPLWorker struct {
	s     *TPL
	tid   int
	held  *gentab.Table // vertex -> position in order << holdShift | holdShared/holdExcl
	order []uint32
	undo  []undoRec
	bo    Backoff

	// ctx is the cancellation context of the in-flight RunCtx call (nil
	// when the transaction is not cancellable); lock-wait loops poll it.
	ctx context.Context

	probe *obs.Probe
	// hosted suppresses outcome recording on probe, which then belongs
	// to the embedding scheduler's worker (see NewHostedWorker).
	hosted bool
	// dlAbort marks the in-flight attempt as a deadlock victim so the
	// retry loop can attribute the abort.
	dlAbort bool

	nreads, nwrites           uint64
	lastReads, lastWrites     uint64
	lastRetries, lastDeadlock uint64
}

// LastOpCounts reports the committed read and write operation counts of
// the most recently finished transaction (TuFast's core attributes them
// to the L mode class).
func (w *TPLWorker) LastOpCounts() (reads, writes uint64) {
	return w.lastReads, w.lastWrites
}

// LastAbortBreakdown reports the most recently finished transaction's
// internal retries: how many attempts aborted, and how many of those
// were deadlock victims (the rest were lock conflicts). The embedding
// scheduler uses it for post-hoc abort attribution.
func (w *TPLWorker) LastAbortBreakdown() (retries, deadlocks uint64) {
	return w.lastRetries, w.lastDeadlock
}

// upgradeSpinLimit bounds shared-to-exclusive upgrade spinning in modes
// without detection; two upgraders of the same vertex deadlock otherwise.
const upgradeSpinLimit = 1 << 14

// Run implements Worker. The size hint is ignored: 2PL handles any size.
func (w *TPLWorker) Run(_ int, fn TxFunc) error {
	var sp obs.Span
	if !w.hosted {
		sp = w.probe.TxBegin(0)
	}
	consecutive := 0
	var deadlocks uint64
	for {
		w.dlAbort = false
		err, ok, committed := w.attempt(fn, consecutive >= starveLimit)
		if committed {
			w.s.stats.Commits.Add(1)
			w.s.stats.Reads.Add(w.nreads)
			w.s.stats.Writes.Add(w.nwrites)
			w.resetCounters()
			w.noteDone(uint64(consecutive), deadlocks)
			if !w.hosted {
				w.probe.TxCommit(obs.ModeL, uint32(consecutive), sp)
			}
			w.bo.Reset()
			return nil
		}
		if ok { // user abort, panic, or cancellation: do not retry
			w.s.stats.NoteUserStop(err)
			w.resetCounters()
			w.noteDone(uint64(consecutive), deadlocks)
			if !w.hosted {
				w.probe.TxStop(obs.ModeL, StopReason(err), uint32(consecutive))
			}
			w.bo.Reset()
			return err
		}
		w.s.stats.Aborts.Add(1)
		reason := obs.ReasonConflict
		if w.dlAbort {
			reason = obs.ReasonDeadlock
			deadlocks++
		}
		if !w.hosted {
			w.probe.TxAbort(obs.ModeL, reason)
		}
		w.resetCounters()
		consecutive++
		if err := w.ctxErr(); err != nil {
			w.noteDone(uint64(consecutive), deadlocks)
			if !w.hosted {
				w.probe.TxStop(obs.ModeL, obs.ReasonCancel, uint32(consecutive))
			}
			w.bo.Reset()
			return err
		}
		w.bo.WaitObserved(w.probe)
	}
}

func (w *TPLWorker) noteDone(retries, deadlocks uint64) {
	w.lastRetries, w.lastDeadlock = retries, deadlocks
}

// RunCtx implements CtxWorker: Run, but returning ctx.Err() promptly
// (with all locks released and writes rolled back) once ctx is cancelled,
// even from inside a lock-wait loop.
func (w *TPLWorker) RunCtx(ctx context.Context, sizeHint int, fn TxFunc) error {
	if ctx == nil || ctx.Done() == nil {
		return w.Run(sizeHint, fn)
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	w.ctx = ctx
	defer func() { w.ctx = nil }()
	return w.Run(sizeHint, fn)
}

func (w *TPLWorker) ctxErr() error {
	if w.ctx == nil {
		return nil
	}
	return w.ctx.Err()
}

// attempt runs one attempt under the starvation drain. The drain is
// released by defer so that a panic escaping the commit window (fault
// injection, internal bugs) cannot wedge every other worker; the vertex
// locks such a panic leaves behind are reclaimed by AbandonInFlight.
func (w *TPLWorker) attempt(fn TxFunc, exclusive bool) (err error, ok, committed bool) {
	if exclusive {
		w.s.drain.Lock()
		defer w.s.drain.Unlock()
	} else {
		w.s.drain.RLock()
		defer w.s.drain.RUnlock()
	}
	err, ok = RunAttempt(w, fn)
	if ok && err == nil {
		if w.s.faults.Load().AtCommit("L") {
			w.finish(false)
			return nil, false, false
		}
		w.finish(true)
		return nil, true, true
	}
	w.finish(false)
	return err, ok, false
}

// AbandonInFlight implements Abandoner: it rolls back and releases
// whatever a panic-interrupted attempt still holds (undo log first, then
// locks), clears the deadlock-detector state, and resets the backoff so a
// pooled reuse starts fresh. Idempotent; a clean worker is a no-op.
func (w *TPLWorker) AbandonInFlight() bool {
	w.finish(false)
	w.resetCounters()
	w.bo.Reset()
	return true
}

// TrimScratch implements Trimmer: the hold table, lock order and undo log
// are empty between transactions and as large as the biggest one so far.
func (w *TPLWorker) TrimScratch() {
	if w.held.Cap()+cap(w.order)+cap(w.undo) > ScratchKeep {
		w.held, w.order, w.undo = gentab.New(6), nil, nil
	}
}

func (w *TPLWorker) resetCounters() {
	w.lastReads, w.lastWrites = w.nreads, w.nwrites
	w.nreads, w.nwrites = 0, 0
}

// finish ends the attempt: on abort it rolls back the undo log first
// (still under the exclusive locks), then all locks are released.
func (w *TPLWorker) finish(commit bool) {
	if !commit {
		for i := len(w.undo) - 1; i >= 0; i-- {
			w.s.sp.StoreVersioned(w.undo[i].addr, w.undo[i].old)
		}
	}
	for _, v := range w.order {
		m, _ := w.held.Get(uint64(v))
		switch m & holdMode {
		case holdShared:
			w.s.locks.ReleaseShared(v)
		case holdExcl:
			w.s.locks.ReleaseExclusive(v, w.tid)
		}
	}
	if w.s.mode == deadlock.Detect {
		w.s.det.RemoveAll(w.tid)
	}
	w.order = w.order[:0]
	w.undo = w.undo[:0]
	w.held.Reset()
}

// Read implements Tx.
func (w *TPLWorker) Read(v uint32, addr mem.Addr) uint64 {
	w.s.chargeTax()
	w.s.faults.Load().At("L", "read")
	if _, ok := w.held.Get(uint64(v)); !ok {
		if w.s.exclusiveOnly {
			w.lockExclusive(v)
		} else {
			w.lockShared(v)
		}
	}
	w.nreads++
	return w.s.sp.Load(addr)
}

// Write implements Tx.
func (w *TPLWorker) Write(v uint32, addr mem.Addr, val uint64) {
	w.s.chargeTax()
	w.s.faults.Load().At("L", "write")
	if m, ok := w.held.Get(uint64(v)); !ok || m&holdMode != holdExcl {
		w.lockExclusive(v)
	}
	w.undo = append(w.undo, undoRec{addr: addr, old: w.s.sp.Load(addr)})
	w.s.sp.StoreVersioned(addr, val)
	w.nwrites++
}

func (w *TPLWorker) lockShared(v uint32) {
	w.block(v, false, func() bool { return w.s.locks.TryShared(v) })
	w.noteHold(v, holdShared)
}

func (w *TPLWorker) lockExclusive(v uint32) {
	if m, ok := w.held.Get(uint64(v)); ok && m&holdMode == holdShared {
		// Shared-to-exclusive upgrade: wait until we are the sole holder.
		w.block(v, true, func() bool { return w.s.locks.UpgradeToExclusive(v, w.tid) })
		w.held.Put(uint64(v), m&^holdMode|holdExcl)
		if w.s.mode == deadlock.Detect {
			w.s.det.UpgradeHold(w.tid, int(m>>holdShift), v)
		}
		return
	}
	w.block(v, true, func() bool { return w.s.locks.TryExclusive(v, w.tid) })
	w.noteHold(v, holdExcl)
}

// noteHold records a freshly acquired lock at the tail of order and of
// the detector's hold list.
func (w *TPLWorker) noteHold(v uint32, mode int32) {
	w.held.Put(uint64(v), int32(len(w.order))<<holdShift|mode)
	w.order = append(w.order, v)
	if w.s.mode == deadlock.Detect {
		w.s.det.AddHold(w.tid, v, mode == holdExcl)
	}
}

// block acquires a lock via try, spinning according to the deadlock mode.
// On deadlock (or no-wait failure) it unwinds the attempt; on context
// cancellation it unwinds terminally via ThrowCancel, so a cancelled
// transaction stuck behind a lock returns instead of spinning forever.
func (w *TPLWorker) block(v uint32, exclusive bool, try func() bool) {
	if try() {
		return
	}
	switch w.s.mode {
	case deadlock.NoWait:
		ThrowAbort("lock busy (no-wait)")
	case deadlock.PreventOrdered:
		for i := 0; ; i++ {
			if try() {
				return
			}
			if exclusive && i >= upgradeSpinLimit {
				// Ordered acquisition cannot order upgrades; bail out to
				// avoid upgrade-upgrade deadlock.
				ThrowAbort("upgrade stall")
			}
			if i&15 == 15 {
				if err := w.ctxErr(); err != nil {
					ThrowCancel(err)
				}
				runtime.Gosched()
			}
		}
	case deadlock.Detect:
		if err := w.s.det.BeginWait(w.tid, v, exclusive); err != nil {
			w.s.stats.Deadlocks.Add(1)
			w.dlAbort = true
			ThrowAbort("deadlock victim")
		}
		for i := 0; ; i++ {
			if try() {
				w.s.det.EndWait(w.tid)
				return
			}
			if i&15 == 15 {
				if err := w.ctxErr(); err != nil {
					w.s.det.EndWait(w.tid)
					ThrowCancel(err)
				}
				runtime.Gosched()
			}
		}
	default:
		panic("sched: unknown deadlock mode")
	}
}
