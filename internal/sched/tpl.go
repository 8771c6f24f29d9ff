package sched

import (
	"sync"
	"sync/atomic"

	"tufast/internal/gentab"
	"tufast/internal/mem"
	"tufast/internal/obs"
	"tufast/internal/vlock"
)

// MaxThreads bounds thread ids: an id is stored in a vertex lock's 16-bit
// owner field and indexes core's worker registry.
const MaxThreads = 512

// TPL is strict two-phase locking over per-vertex reader-writer locks,
// with deadlock prevention by lock order (see block). It is both the
// paper's 2PL baseline (§III, §VI-B) and TuFast's L mode (§IV-A,
// Algorithm 3): writes go in place under exclusive locks (with an undo
// log), so optimistic readers in other modes observe the version bumps
// and the lock stamps.
type TPL struct {
	Instrumented
	Taxed
	sp    *mem.Space
	locks *vlock.Table
	name  string

	// drain is the starvation drain of every worker's loop: the
	// shared->exclusive upgrade path, which always waits below the
	// worker's top, can abort the same transaction indefinitely (every
	// retry meets fresh shared holders).
	drain sync.RWMutex

	// exclusiveOnly acquires every lock in exclusive mode (the classic
	// pessimistic configuration; read-then-update transactions otherwise
	// live on the abort-prone upgrade path). This is how 2PL "wins at
	// high contention" in the paper's Figure 7: blocking on an exclusive
	// lock is cheap, repeated upgrade aborts are not.
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

// NewTPL creates a 2PL scheduler over sp guarded by locks.
func NewTPL(sp *mem.Space, locks *vlock.Table) *TPL {
	return &TPL{sp: sp, locks: locks, name: "2PL"}
}

// Name implements Scheduler.
func (s *TPL) Name() string { return s.name }

// Worker implements Scheduler.
func (s *TPL) Worker(tid int) Worker { return s.NewWorker(tid) }

// NewWorker returns the concrete worker, recording into the scheduler's
// own metrics.
func (s *TPL) NewWorker(tid int) *TPLWorker {
	p := s.Metrics().NewProbe()
	return s.NewWorkerFor(tid, &p)
}

// NewWorkerFor returns a worker that records its transactions into probe
// instead. TuFast's core runs L mode on one, recorded in its own worker's
// probe under the transaction's class (Loop.Rung). tid must be in
// [0, MaxThreads).
func (s *TPL) NewWorkerFor(tid int, probe *obs.Probe) *TPLWorker {
	if tid < 0 || tid >= MaxThreads {
		panic("sched: TPL worker tid out of range")
	}
	w := &TPLWorker{s: s, tid: tid, held: gentab.New(6)}
	w.Loop = NewLoop(w, probe, obs.ModeL, &s.drain, uint64(tid)*0x9E3779B97F4A7C15+1)
	return w
}

// A held-table value is the hold's mode.
const (
	holdShared int32 = 1
	holdExcl   int32 = 2
)

type undoRec struct {
	addr mem.Addr
	old  uint64
}

// TPLWorker executes transactions under strict 2PL for one goroutine.
type TPLWorker struct {
	Loop
	s     *TPL
	tid   int
	held  *gentab.Table // vertex -> holdShared/holdExcl
	order []uint32
	undo  []undoRec

	// top is one more than the highest vertex the attempt holds, 0 when it
	// holds none. Vertex ids index the lock table, so v+1 cannot wrap.
	top uint32

	// dlAbort marks the in-flight attempt as aborted by a refused wait.
	dlAbort bool

	nreads, nwrites uint64
}

func (w *TPLWorker) Begin(int) bool {
	w.dlAbort = false
	w.nreads, w.nwrites = 0, 0
	return true
}

// Commit releases the locks; the fault hook sits where a crash leaves
// them held.
func (w *TPLWorker) Commit() bool {
	if w.s.faults.Load().AtCommit("L") {
		return false
	}
	w.finish(true)
	return true
}

func (w *TPLWorker) Rollback() { w.finish(false) }

func (w *TPLWorker) Ops() (reads, writes uint64) { return w.nreads, w.nwrites }

func (w *TPLWorker) Aborted(int) (obs.Reason, Next) {
	if w.dlAbort {
		return obs.ReasonDeadlock, RetryWait
	}
	return obs.ReasonConflict, RetryWait
}

// AbandonInFlight implements Abandoner: it rolls back and releases
// whatever a panic-interrupted attempt still holds (undo log first, then
// locks); the next transaction starts its backoff afresh anyway.
// Idempotent; a clean worker is a no-op.
func (w *TPLWorker) AbandonInFlight() bool {
	w.finish(false)
	return true
}

// TrimScratch implements Trimmer: the hold table, lock order and undo log
// are empty between transactions and as large as the biggest one so far.
func (w *TPLWorker) TrimScratch() {
	if w.held.Cap()+cap(w.order)+cap(w.undo) > ScratchKeep {
		w.held, w.order, w.undo = gentab.New(6), nil, nil
	}
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
		switch m, _ := w.held.Get(uint64(v)); m {
		case holdShared:
			w.s.locks.ReleaseShared(v)
		case holdExcl:
			w.s.locks.ReleaseExclusive(v, w.tid)
		}
	}
	w.order = w.order[:0]
	w.undo = w.undo[:0]
	w.held.Reset()
	w.top = 0
}

// Read implements Tx.
func (w *TPLWorker) Read(v uint32, addr mem.Addr) uint64 {
	w.s.Charge()
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
	w.s.Charge()
	w.s.faults.Load().At("L", "write")
	if m, ok := w.held.Get(uint64(v)); !ok || m != holdExcl {
		w.lockExclusive(v)
	}
	w.undo = append(w.undo, undoRec{addr: addr, old: w.s.sp.Load(addr)})
	w.s.sp.StoreVersioned(addr, val)
	w.nwrites++
}

func (w *TPLWorker) lockShared(v uint32) {
	w.block(v, func() bool { return w.s.locks.TryShared(v) })
	w.noteHold(v, holdShared)
}

func (w *TPLWorker) lockExclusive(v uint32) {
	if m, ok := w.held.Get(uint64(v)); ok && m == holdShared {
		// Shared-to-exclusive upgrade: wait until we are the sole holder.
		// v is held, so v < top and the wait is a short one.
		w.block(v, func() bool { return w.s.locks.UpgradeToExclusive(v, w.tid) })
		w.held.Put(uint64(v), holdExcl)
		return
	}
	w.block(v, func() bool { return w.s.locks.TryExclusive(v, w.tid) })
	w.noteHold(v, holdExcl)
}

// noteHold records a freshly acquired lock at the tail of order and
// raises top over it.
func (w *TPLWorker) noteHold(v uint32, mode int32) {
	w.held.Put(uint64(v), mode)
	w.order = append(w.order, v)
	if v >= w.top {
		w.top = v + 1
	}
}

// block acquires a lock of v via try, waiting on a Spin recorded under
// l_lock on the probe the worker's loop records to (its host's, for a
// hosted worker). A wait for v below top ends at its first yield point
// instead, aborting the attempt: an unbounded wait then goes only to a
// holder whose top is strictly greater, so no cycle of them can form,
// whatever order the caller locks in (H and O commits wait only for a
// vertex above every lock they hold, and only boundedly). Context
// cancellation unwinds a wait terminally via ThrowCancel, so a cancelled
// transaction stuck behind a lock returns.
func (w *TPLWorker) block(v uint32, try func() bool) {
	var sp Spin
	for !try() {
		if sp.Yields() {
			if v < w.top {
				sp.Done(w.probe, obs.WaitLLock)
				w.dlAbort = true
				ThrowAbort("refused wait")
			}
			if err := w.ctxErr(); err != nil {
				sp.Done(w.probe, obs.WaitLLock)
				ThrowCancel(err)
			}
		}
		sp.Pause()
	}
	sp.Done(w.probe, obs.WaitLLock)
}
