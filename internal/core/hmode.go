package core

import (
	"slices"

	"tufast/internal/gentab"
	"tufast/internal/htm"
	"tufast/internal/mem"
	"tufast/internal/obs"
	"tufast/internal/sched"
	"tufast/internal/vlock"
)

// hCtx executes a transaction as one emulated hardware transaction with
// per-vertex lock integration (paper Algorithm 1):
//
//   - touching a vertex the first time "subscribes" to its lock: the
//     stamp must show no exclusive holder now and must be unchanged at
//     every validation point, so an L/O-mode writer acquiring the lock
//     aborts us — the software equivalent of the lock word sitting in
//     the hardware read set;
//   - writing a vertex records an exclusive-lock intent. On real TSX the
//     lock-word store is buffered until XEND, so nothing is visibly held
//     during execution; we emulate that by acquiring the exclusive locks
//     only inside commit (validate + publish under the line seqlocks),
//     releasing them immediately after (Algorithm 1 line 17).
//
// That is a subscribed attempt, and it is what runs while a locker is in
// flight (System.lState). An attempt that begins with no locker in flight
// runs quiet: no vertex lock is held exclusively now, and none can be
// taken without lState moving first, so the attempt subscribes to that one
// word instead — no per-vertex state at all — and dies if it ever moves.
type hCtx struct {
	w  *worker
	tx *htm.Tx

	// quiet says which kind this attempt is; lState is the word as Begin
	// read it (count 0 when quiet), killed that the watch saw it move, and
	// vchanges counts a quiet attempt's changes of vertex between
	// consecutive operations (touch).
	quiet    bool
	killed   bool
	lState   uint64
	vchanges uint32

	subs []hSub
	// vstate maps a vertex to its subscription index; lastV/lastSub cache
	// the most recent lookup (a write right after a read of the same
	// vertex is the common case).
	vstate  *gentab.Table
	lastV   uint32
	lastSub int32
	wvs     []uint32 // vertices with write intent, in first-touch order

	// check and watch are validateSubs and lockerFree bound once: a method
	// value made per attempt would allocate on the hottest path there is.
	check, watch htm.Check

	// faults is the System's injector as of Begin: loaded once per
	// attempt, not per operation.
	faults *sched.FaultInjector

	nreads, nwrites uint64
}

type hSub struct {
	v      uint32
	intent bool // the transaction writes v: exclusive-lock intent
	stamp  uint64
}

func newHCtx(w *worker) *hCtx {
	h := &hCtx{
		w:      w,
		tx:     htm.NewTx(w.s.sp, w.probe.HTM()),
		vstate: gentab.New(6),
	}
	h.check, h.watch = h.validateSubs, h.lockerFree
	return h
}

// Begin implements sched.Protocol: an H attempt always runs, quiet or
// subscribed as lState says.
func (h *hCtx) Begin(int) bool {
	h.tx.Begin()
	h.faults = h.w.s.faults.Load()
	h.nreads, h.nwrites = 0, 0
	h.killed = false
	h.lState = h.w.s.lState.Load()
	h.quiet = lockers(h.lState) == 0
	if h.quiet {
		h.w.probe.QuietBegin()
		h.vchanges = 0
		h.tx.AddCheck(h.watch)
		return true
	}
	h.subs = h.subs[:0]
	h.wvs = h.wvs[:0]
	h.vstate.Reset()
	h.lastSub = -1
	// One hook validates every subscription (registered once to avoid a
	// closure per vertex).
	h.tx.AddCheck(h.check)
	return true
}

// Rollback has nothing to do: an aborted hardware transaction left
// nothing behind, and the commit window released what it took.
func (h *hCtx) Rollback() {}

func (h *hCtx) Ops() (reads, writes uint64) { return h.nreads, h.nwrites }

// Aborted implements sched.Protocol with Fig. 10's H-mode policy:
// transient aborts retry up to HRetries times, and a capacity abort goes
// to O mode at once ("an abort caused by capacity overflow will repeat on
// retry"). A quiet attempt a locker killed died of Algorithm 1's explicit
// abort — the subscribed word moved — wherever it was caught; caught by
// the Check inside htm.Tx, it was counted as a data conflict there (all a
// Check can say is "false"), so the worker's HTM counters are corrected.
// It retries without a wait: the retry runs subscribed beside the locker,
// so there is nobody to wait out (the rule for O's capacity aborts).
func (h *hCtx) Aborted(n int) (obs.Reason, sched.Next) {
	code := h.tx.LastAbort()
	if h.killed {
		h.w.probe.QuietKilled()
		if code == htm.AbortConflict {
			h.w.probe.HTM().Reattribute(obs.ReasonConflict, obs.ReasonExplicit)
		}
		code = htm.AbortExplicit
	}
	switch {
	case code == htm.AbortCapacity || n >= h.w.s.cfg.HRetries:
		return code.Reason(), sched.GiveUp
	case h.killed:
		return code.Reason(), sched.RetryNow
	}
	return code.Reason(), sched.RetryWait
}

// lockerFree is a quiet attempt's whole subscription: lState as Begin read
// it. touch asks before every operation, and htm.Tx runs it as a Check
// wherever it validates — which includes Commit, after the write lines are
// locked and inside the commit-gate window. That place is the one that
// makes a quiet commit sound. A locker raises lState before it takes its
// first lock, so a commit whose write lines were locked while the word
// still read the same is ahead of everything that locker validates or
// stores: an O commit finds those lines locked or their versions moved, an
// L transaction finds the gate flag up and waits (awaitHCommits). Checked
// before the line locks instead, an O commit could validate its read of a
// line this commit then writes while this commit validated its read of a
// line that one then writes — write skew.
func (h *hCtx) lockerFree() bool {
	if h.w.s.lState.Load() == h.lState {
		return true
	}
	h.killed = true
	return false
}

// touch stands in for subscribe on a quiet attempt: the one subscription
// is checked, and nothing is recorded per vertex. The lock words a real
// transaction would read still occupy cache, so the capacity model is
// charged one line per eight changes of vertex between consecutive
// operations — what subscribe charges when no vertex comes back later in
// the body.
func (h *hCtx) touch(v uint32) {
	if !h.lockerFree() {
		h.tx.Explicit()
		sched.ThrowAbort("locker arrived")
	}
	if v == h.lastV && h.vchanges != 0 {
		return
	}
	h.lastV = v
	if h.vchanges&7 == 0 {
		if h.tx.TouchExternal(lockKey(v)) != htm.AbortNone {
			sched.ThrowAbort("htm capacity")
		}
	}
	h.vchanges++
}

func (h *hCtx) validateSubs() bool {
	locks := h.w.s.locks
	for i := range h.subs {
		if locks.Stamp(h.subs[i].v) != h.subs[i].stamp {
			return false
		}
	}
	return true
}

// subscribe registers v's lock stamp on first touch, returning v's index
// in subs. A vertex exclusively locked elsewhere aborts immediately
// (Algorithm 1 "if fails then ABORT").
func (h *hCtx) subscribe(v uint32) int32 {
	if v == h.lastV && h.lastSub >= 0 {
		return h.lastSub
	}
	if idx, known := h.vstate.Get(uint64(v)); known {
		h.lastV, h.lastSub = v, idx
		return idx
	}
	st := h.w.s.locks.Stamp(v)
	if !vlock.StampFree(st) {
		h.tx.Explicit()
		sched.ThrowAbort("vertex locked")
	}
	// The subscribed lock words occupy cache too; eight share an
	// emulated line, so charge the capacity model one line per eight
	// subscriptions (vertex ids cluster under sorted adjacency).
	if len(h.subs)&7 == 0 {
		if h.tx.TouchExternal(lockKey(v)) != htm.AbortNone {
			sched.ThrowAbort("htm capacity")
		}
	}
	idx := int32(len(h.subs))
	h.vstate.Put(uint64(v), idx)
	h.subs = append(h.subs, hSub{v: v, stamp: st})
	h.lastV, h.lastSub = v, idx
	return idx
}

// Commit implements sched.Protocol: XEND inside the worker's commit-gate
// window. The flag is up from before lState is read until the publish is
// over, which is what lets an L transaction wait out every commit that
// took the fast path (System.lState). A panic in the window leaves the flag up, like
// the vertex locks the slow path may hold; AbandonInFlight lowers it.
func (h *hCtx) Commit() bool {
	gate := &h.w.c.committing
	gate.Store(1)
	ok := !h.faults.AtCommit("H") && h.publish()
	gate.Store(0)
	return ok
}

// publish commits the hardware transaction. A quiet attempt's Commit
// re-checks lState itself (lockerFree). A subscribed one reads it here:
// while a locker is in flight, the write-intent vertex locks are acquired
// for real (lockWriteSet: 16 polls a vertex, sorted order; a vertex whose
// stamp moved since it was touched gives up at once) so L's plain reads
// stay excluded; otherwise the emulated HTM's line locks already make
// validate+publish atomic and the vertex locks are skipped — the software
// analogue of TSX buffering the lock-word stores (they would never become
// globally visible on the fast path).
func (h *hCtx) publish() bool {
	if h.quiet || len(h.wvs) == 0 || lockers(h.w.s.lState.Load()) == 0 {
		return h.tx.Commit() == htm.AbortNone
	}
	slices.Sort(h.wvs)
	if !h.w.lockWriteSet(h.wvs, 16, obs.WaitHCommit, h.subUnmoved) {
		h.w.unlockHeld()
		h.tx.Explicit()
		return false
	}
	// Our own acquisitions moved the stamps; retarget the subscriptions
	// so validateSubs keeps passing while we hold the locks.
	for _, v := range h.wvs {
		idx, _ := h.vstate.Get(uint64(v))
		h.subs[idx].stamp = vlock.StampAfterExclusive(h.subs[idx].stamp, h.w.tid)
	}
	ok := h.tx.Commit() == htm.AbortNone
	h.w.unlockHeld()
	return ok
}

// subUnmoved reports whether v's lock stamp still reads what the attempt
// subscribed to: if not, someone committed to v since it was touched.
func (h *hCtx) subUnmoved(v uint32, stamp uint64) bool {
	idx, _ := h.vstate.Get(uint64(v))
	return h.subs[idx].stamp == stamp
}

// Read implements sched.Tx (Algorithm 1 lines 5-9).
func (h *hCtx) Read(v uint32, addr mem.Addr) uint64 {
	h.faults.At("H", "read")
	if h.quiet {
		h.touch(v)
	} else {
		h.subscribe(v)
	}
	val, code := h.tx.Read(addr)
	if code != htm.AbortNone {
		sched.ThrowAbort("htm abort")
	}
	h.nreads++
	return val
}

// Write implements sched.Tx (Algorithm 1 lines 10-14): subscribe, record
// the exclusive intent, buffer the store.
func (h *hCtx) Write(v uint32, addr mem.Addr, val uint64) {
	h.faults.At("H", "write")
	if h.quiet {
		h.touch(v)
	} else if sub := &h.subs[h.subscribe(v)]; !sub.intent {
		sub.intent = true
		h.wvs = append(h.wvs, v)
	}
	if h.tx.Write(addr, val) != htm.AbortNone {
		sched.ThrowAbort("htm abort")
	}
	h.nwrites++
}

// lockKey maps a vertex to a pseudo cache-line key for the capacity
// model: vlock words are 8 bytes, so 8 locks share an emulated line.
func lockKey(v uint32) uint64 { return uint64(v) / mem.WordsPerLine }
