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

// oCtx executes a transaction in O mode (paper Algorithm 2, Fig. 9):
// optimistic execution with a private write buffer, whose reads are
// chopped into emulated-HTM segments of `period` operations. Within the
// live segment, a conflicting commit anywhere aborts us at our next
// operation (the "red zone" of Fig. 9); reads of already-closed segments
// are only re-checked at final validation (the "green zone"). Each
// segment runs against the L1 capacity model, so an oversized period
// aborts exactly as an oversized hardware transaction would — that
// tension is what the adaptive period controller optimizes.
type oCtx struct {
	w *worker
	// htm counts the segments in the worker's probe.
	htm *obs.HTM

	reads    []oRead
	readIdx  *gentab.Table
	writes   []oWrite
	writeIdx *gentab.Table

	// Live segment state (the emulated open hardware transaction).
	segLines []segLine
	segSeen  *gentab.Table
	sets     [htm.CacheSets]uint8
	segOps   int
	snapshot uint64
	// period is the rung's segment length; conflicts counts its conflict
	// aborts.
	period, conflicts int

	// wvs is the commit's write set, sorted, reused across attempts.
	wvs []uint32
	// announced says that the in-flight commit is counted in
	// System.lState, so a panic escaping the commit window can be unwound
	// by abandon() without leaking it (the worker's held list has the
	// locks).
	announced bool

	// Telemetry for the adaptive controller and Fig. 15/17.
	opsInSegments uint64
	segAborted    bool
	// capacityAbort records that the last abort was a segment capacity
	// overflow (the only abort kind the period can fix).
	capacityAbort bool

	nreads, nwrites uint64
}

type oRead struct {
	v    uint32
	addr mem.Addr
	val  uint64
	line mem.Line
	ver  uint64 // line version at read time
}

type oWrite struct {
	v    uint32
	addr mem.Addr
	val  uint64
}

type segLine struct {
	line mem.Line
	ver  uint64
}

func newOCtx(w *worker) *oCtx {
	return &oCtx{
		w:        w,
		htm:      w.probe.HTM(),
		readIdx:  gentab.New(7),
		writeIdx: gentab.New(5),
		segSeen:  gentab.New(7),
	}
}

// enter starts the transaction's O rung at the period in force and
// reports whether that is at least the floor; below it the rung is skipped.
func (o *oCtx) enter() bool {
	o.period = o.w.s.period.Current()
	if o.w.s.cfg.StaticPeriod {
		o.period = o.w.s.cfg.PeriodInit
	}
	o.conflicts = 0
	return o.period >= o.w.s.cfg.PeriodFloor
}

// Begin opens an attempt at the rung's current period.
func (o *oCtx) Begin(int) bool {
	o.capacityAbort = false
	o.reads = o.reads[:0]
	o.writes = o.writes[:0]
	o.readIdx.Reset()
	o.writeIdx.Reset()
	o.nreads, o.nwrites = 0, 0
	o.segBegin()
	return true
}

// Rollback only reports the attempt's segments: writes are buffered and
// the commit window releases what it took.
func (o *oCtx) Rollback() { o.settleTelemetry() }

func (o *oCtx) Ops() (reads, writes uint64) { return o.nreads, o.nwrites }

// Aborted implements sched.Protocol with the Fig. 10 O-mode policy. Only
// a capacity overflow halves the period (the period adjustment exists
// because the segment no longer fits, §IV-D), and the halved attempt
// retries at once: a capacity abort is deterministic, and nobody has to
// get out of the way first. A conflict retries at the same period —
// shrinking the segment cannot fix it — after a wait. The rung gives up,
// and the transaction goes to L mode, below the period floor or at its
// seventh conflict.
func (o *oCtx) Aborted(int) (obs.Reason, sched.Next) {
	if o.capacityAbort {
		if o.period /= 2; o.period < o.w.s.cfg.PeriodFloor {
			return obs.ReasonCapacity, sched.GiveUp
		}
		return obs.ReasonCapacity, sched.RetryNow
	}
	if o.conflicts++; o.conflicts > 6 {
		return obs.ReasonConflict, sched.GiveUp
	}
	return obs.ReasonConflict, sched.RetryWait
}

// settleTelemetry reports this attempt's segment statistics to the
// adaptive controller, once: a failed commit's Rollback finds them
// reported.
func (o *oCtx) settleTelemetry() {
	if !o.w.s.cfg.StaticPeriod {
		o.w.s.period.Observe(o.opsInSegments, o.segAborted)
	}
	o.opsInSegments = 0
	o.segAborted = false
}

// segBegin opens a fresh emulated hardware segment (XBEGIN).
func (o *oCtx) segBegin() {
	o.segLines = o.segLines[:0]
	o.segSeen.Reset()
	clear(o.sets[:])
	o.segOps = 0
	o.snapshot = o.w.s.sp.Commits()
	o.htm.Starts.Add(1)
}

// segAbort records an aborted segment and unwinds the attempt.
func (o *oCtx) segAbort(code htm.AbortCode, reason string) {
	o.segAborted = true
	o.capacityAbort = code == htm.AbortCapacity
	o.htm.Abort(code.Reason())
	sched.ThrowAbort(reason)
}

// segTick is run on every read: NOrec early revalidation of the live
// segment, then the period boundary (XEND; XBEGIN — Algorithm 2 lines
// 27-30).
func (o *oCtx) segTick() {
	if !o.w.s.cfg.DisableEarlyAbort {
		if c := o.w.s.sp.Commits(); c != o.snapshot {
			sp := o.w.s.sp
			for i := range o.segLines {
				if sp.Meta(o.segLines[i].line) != o.segLines[i].ver {
					o.segAbort(htm.AbortConflict, "o segment conflict")
				}
			}
			o.snapshot = c
		}
	}
	o.segOps++
	o.opsInSegments++
	if o.segOps >= o.period {
		o.htm.Commits.Add(1) // segment XEND
		o.segBegin()
	}
}

// touchSeg feeds a line into the per-segment L1 capacity model.
func (o *oCtx) touchSeg(l mem.Line) {
	if _, ok := o.segSeen.Get(uint64(l)); ok {
		return
	}
	set := uint64(l) % htm.CacheSets
	if o.sets[set] >= htm.CacheWays {
		o.segAbort(htm.AbortCapacity, "o segment capacity")
	}
	o.sets[set]++
	o.segSeen.Put(uint64(l), 0)
}

// Read implements sched.Tx (Algorithm 2 lines 26-35).
func (o *oCtx) Read(v uint32, addr mem.Addr) uint64 {
	o.w.s.faults.Load().At("O", "read")
	if len(o.writes) != 0 {
		if i, ok := o.writeIdx.Get(uint64(addr)); ok {
			return o.writes[i].val // read own buffered write
		}
	}
	if i, ok := o.readIdx.Get(uint64(addr)); ok {
		o.nreads++
		return o.reads[i].val // repeatable read from the record
	}
	o.segTick()
	o.touchSeg(mem.LineOf(addr))

	locks := o.w.s.locks
	if !vlock.StampFree(locks.Stamp(v)) {
		// An exclusive holder may be writing v in place (L mode): do not
		// read dirty data.
		o.segAbort(htm.AbortConflict, "vertex locked")
	}
	val, ver, ok := o.w.s.sp.ReadConsistent(addr)
	if !ok {
		o.segAbort(htm.AbortConflict, "line locked")
	}
	l := mem.LineOf(addr)
	o.segLines = append(o.segLines, segLine{line: l, ver: ver})
	o.readIdx.Put(uint64(addr), int32(len(o.reads)))
	o.reads = append(o.reads, oRead{v: v, addr: addr, val: val, line: l, ver: ver})
	o.nreads++
	return val
}

// Write implements sched.Tx (Algorithm 2 lines 36-37): buffered privately,
// no shared access, hence no segment tick.
func (o *oCtx) Write(v uint32, addr mem.Addr, val uint64) {
	o.w.s.faults.Load().At("O", "write")
	if i, ok := o.writeIdx.Get(uint64(addr)); ok {
		o.writes[i].val = val
		o.nwrites++
		return
	}
	o.writeIdx.Put(uint64(addr), int32(len(o.writes)))
	o.writes = append(o.writes, oWrite{v: v, addr: addr, val: val})
	o.nwrites++
}

// Commit implements Algorithm 2 lines 38-49: XEND the live segment, lock
// the write vertices, verify every read, install the writes. A commit with
// writes is a locker (System.lState): it is announced from before its
// first TryExclusive until its last lock is released, on every way out.
func (o *oCtx) Commit() bool {
	o.settleTelemetry()
	// Collect and sort distinct write vertices: lockWriteSet takes them in
	// that order.
	o.wvs = o.wvs[:0]
	for i := range o.writes {
		o.wvs = append(o.wvs, o.writes[i].v)
	}
	slices.Sort(o.wvs)
	o.wvs = slices.Compact(o.wvs)
	if len(o.wvs) != 0 {
		o.announced = true
		o.w.s.lockerEnter()
	}
	// The fault hook sits inside the window, where a crash is most
	// dangerous: a count left up turns every later H attempt subscribed.
	ok := !o.w.s.faults.Load().AtCommit("O") && o.publish()
	o.leave()
	return ok
}

// publish is the commit proper; leave undoes whatever it acquired.
func (o *oCtx) publish() bool {
	o.htm.Commits.Add(1) // final segment XEND

	// A bounded wait on each lock before giving up (Silo commits do the
	// same): an instant abort on a momentarily-held lock causes
	// escalation cascades under write contention.
	if !o.w.lockWriteSet(o.wvs, 32, obs.WaitOCommit, nil) {
		return false
	}

	// Verify read access (Algorithm 2 lines 44-46): the line version must
	// be unchanged since the read (all committers — H line locks, O
	// write-backs, L in-place stores — bump line versions), the vertex
	// must not be exclusively held by a concurrent committer (the only
	// exclusive locks this worker holds are its write set's), and the
	// recorded value must still be current (the paper's value check).
	locks, sp := o.w.s.locks, o.w.s.sp
	for i := range o.reads {
		r := &o.reads[i]
		if sp.Meta(r.line) != r.ver {
			return false
		}
		if owner, held := locks.ExclusiveOwner(r.v); held && owner != o.w.tid {
			return false
		}
		if sp.Load(r.addr) != r.val {
			return false
		}
	}

	for i := range o.writes {
		sp.StoreVersioned(o.writes[i].addr, o.writes[i].val)
	}
	return true
}

// leave ends the commit window: drop the locks, then the announcement.
func (o *oCtx) leave() {
	o.w.unlockHeld()
	if o.announced {
		o.announced = false
		o.w.s.lockerExit()
	}
}

// abandon releases anything an interrupted commit still holds; O-mode
// writes are buffered, so leaving the window is the whole rollback.
func (o *oCtx) abandon() { o.leave() }
