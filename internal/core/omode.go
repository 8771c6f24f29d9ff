package core

import (
	"runtime"
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
	period   int

	// Commit-phase write-vertex bookkeeping, reused across attempts.
	wvs   []uint32
	wvIdx *gentab.Table
	// held tracks the exclusive locks actually acquired by the in-flight
	// commit and announced that the commit is counted in System.lState, so
	// a panic escaping the commit window can be unwound by abandon()
	// without leaking either.
	held      []uint32
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
		wvIdx:    gentab.New(5),
	}
}

// runO drives fn through O mode with the Fig. 10 retry policy: each abort
// halves the period; below the floor the transaction escalates to L mode.
// Returns done=false for escalation.
func (w *worker) runO(fn sched.TxFunc) (done bool, err error) {
	o := w.o
	period := w.s.period.Current()
	if w.s.cfg.StaticPeriod {
		period = w.s.cfg.PeriodInit
	}
	first := true
	// Conflict aborts retry with the same period (shrinking the segment
	// cannot fix a data conflict); only capacity overflows halve it
	// (Fig. 10: the period adjustment exists because the segment no
	// longer fits, §IV-D).
	conflictBudget := 6
	for period >= w.s.cfg.PeriodFloor {
		o.begin(period)
		uerr, ok := sched.RunAttempt(o, fn)
		o.settleTelemetry()
		if ok && uerr != nil {
			w.probe.TxStop(obs.ModeO, sched.StopReason(uerr))
			return true, uerr
		}
		if ok && o.commit() {
			class := obs.ModeO
			if !first {
				class = obs.ModeOPlus
			}
			w.probe.TxCommit(class, w.attempts, w.span, o.nreads, o.nwrites)
			return true, nil
		}
		reason := obs.ReasonConflict
		if o.capacityAbort {
			reason = obs.ReasonCapacity
		}
		w.probe.TxAbort(obs.ModeO, reason)
		w.attempts++
		first = false
		if o.capacityAbort {
			period /= 2
		} else {
			conflictBudget--
			if conflictBudget < 0 {
				break
			}
		}
		if err := w.ctxErr(); err != nil {
			w.probe.TxStop(obs.ModeO, sched.StopReason(err))
			return true, err
		}
		// A capacity abort is deterministic: the halved segment fits or
		// it does not, and nobody has to get out of the way first. Only
		// a conflict is worth waiting out.
		if !o.capacityAbort {
			w.bo.WaitObserved(&w.probe)
		}
	}
	return false, nil
}

// settleTelemetry reports this attempt's segment statistics to the
// adaptive controller.
func (o *oCtx) settleTelemetry() {
	if !o.w.s.cfg.StaticPeriod {
		o.w.s.period.Observe(o.opsInSegments, o.segAborted)
	}
	o.opsInSegments = 0
	o.segAborted = false
}

func (o *oCtx) begin(period int) {
	o.capacityAbort = false
	o.reads = o.reads[:0]
	o.writes = o.writes[:0]
	o.readIdx.Reset()
	o.writeIdx.Reset()
	o.period = period
	o.nreads, o.nwrites = 0, 0
	o.segBegin()
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

// commit implements Algorithm 2 lines 38-49: XEND the live segment, lock
// the write vertices, verify every read, install the writes. A commit with
// writes is a locker (System.lState): it is announced from before its
// first TryExclusive until its last lock is released, on every way out.
func (o *oCtx) commit() bool {
	// Collect and sort distinct write vertices (order avoids needless
	// mutual aborts between O committers; try-lock keeps us wait-free).
	o.wvs = o.wvs[:0]
	o.wvIdx.Reset()
	for i := range o.writes {
		v := o.writes[i].v
		if _, ok := o.wvIdx.Get(uint64(v)); !ok {
			o.wvIdx.Put(uint64(v), int32(len(o.wvs)))
			o.wvs = append(o.wvs, v)
		}
	}
	slices.Sort(o.wvs)
	o.wvIdx.Reset() // re-key after the sort
	for i, v := range o.wvs {
		o.wvIdx.Put(uint64(v), int32(i))
	}
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

	locks := o.w.s.locks
	tid := o.w.tid
	o.held = o.held[:0]
	for _, v := range o.wvs {
		// Bounded spin before giving up (Silo commits do the same): an
		// instant abort on a momentarily-held lock causes escalation
		// cascades under write contention.
		acquired := false
		for attempt := 0; attempt < 32; attempt++ {
			if vlock.StampFree(locks.Stamp(v)) && locks.TryExclusive(v, tid) {
				o.held = append(o.held, v)
				acquired = true
				break
			}
			if attempt&7 == 7 {
				runtime.Gosched()
			}
		}
		if !acquired {
			return false
		}
	}

	// Verify read access (Algorithm 2 lines 44-46): the line version must
	// be unchanged since the read (all committers — H line locks, O
	// write-backs, L in-place stores — bump line versions), the vertex
	// must not be exclusively held by a concurrent committer, and the
	// recorded value must still be current (the paper's value check).
	sp := o.w.s.sp
	for i := range o.reads {
		r := &o.reads[i]
		if sp.Meta(r.line) != r.ver {
			return false
		}
		if _, own := o.wvIdx.Get(uint64(r.v)); !own {
			if !vlock.StampFree(locks.Stamp(r.v)) {
				return false
			}
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
	for _, v := range o.held {
		o.w.s.locks.ReleaseExclusive(v, o.w.tid)
	}
	o.held = o.held[:0]
	if o.announced {
		o.announced = false
		o.w.s.lockerExit()
	}
}

// abandon releases anything an interrupted commit still holds; O-mode
// writes are buffered, so leaving the window is the whole rollback.
func (o *oCtx) abandon() { o.leave() }
