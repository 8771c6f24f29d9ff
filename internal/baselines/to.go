package baselines

import (
	"sync"
	"sync/atomic"

	"tufast/internal/gentab"
	"tufast/internal/mem"
	"tufast/internal/obs"
	"tufast/internal/sched"
	"tufast/internal/vlock"
)

// TO is a basic timestamp-ordering scheduler (§III Figure 7 baseline):
// each transaction draws a unique timestamp; reads advance the vertex's
// read timestamp; writes require the transaction to be newer than every
// earlier reader and writer, happen in place under an exclusive vertex
// lock (with undo), and advance the write timestamp. A transaction that
// arrives "too late" aborts and retries with a fresh timestamp. With a
// segment period it is H-TO (NewHTO).
type TO struct {
	sched.Instrumented
	sched.Taxed
	sp    *mem.Space
	locks *vlock.Table
	rts   []atomic.Uint64
	wts   []atomic.Uint64
	clock atomic.Uint64
	name  string

	// period is H-TO's HTM segment length in operations; 0 is plain TO.
	period int

	// drain is the starvation drain of every worker's loop: timestamp
	// ordering aborts a large writer whose footprint newer transactions
	// keep touching (every retry draws a newer timestamp, but so does
	// everyone else).
	drain sync.RWMutex
}

// NewTO creates a timestamp-ordering scheduler for nVertices vertices.
func NewTO(sp *mem.Space, locks *vlock.Table, nVertices int) *TO {
	return &TO{
		sp:    sp,
		locks: locks,
		rts:   make([]atomic.Uint64, nVertices),
		wts:   make([]atomic.Uint64, nVertices),
		name:  "TO",
	}
}

// NewHTO creates an H-TO-like scheduler (§VI-B, citing the
// HTM-accelerated timestamp ordering of [10]): timestamp ordering whose
// reads are additionally monitored in HTM segments of period operations,
// so a conflicting commit aborts the transaction at its next operation
// instead of poisoning the rest of the execution. The period is fixed —
// it has no TuFast-style adaptation, which is the point of the comparison
// — and defaults to 1000.
func NewHTO(sp *mem.Space, locks *vlock.Table, nVertices, period int) *TO {
	if period < 1 {
		period = 1000
	}
	s := NewTO(sp, locks, nVertices)
	s.period, s.name = period, "H-TO"
	return s
}

// Name implements sched.Scheduler.
func (s *TO) Name() string { return s.name }

// Worker implements sched.Scheduler.
func (s *TO) Worker(tid int) sched.Worker {
	w := &toWorker{s: s, tid: tid, held: gentab.New(5)}
	p := s.Metrics().NewProbe()
	seed := uint64(tid)*0xD1342543DE82EF95 + 3
	if s.period > 0 {
		w.seg = &segment{s: s, htm: p.HTM(), seen: gentab.New(6)}
		seed = uint64(tid)*0xC2B2AE3D27D4EB4F + 17
	}
	w.Loop = sched.NewLoop(w, &p, obs.ModeTx, &s.drain, seed)
	return w
}

type toWorker struct {
	sched.Loop
	s         *TO
	tid       int
	ts        uint64
	held      *gentab.Table // vertices we hold exclusively
	heldOrder []uint32
	undo      []undoRec
	// seg is H-TO's segment monitor; nil under plain TO.
	seg *segment

	nreads, nwrites uint64
}

func (w *toWorker) Begin(int) bool {
	w.ts = w.s.clock.Add(1)
	w.nreads, w.nwrites = 0, 0
	if w.seg != nil {
		w.seg.begin()
	}
	return true
}

func (w *toWorker) Commit() bool {
	w.finish(true)
	return true
}

func (w *toWorker) Rollback() { w.finish(false) }

func (w *toWorker) Ops() (reads, writes uint64) { return w.nreads, w.nwrites }

func (w *toWorker) Aborted(int) (obs.Reason, sched.Next) { return obs.ReasonConflict, sched.RetryWait }

func (w *toWorker) finish(commit bool) {
	if !commit {
		for i := len(w.undo) - 1; i >= 0; i-- {
			w.s.sp.StoreVersioned(w.undo[i].addr, w.undo[i].old)
		}
	}
	for _, v := range w.heldOrder {
		w.s.locks.ReleaseExclusive(v, w.tid)
	}
	w.heldOrder = w.heldOrder[:0]
	w.undo = w.undo[:0]
	w.held.Reset()
}

type undoRec struct {
	addr mem.Addr
	old  uint64
}

// casMax advances a to at least v, returning false if a already exceeds v.
func casMax(a *atomic.Uint64, v uint64) {
	for {
		cur := a.Load()
		if cur >= v || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Read implements sched.Tx. Protocol: publish our read intent (advance rts)
// BEFORE loading, bracket the load with the vertex stamp so no writer
// held or took v's lock while we read (an older one that locks later
// sees our rts and aborts), then verify no newer writer slipped in.
// H-TO reads the line consistently and records it in the segment.
func (w *toWorker) Read(v uint32, addr mem.Addr) uint64 {
	w.s.Charge() // the TO bookkeeping is a software barrier even with HTM assist
	if w.seg != nil {
		w.seg.op()
	}
	if _, own := w.held.Get(uint64(v)); own {
		w.nreads++
		return w.s.sp.Load(addr)
	}
	if w.s.wts[v].Load() > w.ts {
		sched.ThrowAbort("read too late")
	}
	casMax(&w.s.rts[v], w.ts)
	s1 := w.s.locks.Stamp(v)
	if !vlock.StampFree(s1) {
		sched.ThrowAbort("dirty read")
	}
	var val, ver uint64
	var ok bool
	if w.seg == nil {
		val = w.s.sp.Load(addr)
	} else if val, ver, ok = w.s.sp.ReadConsistent(addr); !ok {
		sched.ThrowAbort("line locked")
	}
	if w.s.locks.Stamp(v) != s1 {
		sched.ThrowAbort("writer during read")
	}
	if w.s.wts[v].Load() > w.ts {
		sched.ThrowAbort("newer writer during read")
	}
	if w.seg != nil {
		w.seg.read(mem.LineOf(addr), ver)
	}
	w.nreads++
	return val
}

// Write implements sched.Tx.
func (w *toWorker) Write(v uint32, addr mem.Addr, val uint64) {
	w.s.Charge()
	if w.seg != nil {
		w.seg.op()
	}
	if _, own := w.held.Get(uint64(v)); !own {
		if w.s.rts[v].Load() > w.ts || w.s.wts[v].Load() > w.ts {
			sched.ThrowAbort("write too late")
		}
		if !w.s.locks.TryExclusive(v, w.tid) {
			sched.ThrowAbort("write lock busy")
		}
		w.held.Put(uint64(v), 1)
		w.heldOrder = append(w.heldOrder, v)
		// Re-check under the lock: a reader/writer may have advanced the
		// timestamps between our check and the acquisition.
		if w.s.rts[v].Load() > w.ts || w.s.wts[v].Load() > w.ts {
			sched.ThrowAbort("write too late (post-lock)")
		}
		casMax(&w.s.wts[v], w.ts)
	}
	w.undo = append(w.undo, undoRec{addr: addr, old: w.s.sp.Load(addr)})
	w.s.sp.StoreVersioned(addr, val)
	if w.seg != nil {
		w.seg.wrote(mem.LineOf(addr))
	}
	w.nwrites++
}

// segment is H-TO's HTM segment monitor: reads of the open segment are
// revalidated whenever the global commit clock moves, and the segment
// closes (XEND; XBEGIN) every period operations. It counts the segments
// in its worker's probe.
type segment struct {
	s        *TO
	htm      *obs.HTM
	reads    []readRec
	seen     *gentab.Table
	ops      int
	snapshot uint64
}

func (g *segment) begin() {
	g.reads = g.reads[:0]
	g.seen.Reset()
	g.ops = 0
	g.snapshot = g.s.sp.Commits()
	g.htm.Starts.Add(1)
}

// op ticks the segment forward before every operation.
func (g *segment) op() {
	if c := g.s.sp.Commits(); c != g.snapshot {
		for i := range g.reads {
			if g.s.sp.Meta(g.reads[i].line) != g.reads[i].ver {
				g.htm.Abort(obs.ReasonConflict)
				sched.ThrowAbort("hto segment conflict")
			}
		}
		g.snapshot = c
	}
	g.ops++
	if g.ops >= g.s.period {
		g.htm.Commits.Add(1)
		g.begin()
	}
}

// read records line l, read at version ver, on its first read in the
// segment.
func (g *segment) read(l mem.Line, ver uint64) {
	if _, seen := g.seen.Get(uint64(l)); !seen {
		g.seen.Put(uint64(l), int32(len(g.reads)))
		g.reads = append(g.reads, readRec{line: l, ver: ver})
	}
}

// wrote refreshes the record of a line the transaction's own in-place
// store just bumped, or the next op would take that write for a foreign
// conflict and self-abort forever.
func (g *segment) wrote(l mem.Line) {
	if i, seen := g.seen.Get(uint64(l)); seen {
		g.reads[i].ver = g.s.sp.Meta(l)
	}
}
