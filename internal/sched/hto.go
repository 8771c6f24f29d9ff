package sched

import (
	"sync"
	"sync/atomic"

	"tufast/internal/gentab"
	"tufast/internal/htm"
	"tufast/internal/mem"
	"tufast/internal/obs"
	"tufast/internal/vlock"
)

// HTO is an H-TO-like scheduler (§VI-B, citing the HTM-accelerated
// timestamp ordering of [10]): classic timestamp ordering whose reads are
// additionally monitored in fixed-length HTM segments, so a conflicting
// commit aborts the transaction at its next operation instead of
// poisoning the rest of the execution. The segment length is a fixed
// parameter (it has no TuFast-style adaptation — that is the point of the
// comparison).
type HTO struct {
	Instrumented
	Taxed
	sp       *mem.Space
	locks    *vlock.Table
	rts      []atomic.Uint64
	wts      []atomic.Uint64
	clock    atomic.Uint64
	period   int
	stats    Stats
	HTMStats htm.Stats

	// drain is the starvation escape hatch (see TO.drain).
	drain sync.RWMutex
}

// NewHTO creates the scheduler; period is the HTM segment length in
// operations (the paper's H-TO uses a fixed one; 1000 is our default
// elsewhere).
func NewHTO(sp *mem.Space, locks *vlock.Table, nVertices, period int) *HTO {
	if period < 1 {
		period = 1000
	}
	return &HTO{
		sp:     sp,
		locks:  locks,
		rts:    make([]atomic.Uint64, nVertices),
		wts:    make([]atomic.Uint64, nVertices),
		period: period,
	}
}

// Name implements Scheduler.
func (s *HTO) Name() string { return "H-TO" }

// Stats implements Scheduler.
func (s *HTO) Stats() *Stats { return &s.stats }

// Worker implements Scheduler.
func (s *HTO) Worker(tid int) Worker {
	return &htoWorker{
		s:     s,
		tid:   tid,
		held:  gentab.New(5),
		bo:    NewBackoff(uint64(tid)*0xC2B2AE3D27D4EB4F + 17),
		probe: s.Metrics().NewProbe(tid),
	}
}

type htoWorker struct {
	s         *HTO
	tid       int
	ts        uint64
	held      *gentab.Table
	heldOrder []uint32
	undo      []undoRec
	bo        Backoff
	probe     obs.Probe

	// HTM-segment emulation state: reads of the current segment are
	// revalidated when the global commit clock moves.
	segReads  []readRec
	segSeen   *gentab.Table
	segOps    int
	snapshot  uint64
	segAborts uint64

	nreads, nwrites uint64
}

// Run implements Worker.
func (w *htoWorker) Run(_ int, fn TxFunc) error {
	sp := w.probe.TxBegin(0)
	consecutive := 0
	for {
		exclusive := consecutive >= starveLimit
		if exclusive {
			w.s.drain.Lock()
		} else {
			w.s.drain.RLock()
		}
		w.ts = w.s.clock.Add(1)
		w.segBegin()
		err, ok := RunAttempt(w, fn)
		unlock := func() {
			if exclusive {
				w.s.drain.Unlock()
			} else {
				w.s.drain.RUnlock()
			}
		}
		if ok && err == nil {
			w.finish(true)
			unlock()
			w.s.stats.Commits.Add(1)
			w.s.stats.Reads.Add(w.nreads)
			w.s.stats.Writes.Add(w.nwrites)
			w.probe.TxCommit(obs.ModeTx, uint32(consecutive), sp)
			w.nreads, w.nwrites = 0, 0
			w.bo.Reset()
			return nil
		}
		w.finish(false)
		unlock()
		if ok {
			w.s.stats.NoteUserStop(err)
			w.probe.TxStop(obs.ModeTx, StopReason(err), uint32(consecutive))
			w.nreads, w.nwrites = 0, 0
			return err
		}
		w.s.stats.Aborts.Add(1)
		w.probe.TxAbort(obs.ModeTx, obs.ReasonConflict)
		w.nreads, w.nwrites = 0, 0
		consecutive++
		w.bo.Wait()
	}
}

func (w *htoWorker) segBegin() {
	if w.segSeen == nil {
		w.segSeen = gentab.New(6)
	}
	w.segReads = w.segReads[:0]
	w.segSeen.Reset()
	w.segOps = 0
	w.snapshot = w.s.sp.Commits()
	w.s.HTMStats.Starts.Add(1)
}

// segOp ticks the segment forward: revalidate segment reads if the global
// clock moved, and close the segment at the period boundary (XEND+XBEGIN).
func (w *htoWorker) segOp() {
	if c := w.s.sp.Commits(); c != w.snapshot {
		for i := range w.segReads {
			if w.s.sp.Meta(w.segReads[i].line) != w.segReads[i].ver {
				w.s.HTMStats.AbortConflicts.Add(1)
				w.segAborts++
				ThrowAbort("hto segment conflict")
			}
		}
		w.snapshot = c
	}
	w.segOps++
	if w.segOps >= w.s.period {
		w.s.HTMStats.Commits.Add(1)
		w.segBegin()
	}
}

func (w *htoWorker) finish(commit bool) {
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

// Read implements Tx with the TO read rule plus segment monitoring.
func (w *htoWorker) Read(v uint32, addr mem.Addr) uint64 {
	w.s.chargeTax() // the TO bookkeeping is a software barrier even with HTM assist
	w.segOp()
	if _, own := w.held.Get(uint64(v)); own {
		w.nreads++
		return w.s.sp.Load(addr)
	}
	if w.s.wts[v].Load() > w.ts {
		ThrowAbort("read too late")
	}
	casMax(&w.s.rts[v], w.ts)
	s1 := w.s.locks.Stamp(v)
	if !vlock.StampFree(s1) {
		ThrowAbort("dirty read")
	}
	val, ver, okc := w.s.sp.ReadConsistent(addr)
	if !okc {
		ThrowAbort("line locked")
	}
	if w.s.locks.Stamp(v) != s1 {
		ThrowAbort("writer during read")
	}
	if w.s.wts[v].Load() > w.ts {
		ThrowAbort("newer writer during read")
	}
	l := mem.LineOf(addr)
	if _, seen := w.segSeen.Get(uint64(l)); !seen {
		w.segSeen.Put(uint64(l), int32(len(w.segReads)))
		w.segReads = append(w.segReads, readRec{line: l, ver: ver})
	}
	w.nreads++
	return val
}

// Write implements Tx with the TO write rule.
func (w *htoWorker) Write(v uint32, addr mem.Addr, val uint64) {
	w.s.chargeTax()
	w.segOp()
	if _, own := w.held.Get(uint64(v)); !own {
		if w.s.rts[v].Load() > w.ts || w.s.wts[v].Load() > w.ts {
			ThrowAbort("write too late")
		}
		if !w.s.locks.TryExclusive(v, w.tid) {
			ThrowAbort("write lock busy")
		}
		w.held.Put(uint64(v), 1)
		w.heldOrder = append(w.heldOrder, v)
		if w.s.rts[v].Load() > w.ts || w.s.wts[v].Load() > w.ts {
			ThrowAbort("write too late (post-lock)")
		}
		casMax(&w.s.wts[v], w.ts)
	}
	w.undo = append(w.undo, undoRec{addr: addr, old: w.s.sp.Load(addr)})
	w.s.sp.StoreVersioned(addr, val)
	// Our own in-place store bumped the line version; refresh any segment
	// read record for that line or the next segTick would treat our own
	// write as a foreign conflict and self-abort forever.
	l := mem.LineOf(addr)
	if i, seen := w.segSeen.Get(uint64(l)); seen {
		w.segReads[i].ver = w.s.sp.Meta(l)
	}
	w.nwrites++
}
