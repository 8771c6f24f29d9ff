package sched

import (
	"sync"
	"sync/atomic"

	"tufast/internal/gentab"
	"tufast/internal/mem"
	"tufast/internal/obs"
	"tufast/internal/vlock"
)

// TO is a basic timestamp-ordering scheduler (§III Figure 7 baseline):
// each transaction draws a unique timestamp; reads advance the vertex's
// read timestamp; writes require the transaction to be newer than every
// earlier reader and writer, happen in place under an exclusive vertex
// lock (with undo), and advance the write timestamp. A transaction that
// arrives "too late" aborts and retries with a fresh timestamp.
type TO struct {
	Instrumented
	Taxed
	sp    *mem.Space
	locks *vlock.Table
	rts   []atomic.Uint64
	wts   []atomic.Uint64
	clock atomic.Uint64
	stats Stats

	// drain is the starvation escape hatch: timestamp ordering livelocks
	// a large writer whose footprint is continuously touched by newer
	// transactions (every retry draws a newer timestamp, but so does
	// everyone else). After starveLimit consecutive aborts a transaction
	// takes drain exclusively and runs alone.
	drain sync.RWMutex
}

// NewTO creates a timestamp-ordering scheduler for nVertices vertices.
func NewTO(sp *mem.Space, locks *vlock.Table, nVertices int) *TO {
	return &TO{
		sp:    sp,
		locks: locks,
		rts:   make([]atomic.Uint64, nVertices),
		wts:   make([]atomic.Uint64, nVertices),
	}
}

// Name implements Scheduler.
func (s *TO) Name() string { return "TO" }

// Stats implements Scheduler.
func (s *TO) Stats() *Stats { return &s.stats }

// Worker implements Scheduler.
func (s *TO) Worker(tid int) Worker {
	return &toWorker{
		s:     s,
		tid:   tid,
		held:  gentab.New(5),
		bo:    NewBackoff(uint64(tid)*0xD1342543DE82EF95 + 3),
		probe: s.Metrics().NewProbe(tid),
	}
}

type toWorker struct {
	s         *TO
	tid       int
	ts        uint64
	held      *gentab.Table // vertices we hold exclusively
	heldOrder []uint32
	undo      []undoRec
	bo        Backoff
	probe     obs.Probe

	nreads, nwrites uint64
}

// starveLimit is the consecutive-abort count after which a TO/H-TO
// transaction serializes itself via the drain lock.
const starveLimit = 64

// Run implements Worker.
func (w *toWorker) Run(_ int, fn TxFunc) error {
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

// casMax advances a to at least v, returning false if a already exceeds v.
func casMax(a *atomic.Uint64, v uint64) {
	for {
		cur := a.Load()
		if cur >= v || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Read implements Tx. Protocol: publish our read intent (advance rts)
// BEFORE loading, bracket the load with the vertex stamp so no writer
// held or took v's lock while we read (an older one that locks later
// sees our rts and aborts), then verify no newer writer slipped in.
func (w *toWorker) Read(v uint32, addr mem.Addr) uint64 {
	w.s.chargeTax()
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
	val := w.s.sp.Load(addr)
	if w.s.locks.Stamp(v) != s1 {
		ThrowAbort("writer during read")
	}
	if w.s.wts[v].Load() > w.ts {
		ThrowAbort("newer writer during read")
	}
	w.nreads++
	return val
}

// Write implements Tx.
func (w *toWorker) Write(v uint32, addr mem.Addr, val uint64) {
	w.s.chargeTax()
	if _, own := w.held.Get(uint64(v)); !own {
		if w.s.rts[v].Load() > w.ts || w.s.wts[v].Load() > w.ts {
			ThrowAbort("write too late")
		}
		if !w.s.locks.TryExclusive(v, w.tid) {
			ThrowAbort("write lock busy")
		}
		w.held.Put(uint64(v), 1)
		w.heldOrder = append(w.heldOrder, v)
		// Re-check under the lock: a reader/writer may have advanced the
		// timestamps between our check and the acquisition.
		if w.s.rts[v].Load() > w.ts || w.s.wts[v].Load() > w.ts {
			ThrowAbort("write too late (post-lock)")
		}
		casMax(&w.s.wts[v], w.ts)
	}
	w.undo = append(w.undo, undoRec{addr: addr, old: w.s.sp.Load(addr)})
	w.s.sp.StoreVersioned(addr, val)
	w.nwrites++
}
