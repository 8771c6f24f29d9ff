package sched

import (
	"sync"
	"sync/atomic"

	"tufast/internal/gentab"
	"tufast/internal/htm"
	"tufast/internal/mem"
	"tufast/internal/obs"
)

// HSync is a state-of-the-art published HyTM baseline (§VI-B): try the
// whole transaction in hardware a few times, then fall back to a
// NOrec-style software path — speculative value-logged reads, buffered
// writes, and commits serialized on a single global sequence lock that
// every hardware transaction subscribes to (the canonical hybrid-TM
// integration of Dalessandro et al.). Unlike TuFast it has no size
// routing and no chopped middle mode: on power-law graphs every big
// vertex burns its whole hardware retry budget on guaranteed capacity
// aborts and then joins the single-file software commit queue.
type HSync struct {
	Instrumented
	Taxed
	sp      *mem.Space
	retries int

	// seq is the NOrec global sequence lock: odd while a software commit
	// is in its validate+write-back section. Hardware transactions
	// subscribe to it and abort when it moves.
	seq atomic.Uint64
	mu  sync.Mutex // serializes software commits (seq's writer side)

	stats    Stats
	HTMStats htm.Stats
}

// NewHSync creates the hybrid; retries bounds the HTM attempts.
func NewHSync(sp *mem.Space, retries int) *HSync {
	if retries < 0 {
		retries = 0
	}
	return &HSync{sp: sp, retries: retries}
}

// Name implements Scheduler.
func (s *HSync) Name() string { return "HSync" }

// Stats implements Scheduler.
func (s *HSync) Stats() *Stats { return &s.stats }

// Worker implements Scheduler.
func (s *HSync) Worker(tid int) Worker {
	return &hsyncWorker{
		s:        s,
		tx:       htm.NewTx(s.sp, &s.HTMStats),
		writeIdx: gentab.New(5),
		bo:       NewBackoff(uint64(tid)*0xFF51AFD7ED558CCD + 13),
		probe:    s.Metrics().NewProbe(tid),
	}
}

type hsyncWorker struct {
	s     *HSync
	tx    *htm.Tx
	bo    Backoff
	probe obs.Probe

	// retries counts aborted attempts of the current transaction across
	// both the hardware and NOrec phases, for the retry histogram.
	retries uint32

	// Software (NOrec) path state.
	softMode bool
	reads    []valRead
	writes   []occWrite
	writeIdx *gentab.Table

	nreads, nwrites uint64
}

type valRead struct {
	addr mem.Addr
	val  uint64
}

// Run implements Worker.
func (w *hsyncWorker) Run(_ int, fn TxFunc) error {
	sp := w.probe.TxBegin(0)
	w.retries = 0
	for attempt := 0; attempt <= w.s.retries; attempt++ {
		w.softMode = false
		w.nreads, w.nwrites = 0, 0
		w.tx.Begin()
		seq := w.s.seq.Load()
		if seq&1 != 0 {
			w.s.stats.Aborts.Add(1)
			w.probe.TxAbort(obs.ModeTx, obs.ReasonLocked)
			w.retries++
			w.bo.Wait()
			continue
		}
		w.tx.AddCheck(func() bool { return w.s.seq.Load() == seq })
		err, ok := RunAttempt(w, fn)
		if ok && err != nil {
			w.s.stats.NoteUserStop(err)
			w.probe.TxStop(obs.ModeTx, StopReason(err), w.retries)
			return err
		}
		if ok && w.tx.Commit() == htm.AbortNone {
			w.s.stats.Commits.Add(1)
			w.s.stats.Reads.Add(w.nreads)
			w.s.stats.Writes.Add(w.nwrites)
			w.probe.TxCommit(obs.ModeTx, w.retries, sp)
			w.bo.Reset()
			return nil
		}
		w.s.stats.Aborts.Add(1)
		w.probe.TxAbort(obs.ModeTx, HTMReason(w.tx.LastAbort()))
		w.retries++
		// HSync is size-oblivious by design: it burns its whole retry
		// budget in hardware even on capacity aborts before falling back
		// (recognizing capacity aborts and routing by size is exactly
		// TuFast's contribution; giving it to the baseline would erase
		// the comparison the paper makes).
		w.bo.Wait()
	}
	return w.runSoft(fn, sp)
}

// runSoft executes the NOrec fallback: speculative value-logged reads,
// buffered writes, global-sequence-lock commit.
func (w *hsyncWorker) runSoft(fn TxFunc, sp obs.Span) error {
	for {
		w.softMode = true
		w.reads = w.reads[:0]
		w.writes = w.writes[:0]
		w.writeIdx.Reset()
		w.nreads, w.nwrites = 0, 0
		err, ok := RunAttempt(w, fn)
		if ok && err != nil {
			w.s.stats.NoteUserStop(err)
			w.probe.TxStop(obs.ModeTx, StopReason(err), w.retries)
			return err
		}
		if ok && w.softCommit() {
			w.s.stats.Commits.Add(1)
			w.s.stats.Reads.Add(w.nreads)
			w.s.stats.Writes.Add(w.nwrites)
			w.probe.TxCommit(obs.ModeTx, w.retries, sp)
			w.bo.Reset()
			return nil
		}
		w.s.stats.Aborts.Add(1)
		w.probe.TxAbort(obs.ModeTx, obs.ReasonConflict)
		w.retries++
		w.bo.Wait()
	}
}

// softCommit serializes on the global sequence lock, re-validates every
// read by value, and publishes.
func (w *hsyncWorker) softCommit() bool {
	w.s.mu.Lock()
	w.s.seq.Add(1) // even -> odd: hardware transactions abort
	ok := true
	for i := range w.reads {
		val, _, okc := w.s.sp.ReadConsistent(w.reads[i].addr)
		if !okc || val != w.reads[i].val {
			ok = false
			break
		}
	}
	if ok {
		for i := range w.writes {
			w.s.sp.StoreVersioned(w.writes[i].addr, w.writes[i].val)
		}
	}
	w.s.seq.Add(1) // odd -> even
	w.s.mu.Unlock()
	return ok
}

// Read implements Tx.
func (w *hsyncWorker) Read(_ uint32, addr mem.Addr) uint64 {
	w.nreads++
	if w.softMode {
		w.s.chargeTax() // software read barrier
		if len(w.writes) != 0 {
			if i, ok := w.writeIdx.Get(uint64(addr)); ok {
				return w.writes[i].val
			}
		}
		val, _, ok := w.s.sp.ReadConsistent(addr)
		if !ok {
			ThrowAbort("line locked")
		}
		w.reads = append(w.reads, valRead{addr: addr, val: val})
		return val
	}
	val, code := w.tx.Read(addr)
	if code != htm.AbortNone {
		ThrowAbort("htm abort")
	}
	return val
}

// Write implements Tx.
func (w *hsyncWorker) Write(_ uint32, addr mem.Addr, val uint64) {
	w.nwrites++
	if w.softMode {
		w.s.chargeTax() // software write barrier
		if i, ok := w.writeIdx.Get(uint64(addr)); ok {
			w.writes[i].val = val
			return
		}
		w.writeIdx.Put(uint64(addr), int32(len(w.writes)))
		w.writes = append(w.writes, occWrite{addr: addr, val: val})
		return
	}
	if w.tx.Write(addr, val) != htm.AbortNone {
		ThrowAbort("htm abort")
	}
}
