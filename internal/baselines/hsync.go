package baselines

import (
	"sync"
	"sync/atomic"

	"tufast/internal/gentab"
	"tufast/internal/htm"
	"tufast/internal/mem"
	"tufast/internal/obs"
	"tufast/internal/sched"
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
	sched.Instrumented
	sched.Taxed
	sp      *mem.Space
	retries int

	// seq is the NOrec global sequence lock: odd while a software commit
	// is in its validate+write-back section. Hardware transactions
	// subscribe to it and abort when it moves.
	seq atomic.Uint64
	mu  sync.Mutex // serializes software commits (seq's writer side)
}

// NewHSync creates the hybrid; retries bounds the HTM attempts.
func NewHSync(sp *mem.Space, retries int) *HSync {
	if retries < 0 {
		retries = 0
	}
	return &HSync{sp: sp, retries: retries}
}

// Name implements sched.Scheduler.
func (s *HSync) Name() string { return "HSync" }

// Worker implements sched.Scheduler.
func (s *HSync) Worker(tid int) sched.Worker {
	p := s.Metrics().NewProbe()
	w := &hsyncWorker{s: s, tx: htm.NewTx(s.sp, p.HTM()), writeIdx: gentab.New(5)}
	w.Loop = sched.NewLoop(w, &p, obs.ModeTx, nil, uint64(tid)*0xFF51AFD7ED558CCD+13)
	return w
}

type hsyncWorker struct {
	sched.Loop
	s  *HSync
	tx *htm.Tx

	// softMode runs the attempt on the NOrec path; locked says a hardware
	// attempt found a software commit in progress and never ran.
	softMode, locked bool

	// Software (NOrec) path state.
	reads    []valRead
	writes   []occWrite
	writeIdx *gentab.Table

	nreads, nwrites uint64
}

type valRead struct {
	addr mem.Addr
	val  uint64
}

// Begin runs the first retries+1 attempts in hardware and the rest on
// NOrec. HSync is size-oblivious by design: it burns its whole hardware
// budget even on capacity aborts before falling back (recognizing
// capacity aborts and routing by size is exactly TuFast's contribution;
// giving it to the baseline would erase the comparison the paper makes).
func (w *hsyncWorker) Begin(n int) bool {
	w.nreads, w.nwrites = 0, 0
	if w.softMode = n > w.s.retries; w.softMode {
		w.reads = w.reads[:0]
		w.writes = w.writes[:0]
		w.writeIdx.Reset()
		return true
	}
	w.tx.Begin()
	seq := w.s.seq.Load()
	if w.locked = seq&1 != 0; w.locked {
		return false
	}
	w.tx.AddCheck(func() bool { return w.s.seq.Load() == seq })
	return true
}

func (w *hsyncWorker) Commit() bool {
	if w.softMode {
		return w.softCommit()
	}
	return w.tx.Commit() == htm.AbortNone
}

// Rollback has nothing to do: neither path writes before its commit.
func (w *hsyncWorker) Rollback() {}

func (w *hsyncWorker) Ops() (reads, writes uint64) { return w.nreads, w.nwrites }

func (w *hsyncWorker) Aborted(int) (obs.Reason, sched.Next) {
	switch {
	case w.softMode:
		return obs.ReasonConflict, sched.RetryWait
	case w.locked:
		return obs.ReasonLocked, sched.RetryWait
	}
	return w.tx.LastAbort().Reason(), sched.RetryWait
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

// Read implements sched.Tx.
func (w *hsyncWorker) Read(_ uint32, addr mem.Addr) uint64 {
	w.nreads++
	if w.softMode {
		w.s.Charge() // software read barrier
		if len(w.writes) != 0 {
			if i, ok := w.writeIdx.Get(uint64(addr)); ok {
				return w.writes[i].val
			}
		}
		val, _, ok := w.s.sp.ReadConsistent(addr)
		if !ok {
			sched.ThrowAbort("line locked")
		}
		w.reads = append(w.reads, valRead{addr: addr, val: val})
		return val
	}
	val, code := w.tx.Read(addr)
	if code != htm.AbortNone {
		sched.ThrowAbort("htm abort")
	}
	return val
}

// Write implements sched.Tx.
func (w *hsyncWorker) Write(_ uint32, addr mem.Addr, val uint64) {
	w.nwrites++
	if w.softMode {
		w.s.Charge() // software write barrier
		if i, ok := w.writeIdx.Get(uint64(addr)); ok {
			w.writes[i].val = val
			return
		}
		w.writeIdx.Put(uint64(addr), int32(len(w.writes)))
		w.writes = append(w.writes, occWrite{addr: addr, val: val})
		return
	}
	if w.tx.Write(addr, val) != htm.AbortNone {
		sched.ThrowAbort("htm abort")
	}
}
