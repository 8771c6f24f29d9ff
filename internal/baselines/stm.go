package baselines

import (
	"tufast/internal/gentab"
	"tufast/internal/mem"
	"tufast/internal/obs"
	"tufast/internal/sched"
)

// STM is a TinySTM/TL2-style word-based software transactional memory
// (§VI-A integrates TinySTM "by replacing all hardware instructions by
// software counterparts"). Writes take their cache line's seqlock eagerly
// (encounter-time locking) and buffer the value; reads record line
// versions and are re-validated whenever the global commit clock moves
// (time-base extension). Commit validates the read set once more, writes
// back, and releases the line locks with a version bump.
//
// STM shares the mem.Space version words with the emulated HTM, so STM
// and HTM transactions conflict correctly with each other — that is what
// lets the HSync hybrid fall back from HTM to STM.
type STM struct {
	sched.Instrumented
	sched.Taxed
	sp *mem.Space
}

// NewSTM creates an STM scheduler over sp.
func NewSTM(sp *mem.Space) *STM {
	return &STM{sp: sp}
}

// Name implements sched.Scheduler.
func (s *STM) Name() string { return "STM" }

// Worker implements sched.Scheduler.
func (s *STM) Worker(tid int) sched.Worker {
	w := &stmWorker{
		s:         s,
		readIdx:   gentab.New(6),
		writeIdx:  gentab.New(5),
		lockedIdx: gentab.New(5),
	}
	p := s.Metrics().NewProbe()
	w.Loop = sched.NewLoop(w, &p, obs.ModeTx, nil, uint64(tid)*0xBF58476D1CE4E5B9+11)
	return w
}

// Read implements Tx (vertex granularity is unused: TinySTM is word-based).
func (w *stmWorker) Read(_ uint32, addr mem.Addr) uint64 {
	w.s.Charge()
	val, ok := w.read(addr)
	if !ok {
		sched.ThrowAbort("stm read conflict")
	}
	return val
}

// Write implements sched.Tx.
func (w *stmWorker) Write(_ uint32, addr mem.Addr, val uint64) {
	w.s.Charge()
	if !w.write(addr, val) {
		sched.ThrowAbort("stm write conflict")
	}
}

// stmWorker is the encounter-time-locking write-back transaction
// descriptor of one worker.
type stmWorker struct {
	sched.Loop
	s  *STM
	rv uint64 // read validity clock (TL2 time base)

	reads   []readRec
	readIdx *gentab.Table

	writes   []occWrite // reuse shape: v unused
	writeIdx *gentab.Table

	lockedLines []lockedLine
	lockedIdx   *gentab.Table

	nreads int
}

type readRec struct {
	line mem.Line
	ver  uint64
}

type lockedLine struct {
	line mem.Line
	from uint64 // meta value when locked (even)
}

func (w *stmWorker) Begin(int) bool {
	w.rv = w.s.sp.Commits()
	w.reads = w.reads[:0]
	w.writes = w.writes[:0]
	w.lockedLines = w.lockedLines[:0]
	w.readIdx.Reset()
	w.writeIdx.Reset()
	w.lockedIdx.Reset()
	w.nreads = 0
	return true
}

func (w *stmWorker) Ops() (reads, writes uint64) {
	return uint64(w.nreads), uint64(len(w.writes))
}

func (w *stmWorker) Aborted(int) (obs.Reason, sched.Next) { return obs.ReasonConflict, sched.RetryWait }

// extend revalidates the read set against current line versions, allowing
// the time base to advance (TL2 timestamp extension).
func (w *stmWorker) extend() bool {
	for i := range w.reads {
		r := &w.reads[i]
		m := w.s.sp.Meta(r.line)
		if m != r.ver {
			if j, ok := w.lockedIdx.Get(uint64(r.line)); ok && w.lockedLines[j].from == r.ver {
				continue // we hold the line lock ourselves
			}
			return false
		}
	}
	w.rv = w.s.sp.Commits()
	return true
}

func (w *stmWorker) read(addr mem.Addr) (uint64, bool) {
	if len(w.writes) != 0 {
		if i, ok := w.writeIdx.Get(uint64(addr)); ok {
			return w.writes[i].val, true
		}
	}
	w.nreads++
	l := mem.LineOf(addr)
	if _, ok := w.lockedIdx.Get(uint64(l)); ok {
		// We hold this line's lock (wrote a neighbouring word): the
		// shared value is still the pre-transaction one; safe to load.
		return w.s.sp.Load(addr), true
	}
	if c := w.s.sp.Commits(); c != w.rv {
		if !w.extend() {
			return 0, false
		}
	}
	val, ver, ok := w.s.sp.ReadConsistent(addr)
	if !ok {
		return 0, false
	}
	if i, seen := w.readIdx.Get(uint64(l)); seen {
		if w.reads[i].ver != ver {
			return 0, false
		}
		return val, true
	}
	w.readIdx.Put(uint64(l), int32(len(w.reads)))
	w.reads = append(w.reads, readRec{line: l, ver: ver})
	return val, true
}

func (w *stmWorker) write(addr mem.Addr, val uint64) bool {
	l := mem.LineOf(addr)
	if _, ok := w.lockedIdx.Get(uint64(l)); !ok {
		// Encounter-time lock: take the line's seqlock now; a concurrent
		// reader or committer of this line will conflict immediately.
		m := w.s.sp.Meta(l)
		if m&1 != 0 || !w.s.sp.TryLockLine(l, m) {
			return false
		}
		// If we read this line earlier, the version must not have moved.
		if i, seen := w.readIdx.Get(uint64(l)); seen && w.reads[i].ver != m {
			w.s.sp.RevertLine(l, m|1)
			return false
		}
		w.lockedIdx.Put(uint64(l), int32(len(w.lockedLines)))
		w.lockedLines = append(w.lockedLines, lockedLine{line: l, from: m})
	}
	if i, ok := w.writeIdx.Get(uint64(addr)); ok {
		w.writes[i].val = val
		return true
	}
	w.writeIdx.Put(uint64(addr), int32(len(w.writes)))
	w.writes = append(w.writes, occWrite{addr: addr, val: val})
	return true
}

func (w *stmWorker) Commit() bool {
	if len(w.writes) == 0 {
		return w.extend()
	}
	if !w.extend() {
		w.releaseLocks(false)
		return false
	}
	for i := range w.writes {
		w.s.sp.Store(w.writes[i].addr, w.writes[i].val)
	}
	w.releaseLocks(true)
	w.s.sp.BumpCommits()
	return true
}

func (w *stmWorker) Rollback() {
	w.releaseLocks(false)
}

func (w *stmWorker) releaseLocks(publish bool) {
	for _, ll := range w.lockedLines {
		if publish {
			w.s.sp.UnlockLine(ll.line, ll.from|1)
		} else {
			w.s.sp.RevertLine(ll.line, ll.from|1)
		}
	}
	w.lockedLines = w.lockedLines[:0]
	w.lockedIdx.Reset()
}
