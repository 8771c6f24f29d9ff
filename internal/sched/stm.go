package sched

import (
	"tufast/internal/gentab"
	"tufast/internal/mem"
	"tufast/internal/obs"
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
	Instrumented
	Taxed
	sp    *mem.Space
	stats Stats
}

// NewSTM creates an STM scheduler over sp.
func NewSTM(sp *mem.Space) *STM {
	return &STM{sp: sp}
}

// Name implements Scheduler.
func (s *STM) Name() string { return "STM" }

// Stats implements Scheduler.
func (s *STM) Stats() *Stats { return &s.stats }

// Worker implements Scheduler.
func (s *STM) Worker(tid int) Worker {
	return &stmWorker{
		s:     s,
		tx:    newStmTx(s.sp),
		bo:    NewBackoff(uint64(tid)*0xBF58476D1CE4E5B9 + 11),
		probe: s.Metrics().NewProbe(tid),
	}
}

type stmWorker struct {
	s     *STM
	tx    *stmTx
	bo    Backoff
	probe obs.Probe
}

// Run implements Worker.
func (w *stmWorker) Run(_ int, fn TxFunc) error {
	sp := w.probe.TxBegin(0)
	var retries uint32
	for {
		w.tx.begin()
		err, ok := RunAttempt(w, fn)
		if ok && err != nil {
			w.tx.abort()
			w.s.stats.NoteUserStop(err)
			w.probe.TxStop(obs.ModeTx, StopReason(err), retries)
			return err
		}
		if ok && w.tx.commit() {
			w.s.stats.Commits.Add(1)
			w.s.stats.Reads.Add(uint64(w.tx.nreads))
			w.s.stats.Writes.Add(uint64(len(w.tx.writes)))
			w.probe.TxCommit(obs.ModeTx, retries, sp)
			w.bo.Reset()
			return nil
		}
		w.tx.abort()
		w.s.stats.Aborts.Add(1)
		w.probe.TxAbort(obs.ModeTx, obs.ReasonConflict)
		retries++
		w.bo.Wait()
	}
}

// Read implements Tx (vertex granularity is unused: TinySTM is word-based).
func (w *stmWorker) Read(_ uint32, addr mem.Addr) uint64 {
	w.s.chargeTax()
	val, ok := w.tx.read(addr)
	if !ok {
		ThrowAbort("stm read conflict")
	}
	return val
}

// Write implements Tx.
func (w *stmWorker) Write(_ uint32, addr mem.Addr, val uint64) {
	w.s.chargeTax()
	if !w.tx.write(addr, val) {
		ThrowAbort("stm write conflict")
	}
}

// stmTx is the encounter-time-locking write-back transaction descriptor.
type stmTx struct {
	sp *mem.Space
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

func newStmTx(sp *mem.Space) *stmTx {
	return &stmTx{
		sp:        sp,
		readIdx:   gentab.New(6),
		writeIdx:  gentab.New(5),
		lockedIdx: gentab.New(5),
	}
}

func (t *stmTx) begin() {
	t.rv = t.sp.Commits()
	t.reads = t.reads[:0]
	t.writes = t.writes[:0]
	t.lockedLines = t.lockedLines[:0]
	t.readIdx.Reset()
	t.writeIdx.Reset()
	t.lockedIdx.Reset()
	t.nreads = 0
}

// extend revalidates the read set against current line versions, allowing
// the time base to advance (TL2 timestamp extension).
func (t *stmTx) extend() bool {
	for i := range t.reads {
		r := &t.reads[i]
		m := t.sp.Meta(r.line)
		if m != r.ver {
			if j, ok := t.lockedIdx.Get(uint64(r.line)); ok && t.lockedLines[j].from == r.ver {
				continue // we hold the line lock ourselves
			}
			return false
		}
	}
	t.rv = t.sp.Commits()
	return true
}

func (t *stmTx) read(addr mem.Addr) (uint64, bool) {
	if len(t.writes) != 0 {
		if i, ok := t.writeIdx.Get(uint64(addr)); ok {
			return t.writes[i].val, true
		}
	}
	t.nreads++
	l := mem.LineOf(addr)
	if _, ok := t.lockedIdx.Get(uint64(l)); ok {
		// We hold this line's lock (wrote a neighbouring word): the
		// shared value is still the pre-transaction one; safe to load.
		return t.sp.Load(addr), true
	}
	if c := t.sp.Commits(); c != t.rv {
		if !t.extend() {
			return 0, false
		}
	}
	val, ver, ok := t.sp.ReadConsistent(addr)
	if !ok {
		return 0, false
	}
	if i, seen := t.readIdx.Get(uint64(l)); seen {
		if t.reads[i].ver != ver {
			return 0, false
		}
		return val, true
	}
	t.readIdx.Put(uint64(l), int32(len(t.reads)))
	t.reads = append(t.reads, readRec{line: l, ver: ver})
	return val, true
}

func (t *stmTx) write(addr mem.Addr, val uint64) bool {
	l := mem.LineOf(addr)
	if _, ok := t.lockedIdx.Get(uint64(l)); !ok {
		// Encounter-time lock: take the line's seqlock now; a concurrent
		// reader or committer of this line will conflict immediately.
		m := t.sp.Meta(l)
		if m&1 != 0 || !t.sp.TryLockLine(l, m) {
			return false
		}
		// If we read this line earlier, the version must not have moved.
		if i, seen := t.readIdx.Get(uint64(l)); seen && t.reads[i].ver != m {
			t.sp.RevertLine(l, m|1)
			return false
		}
		t.lockedIdx.Put(uint64(l), int32(len(t.lockedLines)))
		t.lockedLines = append(t.lockedLines, lockedLine{line: l, from: m})
	}
	if i, ok := t.writeIdx.Get(uint64(addr)); ok {
		t.writes[i].val = val
		return true
	}
	t.writeIdx.Put(uint64(addr), int32(len(t.writes)))
	t.writes = append(t.writes, occWrite{addr: addr, val: val})
	return true
}

func (t *stmTx) commit() bool {
	if len(t.writes) == 0 {
		return t.extend()
	}
	if !t.extend() {
		t.releaseLocks(false)
		return false
	}
	for i := range t.writes {
		t.sp.Store(t.writes[i].addr, t.writes[i].val)
	}
	t.releaseLocks(true)
	t.sp.BumpCommits()
	return true
}

func (t *stmTx) abort() {
	t.releaseLocks(false)
}

func (t *stmTx) releaseLocks(publish bool) {
	for _, ll := range t.lockedLines {
		if publish {
			t.sp.UnlockLine(ll.line, ll.from|1)
		} else {
			t.sp.RevertLine(ll.line, ll.from|1)
		}
	}
	t.lockedLines = t.lockedLines[:0]
	t.lockedIdx.Reset()
}
