package sched

import (
	"sync"

	"tufast/internal/gentab"
)

// MaxThreads bounds thread ids: TPL keeps one waits-for slot per id.
const MaxThreads = 512

// waitSlot is one thread's node in TPL's waits-for graph (paper §IV-E).
// Only L-mode transactions take part: H and O mode only try locks and
// abort on failure, so they never hold and wait.
//
// A cycle consists of blocked threads only, so a thread's holds matter
// to anyone else only while it blocks. The thread therefore keeps them
// in its own hold table, which nobody else reads while it runs, and
// beginWait publishes that table here, under mu, together with the wait
// edge; endWait takes it back under the same mutex before the thread
// touches the table again.
type waitSlot struct {
	mu   sync.Mutex
	held *gentab.Table // the blocked thread's holds; nil while it runs
	v    uint32        // the vertex it waits on
	excl bool          // whether that wait is exclusive
}

// beginWait registers that thread tid, holding the locks in held, is
// about to block on v, and checks for a cycle. It reports whether the
// wait would close one, in which case the registration is rolled back
// and the caller must abort: the thread whose wait completes a cycle is
// its victim, and every new wait edge runs a check, so no cycle is
// missed.
func (s *TPL) beginWait(tid int, held *gentab.Table, v uint32, exclusive bool) bool {
	// Raise top before publishing the wait: of the threads whose waits
	// form a cycle, the one that publishes last then finds every other
	// member both inside [0, top) and waiting.
	for {
		top := s.top.Load()
		if int32(tid) < top || s.top.CompareAndSwap(top, int32(tid)+1) {
			break
		}
	}
	t := &s.slots[tid]
	t.mu.Lock()
	t.held, t.v, t.excl = held, v, exclusive
	t.mu.Unlock()
	var visited [MaxThreads / 64]uint64
	if s.reaches(tid, tid, &visited) {
		s.endWait(tid)
		return true
	}
	return false
}

// endWait removes tid's wait registration.
func (s *TPL) endWait(tid int) {
	t := &s.slots[tid]
	t.mu.Lock()
	t.held = nil
	t.mu.Unlock()
}

// blocks reports whether tid is blocked while holding v incompatibly
// with a request of the given exclusivity. A running thread's holds are
// its own business: no cycle passes through it.
func (s *TPL) blocks(tid int, v uint32, exclusive bool) bool {
	t := &s.slots[tid]
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.held == nil {
		return false
	}
	m, ok := t.held.Get(uint64(v))
	return ok && (m == holdExcl || exclusive)
}

// reaches reports whether start is reachable from tid's wait edge over
// "waits on a vertex held by" edges. The scan is racy with respect to
// concurrent lock activity; races can only produce spurious victims
// (safe: the victim retries), never missed cycles, because a real
// cycle's edges are all stable while its threads block.
func (s *TPL) reaches(tid, start int, visited *[MaxThreads / 64]uint64) bool {
	t := &s.slots[tid]
	t.mu.Lock()
	v, excl, waiting := t.v, t.excl, t.held != nil
	t.mu.Unlock()
	if !waiting {
		return false
	}
	for h := range int(s.top.Load()) {
		if h == tid || !s.blocks(h, v, excl) {
			continue
		}
		if h == start {
			return true
		}
		if visited[h/64]&(1<<(h%64)) != 0 {
			continue
		}
		visited[h/64] |= 1 << (h % 64)
		if s.reaches(h, start, visited) {
			return true
		}
	}
	return false
}
