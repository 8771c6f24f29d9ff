// Package deadlock provides the waits-for-graph deadlock detector used by
// TuFast's L mode (paper §IV-E). Only L-mode (blocking 2PL) transactions
// participate: H and O mode only *try* locks and abort on failure, so they
// can never be part of a hold-and-wait cycle. Because the power-law degree
// distribution puts few vertices in L mode, detection runs rarely.
//
// A cycle in the waits-for graph consists of blocked threads only, so a
// thread's hold list matters to anyone else only while that thread
// blocks. The detector exploits that: a thread records its holds in a
// list nobody else reads while it runs — no lock, no atomic, O(1) per
// hold — and BeginWait, under the thread's mutex, is what publishes the
// list together with the wait edge; EndWait, under the same mutex, takes
// it back. A cycle check (run only when a thread is about to block)
// reads, under their mutexes, the wait edges and hold lists of the
// threads that are blocked right now. Every new wait edge triggers a
// check, so any cycle is detected by the thread whose wait completes it
// — that thread becomes the victim.
package deadlock

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// ErrDeadlock is returned to a would-be waiter whose wait would close a
// cycle in the waits-for graph; the waiter must abort (it is the victim).
var ErrDeadlock = errors.New("deadlock: wait would create a cycle")

type hold struct {
	vertex    uint32
	exclusive bool
}

// threadState is one thread's slot. holds belongs to the thread itself
// while waiting is false and is frozen, readable under mu, while it is
// true; the other fields are guarded by mu.
type threadState struct {
	mu       sync.Mutex
	holds    []hold
	waiting  bool
	waitV    uint32
	waitExcl bool

	// visited is the cycle check's scratch set (one bit per thread id),
	// allocated on the thread's first blocking wait and touched only by
	// its own BeginWait.
	visited []uint64
}

// Detector tracks, per thread, which vertex locks it holds and which one
// it is blocked on.
type Detector struct {
	threads []*threadState
	// top is one past the highest thread id that ever began a wait; a
	// cycle check scans [0, top) instead of every slot.
	top atomic.Int32
}

// NewDetector creates a detector for thread ids in [0, maxThreads).
func NewDetector(maxThreads int) *Detector {
	if maxThreads <= 0 {
		panic(fmt.Sprintf("deadlock: non-positive thread count %d", maxThreads))
	}
	d := &Detector{threads: make([]*threadState, maxThreads)}
	for i := range d.threads {
		d.threads[i] = &threadState{}
	}
	return d
}

// AddHold records that tid now holds v. Holds keep their order of
// arrival until RemoveAll: the i-th AddHold since then is hold i.
//
// AddHold, UpgradeHold and RemoveAll touch tid's own list without
// synchronization: only thread tid may call them, and never between its
// BeginWait and EndWait.
func (d *Detector) AddHold(tid int, v uint32, exclusive bool) {
	t := d.threads[tid]
	t.holds = append(t.holds, hold{vertex: v, exclusive: exclusive})
}

// UpgradeHold marks tid's hold i, which must be of v, exclusive
// (shared-to-exclusive upgrade). The caller tracks the index (see
// AddHold), so a transaction that reads then writes each of its k
// vertices pays O(k) for the upgrades, not O(k²) in list scans.
func (d *Detector) UpgradeHold(tid, i int, v uint32) {
	t := d.threads[tid]
	if i >= len(t.holds) || t.holds[i].vertex != v {
		panic(fmt.Sprintf("deadlock: thread %d upgrades hold %d of vertex %d, which it does not have", tid, i, v))
	}
	t.holds[i].exclusive = true
}

// RemoveAll clears every hold of tid (transaction end).
func (d *Detector) RemoveAll(tid int) {
	t := d.threads[tid]
	t.holds = t.holds[:0]
}

// BeginWait registers that tid is about to block on v, publishes its
// holds, and checks for a cycle. If the wait would deadlock, the
// registration is rolled back and ErrDeadlock returned: the caller must
// abort its transaction.
func (d *Detector) BeginWait(tid int, v uint32, exclusive bool) error {
	// Raise top before publishing the wait: of the threads whose waits
	// form a cycle, the one that publishes last then finds every other
	// member both inside [0, top) and waiting.
	for {
		top := d.top.Load()
		if int32(tid) < top || d.top.CompareAndSwap(top, int32(tid)+1) {
			break
		}
	}
	t := d.threads[tid]
	t.mu.Lock()
	t.waiting, t.waitV, t.waitExcl = true, v, exclusive
	t.mu.Unlock()
	if d.cycleFrom(tid) {
		d.EndWait(tid)
		return ErrDeadlock
	}
	return nil
}

// EndWait removes tid's wait registration.
func (d *Detector) EndWait(tid int) {
	t := d.threads[tid]
	t.mu.Lock()
	t.waiting = false
	t.mu.Unlock()
}

// blocks reports whether tid is blocked while holding v incompatibly
// with a request of the given exclusivity. A running thread's holds are
// its own business: no cycle passes through it.
func (d *Detector) blocks(tid int, v uint32, exclusive bool) bool {
	t := d.threads[tid]
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.waiting {
		return false
	}
	for _, h := range t.holds {
		if h.vertex == v && (h.exclusive || exclusive) {
			return true
		}
	}
	return false
}

// waitOf returns tid's current wait edge, if any.
func (d *Detector) waitOf(tid int) (v uint32, exclusive, waiting bool) {
	t := d.threads[tid]
	t.mu.Lock()
	v, exclusive, waiting = t.waitV, t.waitExcl, t.waiting
	t.mu.Unlock()
	return
}

// cycleFrom runs a DFS from start over "waits on vertex held by" edges.
// The scan is racy with respect to concurrent lock activity; races can
// only produce spurious victims (safe: the victim retries), never missed
// cycles, because a real cycle's edges are all stable while its threads
// block.
func (d *Detector) cycleFrom(start int) bool {
	t := d.threads[start]
	if t.visited == nil {
		t.visited = make([]uint64, (len(d.threads)+63)/64)
	}
	clear(t.visited)
	return d.reaches(start, start, t.visited)
}

// reaches reports whether start is reachable from tid's wait edge.
func (d *Detector) reaches(tid, start int, visited []uint64) bool {
	v, excl, waiting := d.waitOf(tid)
	if !waiting {
		return false
	}
	for h := range int(d.top.Load()) {
		if h == tid || !d.blocks(h, v, excl) {
			continue
		}
		if h == start {
			return true
		}
		if visited[h/64]&(1<<(h%64)) != 0 {
			continue
		}
		visited[h/64] |= 1 << (h % 64)
		if d.reaches(h, start, visited) {
			return true
		}
	}
	return false
}

// Waiting returns the number of currently blocked threads.
func (d *Detector) Waiting() int {
	n := 0
	for _, t := range d.threads {
		t.mu.Lock()
		if t.waiting {
			n++
		}
		t.mu.Unlock()
	}
	return n
}
