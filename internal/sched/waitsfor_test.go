package sched

import (
	"sync"
	"testing"

	"tufast/internal/gentab"
)

// waitGraph drives TPL's waits-for slots directly: held[tid] stands in
// for worker tid's hold table.
type waitGraph struct {
	s    *TPL
	held [MaxThreads]*gentab.Table
}

func newWaitGraph() *waitGraph {
	g := &waitGraph{s: NewTPL(nil, nil)}
	for i := range g.held {
		g.held[i] = gentab.New(4)
	}
	return g
}

// hold records that tid holds v, or upgrades its hold of v to exclusive.
func (g *waitGraph) hold(tid int, v uint32, exclusive bool) {
	mode := holdShared
	if exclusive {
		mode = holdExcl
	}
	g.held[tid].Put(uint64(v), mode)
}

// wait begins tid's wait on v and reports whether it closed a cycle.
func (g *waitGraph) wait(tid int, v uint32, exclusive bool) bool {
	return g.s.beginWait(tid, g.held[tid], v, exclusive)
}

func (g *waitGraph) endWait(tid int) { g.s.endWait(tid) }

// release drops every hold of tid (transaction end).
func (g *waitGraph) release(tid int) { g.held[tid].Reset() }

// published reports whether tid's slot publishes a hold table, that is,
// whether tid is registered as blocked.
func published(s *TPL, tid int) bool {
	t := &s.slots[tid]
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.held != nil
}

// waiting is the number of threads registered as blocked.
func waiting(s *TPL) int {
	n := 0
	for tid := range s.slots {
		if published(s, tid) {
			n++
		}
	}
	return n
}

func TestNoCycleAllowsWait(t *testing.T) {
	g := newWaitGraph()
	g.hold(0, 10, true)
	if g.wait(1, 10, false) {
		t.Fatal("independent wait refused")
	}
	g.endWait(1)
}

func TestTwoPartyCycle(t *testing.T) {
	g := newWaitGraph()
	// T0 holds A, T1 holds B; T0 waits B, then T1 waiting A closes the
	// cycle and must be refused.
	g.hold(0, 'A', true)
	g.hold(1, 'B', true)
	if g.wait(0, 'B', true) {
		t.Fatal("first wait refused")
	}
	if !g.wait(1, 'A', true) {
		t.Fatal("cycle not detected")
	}
	g.endWait(0)
}

func TestThreePartyCycle(t *testing.T) {
	g := newWaitGraph()
	g.hold(0, 1, true)
	g.hold(1, 2, true)
	g.hold(2, 3, true)
	if g.wait(0, 2, true) {
		t.Fatal("first wait refused")
	}
	if g.wait(1, 3, true) {
		t.Fatal("second wait refused")
	}
	if !g.wait(2, 1, true) {
		t.Fatal("3-cycle not detected")
	}
}

func TestSharedSharedNoCycle(t *testing.T) {
	g := newWaitGraph()
	// Shared holds are compatible with shared waits: no edge, no cycle.
	g.hold(0, 'A', false)
	g.hold(1, 'B', false)
	if g.wait(0, 'B', false) {
		t.Fatal("first wait refused")
	}
	if g.wait(1, 'A', false) {
		t.Fatal("shared-shared false positive")
	}
}

func TestUpgradeUpgradeCycle(t *testing.T) {
	g := newWaitGraph()
	// Both hold shared on V and wait to upgrade: classic upgrade deadlock.
	g.hold(0, 'V', false)
	g.hold(1, 'V', false)
	if g.wait(0, 'V', true) {
		t.Fatal("first wait refused")
	}
	if !g.wait(1, 'V', true) {
		t.Fatal("upgrade-upgrade deadlock not detected")
	}
}

func TestRemoveAllClearsHolds(t *testing.T) {
	g := newWaitGraph()
	g.hold(0, 'A', true)
	g.release(0)
	g.hold(1, 'B', true)
	if g.wait(0, 'B', true) {
		t.Fatal("first wait refused")
	}
	// T1 waiting on A must succeed: T0 no longer holds it.
	if g.wait(1, 'A', true) {
		t.Fatal("stale hold caused false deadlock")
	}
}

func TestUpgradedHold(t *testing.T) {
	g := newWaitGraph()
	g.hold(0, 'A', false)
	g.hold(0, 'A', true)
	// T1's shared wait on A must now see an exclusive holder.
	if g.wait(1, 'A', false) {
		t.Fatal("wait refused") // wait registers fine (no cycle yet)
	}
	g.hold(1, 'B', true)
	// T0 waits on B -> T1 waits on A held exclusively by T0: cycle.
	if !g.wait(0, 'B', true) {
		t.Fatal("upgraded hold not treated as exclusive")
	}
	t.Run("4k holds", upgradeAmong4kHolds)
}

// upgradeAmong4kHolds is the hub transaction's shape: 4k shared holds,
// some then upgraded. Only the upgraded holds change.
func upgradeAmong4kHolds(t *testing.T) {
	const n = 4096
	g := newWaitGraph()
	for v := uint32(0); v < n; v++ {
		g.hold(0, v, false)
	}
	g.hold(0, n-1, true)
	g.hold(0, 7, true)
	g.hold(1, n, true)
	for _, c := range []struct {
		v        uint32
		deadlock bool
	}{{n - 1, true}, {7, true}, {8, false}, {0, false}} {
		// T1 reads v while T0 waits on T1's vertex: a cycle exactly when
		// T0's hold of v was upgraded.
		if g.wait(0, n, true) {
			t.Fatal("T0's wait refused")
		}
		if got := g.wait(1, c.v, false); got != c.deadlock {
			t.Errorf("shared wait on vertex %d: deadlock = %v, want %v", c.v, got, c.deadlock)
		}
		g.endWait(1)
		g.endWait(0)
	}
}

// TestScanCoversHighestWaiter: cycle checks scan thread ids up to the
// highest that ever waited, so sparse ids, including the last slot, are
// found, and a later, higher id extends the scan.
func TestScanCoversHighestWaiter(t *testing.T) {
	g := newWaitGraph()
	g.hold(3, 'A', true)
	g.hold(200, 'B', true)
	if g.wait(3, 'B', true) {
		t.Fatal("first wait refused")
	}
	if !g.wait(200, 'A', true) {
		t.Fatal("cycle between threads 3 and 200 not detected")
	}
	// Thread MaxThreads-1 arrives after those scans and closes a
	// three-party cycle through 3: 3 waits on B (200), 200 on C (last),
	// last on A (3).
	const last = MaxThreads - 1
	g.hold(last, 'C', true)
	if g.wait(200, 'C', true) {
		t.Fatal("wait on C refused")
	}
	if !g.wait(last, 'A', true) {
		t.Fatalf("cycle through thread %d not detected", last)
	}
}

// TestRunningHolderIsNoEdge: a thread that is not blocked cannot be part
// of a cycle, so its holds (which it keeps to itself while it runs) put
// no edge in the graph; the cycle appears when it blocks.
func TestRunningHolderIsNoEdge(t *testing.T) {
	g := newWaitGraph()
	g.hold(0, 'A', true)
	g.hold(1, 'B', true)
	if g.wait(1, 'A', true) {
		t.Fatal("wait on a running holder refused")
	}
	if !g.wait(0, 'B', true) {
		t.Fatal("cycle not detected once the holder blocks")
	}
	// The victim rolled its wait back and runs on: no edge again.
	g.endWait(1)
	if g.wait(1, 'A', true) {
		t.Fatal("wait refused after the victim's rollback")
	}
}

func TestWaitingCount(t *testing.T) {
	g := newWaitGraph()
	if waiting(g.s) != 0 {
		t.Fatal("fresh TPL has waiters")
	}
	g.wait(0, 1, false)
	if waiting(g.s) != 1 {
		t.Fatal("wait not registered")
	}
	g.endWait(0)
	if waiting(g.s) != 0 {
		t.Fatal("wait not cleared")
	}
}

// TestConcurrentDetectorSafety hammers the waits-for slots from many
// goroutines, each mutating its own hold table between waits as a worker
// does, to catch data races (run under -race).
func TestConcurrentDetectorSafety(t *testing.T) {
	g := newWaitGraph()
	var wg sync.WaitGroup
	for tid := 0; tid < 8; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				g.hold(tid, uint32((tid+i)%16), i%2 == 0)
				if !g.wait(tid, uint32(i%16), i%3 == 0) {
					g.endWait(tid)
				}
				g.release(tid)
			}
		}(tid)
	}
	wg.Wait()
}

// TestWorkerTidBound: a TPL worker's id must fit a waits-for slot, and
// one that does not is refused when the worker is made, not at its first
// blocked wait.
func TestWorkerTidBound(t *testing.T) {
	s := NewTPL(nil, nil)
	s.NewWorker(MaxThreads - 1)
	for _, tid := range []int{-1, MaxThreads} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewWorker(%d) did not panic", tid)
				}
			}()
			s.NewWorker(tid)
		}()
	}
}
