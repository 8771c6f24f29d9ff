package deadlock

import (
	"sync"
	"testing"
)

func TestNoCycleAllowsWait(t *testing.T) {
	d := NewDetector(4)
	d.AddHold(0, 10, true)
	if err := d.BeginWait(1, 10, false); err != nil {
		t.Fatalf("independent wait refused: %v", err)
	}
	d.EndWait(1)
}

func TestTwoPartyCycle(t *testing.T) {
	d := NewDetector(4)
	// T0 holds A, T1 holds B; T0 waits B, then T1 waiting A closes the
	// cycle and must be refused.
	d.AddHold(0, 'A', true)
	d.AddHold(1, 'B', true)
	if err := d.BeginWait(0, 'B', true); err != nil {
		t.Fatalf("first wait refused: %v", err)
	}
	if err := d.BeginWait(1, 'A', true); err != ErrDeadlock {
		t.Fatalf("cycle not detected: %v", err)
	}
	d.EndWait(0)
}

func TestThreePartyCycle(t *testing.T) {
	d := NewDetector(4)
	d.AddHold(0, 1, true)
	d.AddHold(1, 2, true)
	d.AddHold(2, 3, true)
	if err := d.BeginWait(0, 2, true); err != nil {
		t.Fatal(err)
	}
	if err := d.BeginWait(1, 3, true); err != nil {
		t.Fatal(err)
	}
	if err := d.BeginWait(2, 1, true); err != ErrDeadlock {
		t.Fatalf("3-cycle not detected: %v", err)
	}
}

func TestSharedSharedNoCycle(t *testing.T) {
	d := NewDetector(4)
	// Shared holds are compatible with shared waits: no edge, no cycle.
	d.AddHold(0, 'A', false)
	d.AddHold(1, 'B', false)
	if err := d.BeginWait(0, 'B', false); err != nil {
		t.Fatal(err)
	}
	if err := d.BeginWait(1, 'A', false); err != nil {
		t.Fatalf("shared-shared false positive: %v", err)
	}
}

func TestUpgradeUpgradeCycle(t *testing.T) {
	d := NewDetector(4)
	// Both hold shared on V and wait to upgrade: classic upgrade deadlock.
	d.AddHold(0, 'V', false)
	d.AddHold(1, 'V', false)
	if err := d.BeginWait(0, 'V', true); err != nil {
		t.Fatal(err)
	}
	if err := d.BeginWait(1, 'V', true); err != ErrDeadlock {
		t.Fatalf("upgrade-upgrade deadlock not detected: %v", err)
	}
}

func TestRemoveAllClearsHolds(t *testing.T) {
	d := NewDetector(4)
	d.AddHold(0, 'A', true)
	d.RemoveAll(0)
	d.AddHold(1, 'B', true)
	if err := d.BeginWait(0, 'B', true); err != nil {
		t.Fatal(err)
	}
	// T1 waiting on A must succeed: T0 no longer holds it.
	if err := d.BeginWait(1, 'A', true); err != nil {
		t.Fatalf("stale hold caused false deadlock: %v", err)
	}
}

func TestUpgradeHold(t *testing.T) {
	d := NewDetector(4)
	d.AddHold(0, 'A', false)
	d.UpgradeHold(0, 0, 'A')
	// T1's shared wait on A must now see an exclusive holder.
	if err := d.BeginWait(1, 'A', false); err != nil {
		t.Fatal(err) // wait registers fine (no cycle yet)
	}
	d.AddHold(1, 'B', true)
	// T0 waits on B -> T1 waits on A held exclusively by T0: cycle.
	if err := d.BeginWait(0, 'B', true); err != ErrDeadlock {
		t.Fatalf("upgraded hold not treated as exclusive: %v", err)
	}
	t.Run("4k holds", upgradeAmong4kHolds)
}

// upgradeAmong4kHolds is the hub transaction's shape: 4k shared holds,
// some then upgraded by index. Only the named hold changes, and an index
// that names another vertex is a caller bug, not a silent no-op.
func upgradeAmong4kHolds(t *testing.T) {
	const n = 4096
	d := NewDetector(4)
	for v := uint32(0); v < n; v++ {
		d.AddHold(0, v, false)
	}
	d.UpgradeHold(0, n-1, n-1)
	d.UpgradeHold(0, 7, 7)
	d.AddHold(1, n, true)
	for _, c := range []struct {
		v        uint32
		deadlock bool
	}{{n - 1, true}, {7, true}, {8, false}, {0, false}} {
		// T1 reads v while T0 waits on T1's vertex: a cycle exactly when
		// T0's hold of v was upgraded.
		if err := d.BeginWait(0, n, true); err != nil {
			t.Fatal(err)
		}
		err := d.BeginWait(1, c.v, false)
		if got := err == ErrDeadlock; got != c.deadlock {
			t.Errorf("shared wait on vertex %d: err = %v, want deadlock = %v", c.v, err, c.deadlock)
		}
		d.EndWait(1)
		d.EndWait(0)
	}
	defer func() {
		if recover() == nil {
			t.Error("upgrading hold 3 as vertex 9 did not panic")
		}
	}()
	d.UpgradeHold(0, 3, 9)
}

// TestScanCoversHighestWaiter: cycle checks scan thread ids up to the
// highest that ever waited, so sparse ids, including the last slot, are
// found, and a later, higher id extends the scan.
func TestScanCoversHighestWaiter(t *testing.T) {
	d := NewDetector(512)
	d.AddHold(3, 'A', true)
	d.AddHold(200, 'B', true)
	if err := d.BeginWait(3, 'B', true); err != nil {
		t.Fatal(err)
	}
	if err := d.BeginWait(200, 'A', true); err != ErrDeadlock {
		t.Fatalf("cycle between threads 3 and 200 not detected: %v", err)
	}
	// Thread 511 arrives after those scans and closes a three-party
	// cycle through 3: 3 waits on B (200), 200 on C (511), 511 on A (3).
	d.AddHold(511, 'C', true)
	if err := d.BeginWait(200, 'C', true); err != nil {
		t.Fatal(err)
	}
	if err := d.BeginWait(511, 'A', true); err != ErrDeadlock {
		t.Fatalf("cycle through thread 511 not detected: %v", err)
	}
}

// TestRunningHolderIsNoEdge: a thread that is not blocked cannot be part
// of a cycle, so its holds (which it keeps to itself while it runs) put
// no edge in the graph; the cycle appears when it blocks.
func TestRunningHolderIsNoEdge(t *testing.T) {
	d := NewDetector(4)
	d.AddHold(0, 'A', true)
	d.AddHold(1, 'B', true)
	if err := d.BeginWait(1, 'A', true); err != nil {
		t.Fatalf("wait on a running holder refused: %v", err)
	}
	if err := d.BeginWait(0, 'B', true); err != ErrDeadlock {
		t.Fatalf("cycle not detected once the holder blocks: %v", err)
	}
	// The victim rolled its wait back and runs on: no edge again.
	d.EndWait(1)
	if err := d.BeginWait(1, 'A', true); err != nil {
		t.Fatalf("wait refused after the victim's rollback: %v", err)
	}
}

func TestWaitingCount(t *testing.T) {
	d := NewDetector(4)
	if d.Waiting() != 0 {
		t.Fatal("fresh detector has waiters")
	}
	d.BeginWait(0, 1, false)
	if d.Waiting() != 1 {
		t.Fatal("wait not registered")
	}
	d.EndWait(0)
	if d.Waiting() != 0 {
		t.Fatal("wait not cleared")
	}
}

// TestConcurrentDetectorSafety hammers the detector from many goroutines
// to catch data races (run under -race).
func TestConcurrentDetectorSafety(t *testing.T) {
	d := NewDetector(8)
	var wg sync.WaitGroup
	for tid := 0; tid < 8; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				v := uint32((tid + i) % 16)
				d.AddHold(tid, v, i%2 == 0)
				if err := d.BeginWait(tid, uint32(i%16), i%3 == 0); err == nil {
					d.EndWait(tid)
				}
				d.RemoveAll(tid)
			}
		}(tid)
	}
	wg.Wait()
}
