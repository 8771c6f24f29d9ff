package sched

import (
	"math/rand/v2"
	"os"
	"runtime/pprof"
	"sync"
	"testing"
	"time"

	"tufast/internal/mem"
	"tufast/internal/obs"
)

// totals reads a scheduler's outcome counts from its metrics, the one
// place they are recorded.
func totals(s Scheduler) obs.Totals { return s.Metrics().Snapshot().Totals() }

// incr is a read-then-write of v's word: a shared lock, then its upgrade.
func incr(tx Tx, v uint32) { tx.Write(v, mem.Addr(v), tx.Read(v, mem.Addr(v))+1) }

// waitBehind runs one transaction on w that increments each vertex of
// hold and then v, which tid 7 holds exclusively until the transaction
// has either made a deadlock abort (refused) or sat in its wait for 20ms.
// The transaction must not return before v is released, and must commit
// after. It returns the scheduler's totals.
func waitBehind(t *testing.T, w *TPLWorker, hold []uint32, v uint32, refused bool) obs.Totals {
	t.Helper()
	const other = 7
	s, locks := w.s, w.s.locks
	if !locks.TryExclusive(v, other) {
		t.Fatal("setup lock failed")
	}
	waiting := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		first := true
		done <- w.Run(0, func(tx Tx) error {
			for _, u := range hold {
				incr(tx, u)
			}
			if first {
				first = false
				close(waiting)
			}
			incr(tx, v)
			return nil
		})
	}()
	<-waiting
	if refused {
		for deadline := time.Now().Add(20 * time.Second); totals(s).Deadlocks == 0; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("the wait for vertex %d was not refused in 20s", v)
			}
		}
	} else {
		time.Sleep(20 * time.Millisecond)
	}
	select {
	case err := <-done:
		t.Fatalf("transaction returned (%v) while vertex %d was held", err, v)
	default:
	}
	locks.ReleaseExclusive(v, other)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	assertNoLocksHeld(t, locks)
	for _, u := range append(hold, v) {
		if got := s.sp.Load(mem.Addr(u)); got == 0 {
			t.Fatalf("vertex %d's increment is lost", u)
		}
	}
	return totals(s)
}

// TestOutOfOrderWaitRefused: a worker holding 5 that asks for 3, held by
// another tid, gives the wait up (a deadlock abort) rather than wait
// below a lock it holds, and commits once 3 is released.
func TestOutOfOrderWaitRefused(t *testing.T) {
	s, _, _ := newTPLFixture(t, 16)
	tot := waitBehind(t, s.NewWorker(0), []uint32{5}, 3, true)
	if tot.Deadlocks == 0 || tot.Commits != 1 {
		t.Fatalf("%d deadlock aborts, %d commits; want at least 1 and 1", tot.Deadlocks, tot.Commits)
	}
}

// TestInOrderWaitBlocks: a worker holding 3 that asks for 5 waits for it
// without aborting.
func TestInOrderWaitBlocks(t *testing.T) {
	s, _, _ := newTPLFixture(t, 16)
	if tot := waitBehind(t, s.NewWorker(0), []uint32{3}, 5, false); tot.Aborts != 0 || tot.Commits != 1 {
		t.Fatalf("%d aborts, %d commits; want 0 and 1", tot.Aborts, tot.Commits)
	}
}

// TestNoCycleAllowsWait: a worker that holds nothing waits for any
// vertex without aborting.
func TestNoCycleAllowsWait(t *testing.T) {
	s, _, _ := newTPLFixture(t, 16)
	if tot := waitBehind(t, s.NewWorker(0), nil, 10, false); tot.Aborts != 0 {
		t.Fatalf("%d aborts, want 0", tot.Aborts)
	}
}

// TestRemoveAllClearsHolds: the end of a transaction lowers the worker's
// top with its locks, so a later transaction that holds nothing waits for
// a vertex below the ones its predecessor held.
func TestRemoveAllClearsHolds(t *testing.T) {
	s, _, _ := newTPLFixture(t, 16)
	w := s.NewWorker(0)
	if err := w.Run(0, func(tx Tx) error { incr(tx, 9); return nil }); err != nil {
		t.Fatal(err)
	}
	if tot := waitBehind(t, w, nil, 3, false); tot.Aborts != 0 {
		t.Fatalf("%d aborts, want 0", tot.Aborts)
	}
}

// meet runs bodies[i] once on worker i, all at once, and returns the
// scheduler's totals. A body calls held once it has taken its first
// locks; on first attempts no body goes past that point before every
// body has reached it, so the waits that follow are the shape the test
// builds, and a wait cycle that the lock order rule let form fails the
// test on a 20 s deadline.
func meet(t *testing.T, s *TPL, bodies ...func(tx Tx, held func()) error) obs.Totals {
	t.Helper()
	var all, wg sync.WaitGroup
	all.Add(len(bodies))
	for tid, body := range bodies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			first := true
			held := func() {
				if first {
					first = false
					all.Done()
					all.Wait()
				}
			}
			if err := s.NewWorker(tid).Run(0, func(tx Tx) error { return body(tx, held) }); err != nil {
				t.Errorf("worker %d: %v", tid, err)
			}
		}()
	}
	awaitOrDump(t, &wg, 20*time.Second)
	assertNoLocksHeld(t, s.locks)
	return totals(s)
}

// crossing is a body that increments its vertices in the given order,
// meeting the others after the first.
func crossing(order ...uint32) func(Tx, func()) error {
	return func(tx Tx, held func()) error {
		for i, v := range order {
			incr(tx, v)
			if i == 0 {
				held()
			}
		}
		return nil
	}
}

// TestTwoPartyCycle: two workers that lock A and B in opposite orders
// both commit; the one asking for the lower vertex gives its wait up.
func TestTwoPartyCycle(t *testing.T) {
	s, sp, _ := newTPLFixture(t, 16)
	tot := meet(t, s, crossing(1, 2), crossing(2, 1))
	if tot.Deadlocks == 0 || tot.Commits != 2 || sp.Load(1) != 2 || sp.Load(2) != 2 {
		t.Fatalf("%+v, words %d %d; want a deadlock abort, 2 commits, words 2 2", tot, sp.Load(1), sp.Load(2))
	}
}

// TestThreePartyCycle: three workers each holding one vertex and asking
// for the next round a ring all commit.
func TestThreePartyCycle(t *testing.T) {
	s, sp, _ := newTPLFixture(t, 16)
	tot := meet(t, s, crossing(1, 2), crossing(2, 3), crossing(3, 1))
	if tot.Deadlocks == 0 || tot.Commits != 3 {
		t.Fatalf("%+v; want a deadlock abort and 3 commits", tot)
	}
	for v := uint32(1); v <= 3; v++ {
		if sp.Load(mem.Addr(v)) != 2 {
			t.Fatalf("word %d = %d, want 2", v, sp.Load(mem.Addr(v)))
		}
	}
}

// TestSharedSharedNoCycle: shared holds never make a shared request
// wait, so readers crossing in opposite orders never abort.
func TestSharedSharedNoCycle(t *testing.T) {
	s, _, _ := newTPLFixture(t, 16)
	read := func(a, b uint32) func(Tx, func()) error {
		return func(tx Tx, held func()) error {
			tx.Read(a, mem.Addr(a))
			held()
			tx.Read(b, mem.Addr(b))
			return nil
		}
	}
	if tot := meet(t, s, read(1, 2), read(2, 1)); tot.Aborts != 0 || tot.Commits != 2 {
		t.Fatalf("%+v; want no abort and 2 commits", tot)
	}
}

// TestUpgradeUpgradeCycle: two workers that both read V and then both
// write it wait for each other's shared hold; an upgrade waits below the
// worker's own top, so it is given up and both commit.
func TestUpgradeUpgradeCycle(t *testing.T) {
	s, sp, _ := newTPLFixture(t, 16)
	const v = 4
	upgrade := func(tx Tx, held func()) error {
		x := tx.Read(v, mem.Addr(v))
		held()
		tx.Write(v, mem.Addr(v), x+1)
		return nil
	}
	if tot := meet(t, s, upgrade, upgrade); tot.Deadlocks == 0 || tot.Commits != 2 || sp.Load(v) != 2 {
		t.Fatalf("%+v, word %d; want a deadlock abort, 2 commits, word 2", tot, sp.Load(v))
	}
}

// TestUpgradedHold: an upgraded hold excludes readers. T0 reads and then
// writes A before asking for B; T1, holding B, asks to read A and is
// refused, since A is below B; T0's wait for B is above its holds and
// lasts until T1 has given B up.
func TestUpgradedHold(t *testing.T) {
	s, _, _ := newTPLFixture(t, 16)
	const a, b = 1, 2
	tot := meet(t, s, crossing(a, b), func(tx Tx, held func()) error {
		incr(tx, b)
		held()
		tx.Read(a, mem.Addr(a))
		return nil
	})
	if tot.Deadlocks == 0 || tot.Commits != 2 {
		t.Fatalf("%+v; want a deadlock abort and 2 commits", tot)
	}
	t.Run("4k holds", upgradeAmong4kHolds)
}

// upgradeAmong4kHolds is the hub transaction's shape: T0 reads 4k
// vertices, writes two of them and then asks for vertex n, above them
// all, which T1 holds while it reads one of T0's vertices. T1 is refused
// exactly when T0's hold of that vertex was upgraded; otherwise nobody
// aborts.
func upgradeAmong4kHolds(t *testing.T) {
	const n = 4096
	for _, c := range []struct {
		v        uint32
		deadlock bool
	}{{n - 1, true}, {7, true}, {8, false}, {0, false}} {
		s, _, _ := newTPLFixture(t, n+1)
		hub := func(tx Tx, held func()) error {
			for v := uint32(0); v < n; v++ {
				tx.Read(v, mem.Addr(v))
			}
			incr(tx, n-1)
			incr(tx, 7)
			held()
			incr(tx, n)
			return nil
		}
		leaf := func(tx Tx, held func()) error {
			incr(tx, n)
			held()
			tx.Read(c.v, mem.Addr(c.v))
			return nil
		}
		tot := meet(t, s, hub, leaf)
		if got := tot.Deadlocks != 0; got != c.deadlock || tot.Commits != 2 {
			t.Errorf("read of vertex %d: deadlock aborts = %d (want any: %v), commits = %d", c.v, tot.Deadlocks, c.deadlock, tot.Commits)
		}
	}
}

// TestRandomOrderLockingCommits is the prevention oracle: 8 workers run
// seeded transactions that each read and then write 2–6 distinct vertices
// of a pool of 16, in random order. Every transaction commits, every
// counter is exact and no lock is left held; a wait cycle that formed
// would hang, and the test fails on a 20 s deadline with every
// goroutine's stack instead.
func TestRandomOrderLockingCommits(t *testing.T) {
	const workers, each, pool = 8, 300, 16
	s, sp, locks := newTPLFixture(t, pool)
	var want [workers][pool]uint64
	var wg sync.WaitGroup
	for tid := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := s.NewWorker(tid)
			r := rand.New(rand.NewPCG(uint64(tid), 57))
			for range each {
				vs := r.Perm(pool)[:2+r.IntN(5)]
				err := w.Run(len(vs), func(tx Tx) error {
					for _, v := range vs {
						incr(tx, uint32(v))
					}
					return nil
				})
				if err != nil {
					t.Errorf("worker %d: %v", tid, err)
					return
				}
				for _, v := range vs {
					want[tid][v]++
				}
			}
		}()
	}
	awaitOrDump(t, &wg, 20*time.Second)
	for v := range pool {
		var sum uint64
		for tid := range workers {
			sum += want[tid][v]
		}
		if got := sp.Load(mem.Addr(v)); got != sum {
			t.Errorf("vertex %d = %d, want %d", v, got, sum)
		}
	}
	if tot := totals(s); tot.Commits != workers*each {
		t.Errorf("%d commits, want %d", tot.Commits, workers*each)
	}
	assertNoLocksHeld(t, locks)
}

// awaitOrDump waits for wg, failing the test with every goroutine's stack
// if it has not finished by the deadline.
func awaitOrDump(t *testing.T, wg *sync.WaitGroup, deadline time.Duration) {
	t.Helper()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(deadline):
		pprof.Lookup("goroutine").WriteTo(os.Stderr, 2)
		t.Fatalf("transactions still running after %v: a wait cycle formed", deadline)
	}
}

// TestStalledLHolderWaitCounted: an L holder stalled at a lock
// acquisition (FaultStall) keeps the lock it took before; a second worker
// that asks for that vertex, at or above its own top, waits the stall
// out, and the wait is recorded once, under l_lock, for about its length.
func TestStalledLHolderWaitCounted(t *testing.T) {
	const stall = 200 * time.Millisecond
	s, _, locks := newTPLFixture(t, 16)
	fi := NewFaultInjector(FaultSpec{Mode: "L", Op: "write", N: 2, Kind: FaultStall, Stall: stall})
	s.SetFaultInjector(fi)
	holder := make(chan error, 1)
	go func() {
		holder <- s.NewWorker(0).Run(0, func(tx Tx) error {
			tx.Write(3, 3, 1) // taken before the stall
			tx.Write(9, 9, 1) // stalls, holding 3
			return nil
		})
	}()
	for fi.Fired() == 0 {
		time.Sleep(50 * time.Microsecond)
	}
	if err := s.NewWorker(1).Run(0, func(tx Tx) error { tx.Write(3, 3, 2); return nil }); err != nil {
		t.Fatal(err)
	}
	if err := <-holder; err != nil {
		t.Fatal(err)
	}
	assertNoLocksHeld(t, locks)
	snap := s.Metrics().Snapshot()
	if tot := snap.Totals(); tot.Commits != 2 || tot.Aborts != 0 {
		t.Fatalf("%d commits, %d aborts; want 2 and 0", tot.Commits, tot.Aborts)
	}
	w := snap.Waits["l_lock"]
	if len(snap.Waits) != 1 || w.Waits != 1 || w.Ns < uint64(stall/2) {
		t.Fatalf("waits %+v; want one l_lock wait of at least %v", snap.Waits, stall/2)
	}
}
