package core

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tufast/internal/htm"
	"tufast/internal/mem"
	"tufast/internal/sched"
	"tufast/internal/vlock"
)

// lHint routes a transaction straight to L mode under the zero Config.
const lHint = 1 << 21

// inCommitWindow registers, from inside an H-mode body, a subscription
// check. Registered after the body's last operation it runs only inside
// Commit's validation — that is inside the worker's commit-gate window,
// after lActive was read and with the written lines locked.
func inCommitWindow(tx sched.Tx, check htm.Check) {
	tx.(*hCtx).tx.AddCheck(check)
}

// TestLEntryWaitsForHCommitWindow holds an H commit that took the fast
// path (no L transaction was active when it looked) inside its window and
// starts an L transaction on the vertex it writes: L's first read must
// wait for the window to close and see what the commit published.
func TestLEntryWaitsForHCommitWindow(t *testing.T) {
	s, _ := newSys(64, Config{})
	entered, release := make(chan struct{}), make(chan struct{})
	var released atomic.Bool

	hDone := make(chan error, 1)
	go func() {
		var once sync.Once
		hDone <- s.Worker(0).Run(2, func(tx sched.Tx) error {
			tx.Write(1, 1, 42)
			inCommitWindow(tx, func() bool {
				once.Do(func() { close(entered) })
				<-release
				return true
			})
			return nil
		})
	}()
	<-entered

	var firstRead uint64
	lDone := make(chan error, 1)
	go func() {
		lDone <- s.Worker(1).Run(lHint, func(tx sched.Tx) error {
			if !released.Load() {
				t.Error("the L transaction read before the H commit window closed")
			}
			firstRead = tx.Read(1, 1)
			return nil
		})
	}()
	for s.lActive.Load() == 0 {
		runtime.Gosched() // until the L transaction has announced itself
	}
	select {
	case <-lDone:
		t.Fatal("the L transaction finished while an H commit that saw lActive == 0 was still publishing")
	case <-time.After(20 * time.Millisecond):
	}
	released.Store(true)
	close(release)
	if err := <-hDone; err != nil {
		t.Fatal(err)
	}
	if err := <-lDone; err != nil {
		t.Fatal(err)
	}
	if firstRead != 42 {
		t.Fatalf("the L transaction read %d, want the 42 the H commit published", firstRead)
	}
	if got := s.ModeStats(); got.Count(ClassH) != 1 || got.Count(ClassL) != 1 {
		t.Fatalf("want one H and one L commit, got %v", modeDump(s))
	}
}

// TestPanicInCommitWindowClearsGate crashes an H commit inside its window
// — after the flag went up, where a crash is most dangerous: every later
// L transaction waits on that flag — and checks that AbandonInFlight
// (what Release runs on a worker a panic unwound) lowers it.
func TestPanicInCommitWindowClearsGate(t *testing.T) {
	s, sp := newSys(64, Config{})
	s.SetFaultInjector(sched.NewFaultInjector(sched.FaultSpec{Mode: "H", Op: "commit", Kind: sched.FaultPanic}))
	w := s.Worker(0).(*worker)
	var recovered any
	func() {
		defer func() { recovered = recover() }()
		_ = w.Run(2, func(tx sched.Tx) error {
			tx.Write(1, 1, 7)
			return nil
		})
	}()
	if _, ok := recovered.(sched.InjectedPanic); !ok {
		t.Fatalf("recovered %#v, want the injected commit panic", recovered)
	}
	if w.c.committing.Load() != 1 {
		t.Fatal("the injected panic did not fire inside the commit window: the test exercises nothing")
	}
	s.SetFaultInjector(nil)
	if !w.AbandonInFlight() {
		t.Fatal("worker not reusable")
	}
	if w.c.committing.Load() != 0 {
		t.Fatal("AbandonInFlight left the commit-gate flag up")
	}
	done := make(chan error, 1)
	go func() {
		done <- s.Worker(1).Run(lHint, func(tx sched.Tx) error {
			tx.Write(1, 1, tx.Read(1, 1)+1)
			return nil
		})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("an L transaction hangs on the flag of a worker whose commit panicked")
	}
	if got := sp.Load(1); got != 1 {
		t.Fatalf("word = %d: the crashed commit published, or the L transaction did not", got)
	}
	// The abandoned worker commits again, H and L.
	for _, hint := range []int{2, lHint} {
		if err := w.Run(hint, smallFootprint); err != nil {
			t.Fatal(err)
		}
	}
}

// TestLateWorkerSeesLActive: a worker created while an L transaction is
// open is in no registry scan that transaction made, so its H commits
// must find lActive > 0 and take the write vertices' locks for real.
func TestLateWorkerSeesLActive(t *testing.T) {
	s, _ := newSys(64, Config{})
	// lockHeldInWindow runs one H transaction writing vertex 5 on a fresh
	// worker and reports whether its commit held vertex 5's lock.
	lockHeldInWindow := func(tid int) bool {
		held := false
		err := s.Worker(tid).Run(2, func(tx sched.Tx) error {
			tx.Write(5, 5, tx.Read(5, 5)+1)
			inCommitWindow(tx, func() bool {
				held = !vlock.StampFree(s.locks.Stamp(5))
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return held
	}
	if lockHeldInWindow(0) {
		t.Fatal("an H commit with no L transaction in flight took a vertex lock: not the fast path")
	}

	inL, release, lDone := make(chan struct{}), make(chan struct{}), make(chan error, 1)
	go func() {
		lDone <- s.Worker(1).Run(lHint, func(tx sched.Tx) error {
			tx.Write(9, 9, 1)
			close(inL)
			<-release
			return nil
		})
	}()
	<-inL
	if !lockHeldInWindow(2) {
		t.Fatal("a worker created while an L transaction was open committed in H without the vertex lock")
	}
	close(release)
	if err := <-lDone; err != nil {
		t.Fatal(err)
	}
	if lockHeldInWindow(3) {
		t.Fatal("the fast path did not come back after the L transaction ended")
	}
}

// TestOneCountFourViews: a commit is recorded once, by the committing
// worker, and Stats, ModeStats, HTMStats and the metrics snapshot are
// views of that one record. Workers commit known numbers of H, O and L
// transactions concurrently on private lines (so every transaction
// commits in the class its hint names), with one injected abort and one
// user stop; the views must agree exactly, and again after ResetStats and
// a second round on the same workers.
func TestOneCountFourViews(t *testing.T) {
	const (
		workers   = 4
		perWorker = 64 // vertices (one cache line each) a worker owns
		// Of a worker's 360 transactions every 18th is hinted into L and
		// every 9th, offset 4, into O under the ceilings below.
		commitsPerWorker    = 360
		wantH, wantO, wantL = workers * 300, workers * 40, workers * 20
		total               = workers * commitsPerWorker
	)
	hintOf := func(i int) int {
		switch {
		case i%18 == 0:
			return 128
		case i%9 == 4:
			return 32
		}
		return 4
	}
	sp := mem.NewSpace(workers*perWorker*mem.WordsPerLine + 4096)
	s := New(sp, workers*perWorker, Config{HMaxHint: 8, OMaxHint: 64})
	ws := make([]sched.Worker, workers)
	for tid := range ws {
		ws[tid] = s.Worker(tid)
	}
	boom := errors.New("boom")

	round := func() {
		s.SetFaultInjector(sched.NewFaultInjector(sched.FaultSpec{Mode: "H", Op: "write", N: 5}))
		defer s.SetFaultInjector(nil)
		var wg sync.WaitGroup
		for tid, w := range ws {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rmw2 := func(i int) sched.TxFunc { // two private lines
					return func(tx sched.Tx) error {
						for k := 0; k < 2; k++ {
							v := uint32(tid*perWorker + (i+k)%perWorker)
							a := mem.Addr(v) * mem.WordsPerLine
							tx.Write(v, a, tx.Read(v, a)+1)
						}
						return nil
					}
				}
				for i := 0; i < commitsPerWorker; i++ {
					if err := w.Run(hintOf(i), rmw2(i)); err != nil {
						t.Error(err)
						return
					}
				}
				if tid == 0 {
					if err := w.Run(hintOf(1), func(sched.Tx) error { return boom }); !errors.Is(err, boom) {
						t.Errorf("user stop returned %v", err)
					}
				}
			}()
		}
		wg.Wait()
	}

	check := func(when string) {
		t.Helper()
		st := s.Stats().Snapshot()
		ms := s.ModeStats()
		hs := s.HTMStats()
		snap := s.Metrics().Snapshot()
		if st.Commits != total {
			t.Errorf("%s: Stats().Commits = %d, want %d", when, st.Commits, total)
		}
		if got := snap.Commits(); got != total {
			t.Errorf("%s: metrics snapshot commits = %d, want %d", when, got, total)
		}
		var classes, ops, histCount, histSum uint64
		for _, c := range Classes() {
			classes += ms.Count(c)
			ops += ms.Ops(c)
			m := snap.Modes[c.String()]
			if m.Commits != ms.Count(c) {
				t.Errorf("%s: class %v: ModeStats counts %d commits, the metrics snapshot %d", when, c, ms.Count(c), m.Commits)
			}
			histCount += m.Retries.Count()
			histSum += m.Retries.Sum
		}
		if classes != total || histCount != total {
			t.Errorf("%s: ModeStats counts sum to %d, the retries histograms hold %d entries, want %d", when, classes, histCount, total)
		}
		if ms.Count(ClassH) != wantH || ms.Count(ClassO) != wantO || ms.Count(ClassL) != wantL {
			t.Errorf("%s: classes %v, want H=%d O=%d L=%d", when, modeDump(s), wantH, wantO, wantL)
		}
		// Each transaction does 2 reads and 2 writes, whatever its mode.
		if ops != 4*total || st.Reads != 2*total || st.Writes != 2*total {
			t.Errorf("%s: ops %d reads %d writes %d, want %d/%d/%d", when, ops, st.Reads, st.Writes, 4*total, 2*total, 2*total)
		}
		// An O transaction this small is one segment; the injected abort
		// and the user stop are H starts that did not commit.
		if hs.Commits != wantH+wantO {
			t.Errorf("%s: HTMStats().Commits = %d, want H commits + O segments = %d", when, hs.Commits, wantH+wantO)
		}
		if hs.Starts != wantH+wantO+2 {
			t.Errorf("%s: HTMStats().Starts = %d, want %d", when, hs.Starts, wantH+wantO+2)
		}
		if st.Aborts != 1 || snap.Aborts() != 1 || histSum != 1 {
			t.Errorf("%s: aborts: Stats %d, metrics %d, retries sum %d, want the one injected abort in each", when, st.Aborts, snap.Aborts(), histSum)
		}
		if st.UserStops != 1 || snap.Modes["H"].Stops["user"] != 1 {
			t.Errorf("%s: user stops: Stats %d, metrics %v, want 1", when, st.UserStops, snap.Modes["H"].Stops)
		}
	}

	round()
	check("first round")
	s.ResetStats()
	if st, snap := s.Stats().Snapshot(), s.Metrics().Snapshot(); st != (sched.Snapshot{}) || snap.Commits() != 0 || s.HTMStats() != (htm.StatsSnapshot{}) || s.ModeStats() != (ModeStats{}) {
		t.Fatalf("after ResetStats: Stats %+v, metrics commits %d, HTM %+v, modes %v", st, snap.Commits(), s.HTMStats(), modeDump(s))
	}
	round()
	check("second round, after ResetStats, on the same workers")
}

// BenchmarkHCommitDisjoint is the "shares nothing" number: every
// goroutine runs b.N H-mode transactions (read-modify-write of 8 words on
// 8 lines, the benchmark's core.atomic_h_ns body) on its own worker and
// its own vertices, so ns/op is what one transaction costs its thread.
// Run it at -cpu 1,2: with nothing but data shared, and this data
// disjoint, the second thread should not make the first one slower.
func BenchmarkHCommitDisjoint(b *testing.B) {
	const perWorker = 1024 // vertices, one cache line each
	p := runtime.GOMAXPROCS(0)
	sp := mem.NewSpace(p*perWorker*mem.WordsPerLine + 4096)
	s := New(sp, p*perWorker, Config{})
	var wg sync.WaitGroup
	b.ResetTimer()
	for tid := 0; tid < p; tid++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := s.Worker(tid)
			base := uint32(tid * perWorker)
			var at uint32
			body := func(tx sched.Tx) error {
				for k := uint32(0); k < 8; k++ {
					v := base + (at+k)%perWorker
					a := mem.Addr(v) * mem.WordsPerLine
					tx.Write(v, a, tx.Read(v, a)+1)
				}
				return nil
			}
			for i := 0; i < b.N; i++ {
				at = uint32(i*8) % perWorker
				if err := w.Run(8, body); err != nil {
					b.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
