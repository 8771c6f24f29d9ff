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
	"tufast/internal/obs"
	"tufast/internal/sched"
	"tufast/internal/vlock"
)

// lHint routes a transaction straight to L mode under the zero Config.
const lHint = 1 << 21

// inCommitWindow registers, from inside an H-mode body, a subscription
// check. Registered after the body's last operation it runs only inside
// Commit's validation — that is inside the worker's commit-gate window,
// after lState was read and with the written lines locked.
func inCommitWindow(tx sched.Tx, check htm.Check) {
	tx.(*hCtx).tx.AddCheck(check)
}

// TestLEntryWaitsForHCommitWindow holds a quiet H commit that has passed
// its last look at lState (no locker had arrived) inside its window and
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
	for lockers(s.lState.Load()) == 0 {
		runtime.Gosched() // until the L transaction has announced itself
	}
	select {
	case <-lDone:
		t.Fatal("the L transaction finished while an H commit that saw no locker was still publishing")
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
	if commits(s, obs.ModeH) != 1 || commits(s, obs.ModeL) != 1 {
		t.Fatalf("want one H and one L commit, got %v", modeDump(s))
	}
}

// TestStalledHCommitWaitCounted: an H commit stalled inside its
// commit-gate window (FaultStall at its AtCommit hook) holds an L
// transaction at its entry, in awaitHCommits; the wait is recorded once,
// under committing, for about the stall.
func TestStalledHCommitWaitCounted(t *testing.T) {
	const stall = 200 * time.Millisecond
	s, _ := newSys(64, Config{})
	fi := sched.NewFaultInjector(sched.FaultSpec{Mode: "H", Op: "commit", Kind: sched.FaultStall, Stall: stall})
	s.SetFaultInjector(fi)
	hDone := make(chan error, 1)
	go func() {
		hDone <- s.Worker(0).Run(2, func(tx sched.Tx) error { tx.Write(1, 1, 42); return nil })
	}()
	for fi.Fired() == 0 {
		time.Sleep(50 * time.Microsecond)
	}
	if err := s.Worker(1).Run(lHint, func(tx sched.Tx) error { tx.Write(5, 5, 1); return nil }); err != nil {
		t.Fatal(err)
	}
	if err := <-hDone; err != nil {
		t.Fatal(err)
	}
	if commits(s, obs.ModeL) != 1 {
		t.Fatalf("want one L commit, got %v", modeDump(s))
	}
	waits := snapshot(s).Waits
	if w := waits["committing"]; w.Waits != 1 || w.Ns < uint64(stall/2) {
		t.Fatalf("waits %+v; want one committing wait of at least %v", waits, stall/2)
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
// open is in no registry scan that transaction made, so its H attempts
// must find it in lState, run subscribed and take the write vertices'
// locks for real.
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

// stayInH keeps a transaction retrying in H mode for as long as a test
// holds the locker it fails against, so every abort the test counts is an
// H-mode one.
const stayInH = 1 << 20

// pausedH runs, on a new worker of s, one H-shaped transaction whose first
// attempt stops between first and rest until the returned resume is called;
// later attempts run both halves straight through. retried is closed when
// the second attempt begins, done receives Run's result.
func pausedH(s *System, tid int, first, rest func(tx sched.Tx)) (paused, retried chan struct{}, resume func(), done chan error) {
	paused, retried = make(chan struct{}), make(chan struct{})
	gate := make(chan struct{})
	done = make(chan error, 1)
	go func() {
		attempt := 0
		done <- s.Worker(tid).Run(4, func(tx sched.Tx) error {
			if attempt++; attempt == 2 {
				close(retried)
			}
			first(tx)
			if attempt == 1 {
				close(paused)
				<-gate
			}
			rest(tx)
			return nil
		})
	}()
	return paused, retried, func() { close(gate) }, done
}

// wantOneKill checks that exactly one quiet attempt was killed and that it
// was recorded as an explicit abort, never as a data conflict, both in
// the emulated-HTM counts and among H's aborts.
func wantOneKill(t *testing.T, s *System) {
	t.Helper()
	snap := snapshot(s)
	if qs := snap.HQuiet; qs.Killed != 1 {
		t.Errorf("quiet attempts killed = %d, want the paused one (%+v)", qs.Killed, qs)
	}
	if hs := snap.HTM; hs.Aborts["explicit"] == 0 || hs.Aborts["conflict"] != 0 {
		t.Errorf("HTM %+v: want the kill as an explicit abort and no data conflict", hs)
	}
	if m := snap.Modes["H"]; m.Aborts["explicit"] == 0 || m.Aborts["conflict"] != 0 {
		t.Errorf("metrics H aborts %v: want the kill as an explicit abort and no data conflict", m.Aborts)
	}
}

// TestQuietHSeesOCommitAnnounced: a quiet H attempt reads A, an O commit
// writing B and A gets as far as storing B, and the H attempt reads B. The
// write-back is stopped where no hook reaches — by holding the seqlock of
// a third line it stores between the two — so A's version is still the one
// H read and B's is one H has never seen: H's read set validates, and
// only the O commit's announcement in lState tells the attempt that it is
// looking at half a write-back. Every vertex sits on its own line.
func TestQuietHSeesOCommitAnnounced(t *testing.T) {
	const A, B, C = 0, 1, 2
	addr := func(v uint32) mem.Addr { return mem.Addr(v) * mem.WordsPerLine }
	sp := mem.NewSpace(4096)
	s := New(sp, 8, Config{HMaxHint: 8, OMaxHint: 64, HRetries: stayInH})

	var a, b uint64
	paused, retried, resume, hDone := pausedH(s, 0,
		func(tx sched.Tx) { a = tx.Read(A, addr(A)) },
		func(tx sched.Tx) { b = tx.Read(B, addr(B)) })
	<-paused

	lineC := mem.LineOf(addr(C))
	metaC := sp.Meta(lineC)
	if !sp.TryLockLine(lineC, metaC) {
		t.Fatal("line C is not free")
	}
	oDone := make(chan error, 1)
	go func() {
		oDone <- s.Worker(1).Run(32, func(tx sched.Tx) error {
			tx.Write(B, addr(B), 1)
			tx.Write(C, addr(C), 1)
			tx.Write(A, addr(A), 1)
			return nil
		})
	}()
	for sp.Load(addr(B)) == 0 {
		runtime.Gosched() // until the write-back has stored B and spins on C
	}
	if got := lockers(s.lState.Load()); got != 1 {
		t.Errorf("%d lockers announced in the middle of an O commit's write-back, want 1", got)
	}
	resume()
	select {
	case <-retried:
	case err := <-hDone:
		t.Fatalf("the H attempt that read A before and B after half an O write-back committed (A=%d B=%d, err %v)", a, b, err)
	}
	sp.RevertLine(lineC, metaC|1)
	if err := <-oDone; err != nil {
		t.Fatal(err)
	}
	if err := <-hDone; err != nil {
		t.Fatal(err)
	}
	if a != 1 || b != 1 {
		t.Fatalf("H committed having read A=%d B=%d, want both of the O commit's writes", a, b)
	}
	wantOneKill(t, s)
	if got := lockers(s.lState.Load()); got != 0 {
		t.Fatalf("%d lockers announced with nothing in flight", got)
	}
}

// TestQuietHDiesWhenLStoresInPlace: a quiet H attempt reads v, an L
// transaction enters and stores v in place, and the attempt goes on: it
// must die at its next operation, of the locker's arrival — the line
// version moved as well, but what killed it is the subscription.
func TestQuietHDiesWhenLStoresInPlace(t *testing.T) {
	s, _ := newSys(64, Config{HRetries: stayInH})
	var first, second uint64
	paused, retried, resume, hDone := pausedH(s, 0,
		func(tx sched.Tx) { first = tx.Read(1, 1) },
		func(tx sched.Tx) { second = tx.Read(1, 1) + tx.Read(20, 20) })
	<-paused

	stored, release, lDone := make(chan struct{}), make(chan struct{}), make(chan error, 1)
	go func() {
		lDone <- s.Worker(1).Run(lHint, func(tx sched.Tx) error {
			tx.Write(1, 1, 7)
			close(stored)
			<-release
			return nil
		})
	}()
	<-stored
	resume()
	select {
	case <-retried:
	case err := <-hDone:
		t.Fatalf("an H attempt committed across an L transaction's in-place store (read %d then %d, err %v)", first, second, err)
	}
	close(release)
	if err := <-lDone; err != nil {
		t.Fatal(err)
	}
	if err := <-hDone; err != nil {
		t.Fatal(err)
	}
	if first != 7 || second != 7 {
		t.Fatalf("H committed having read %d then %d, want the L transaction's 7 twice", first, second)
	}
	wantOneKill(t, s)
}

// TestQuietHWriterNeverPublishesUnderLReader: an L transaction's reads are
// plain loads under shared vertex locks, so an H writer of a vertex it
// holds must not publish before it ends. A quiet writer holds no intent
// and takes no lock: it must die at commit, of the L transaction's
// arrival, and its subscribed retries must fail on the real lock.
func TestQuietHWriterNeverPublishesUnderLReader(t *testing.T) {
	s, sp := newSys(64, Config{HRetries: stayInH})
	paused, retried, resume, hDone := pausedH(s, 0,
		func(tx sched.Tx) { tx.Write(1, 1, 99) },
		func(sched.Tx) {})
	<-paused

	var before, after uint64
	read, again, lDone := make(chan struct{}), make(chan struct{}), make(chan error, 1)
	go func() {
		lDone <- s.Worker(1).Run(lHint, func(tx sched.Tx) error {
			before = tx.Read(1, 1)
			close(read)
			<-again
			after = sp.Load(1) // what a second plain read under the shared lock sees
			return nil
		})
	}()
	<-read
	resume()
	select {
	case <-retried:
	case err := <-hDone:
		t.Fatalf("a quiet H writer committed under an L reader's shared lock (word = %d, err %v)", sp.Load(1), err)
	}
	for snapshot(s).Totals().Aborts < 3 {
		runtime.Gosched() // the kill, and two subscribed retries turned away by the shared lock
	}
	close(again)
	if err := <-lDone; err != nil {
		t.Fatal(err)
	}
	if err := <-hDone; err != nil {
		t.Fatal(err)
	}
	if before != 0 || after != 0 {
		t.Fatalf("the L transaction read %d then %d from a vertex it held shared, want 0 twice", before, after)
	}
	if got := sp.Load(1); got != 99 {
		t.Fatalf("word = %d after both finished, want the H write", got)
	}
	wantOneKill(t, s)
}

// TestOCommitLowersCountOnEveryExit: an O commit with writes counts itself
// in lState for the length of its window. A count left up breaks nothing
// and silently turns every later H attempt into a subscribed one for the
// life of the System, so every way out of the window — success, a lock
// that could not be had, a read that no longer validates, an injected
// commit fault, a panic followed by AbandonInFlight — must lower it.
func TestOCommitLowersCountOnEveryExit(t *testing.T) {
	cfg := Config{HMaxHint: 1}
	write5 := func(tx sched.Tx) error {
		tx.Write(5, 5, tx.Read(5, 5)+1)
		return nil
	}
	// settled checks the count is back at 0 and the fast path with it.
	settled := func(t *testing.T, s *System, w sched.Worker, wantAborts uint64) {
		t.Helper()
		if got := snapshot(s).Totals().Aborts; got != wantAborts {
			t.Errorf("%d aborted attempts, want %d: the exit under test was not taken", got, wantAborts)
		}
		if got := lockers(s.lState.Load()); got != 0 {
			t.Fatalf("%d lockers announced after the O commit left its window", got)
		}
		begun := snapshot(s).HQuiet.Attempts
		if err := w.Run(1, smallFootprint); err != nil {
			t.Fatal(err)
		}
		if snapshot(s).HQuiet.Attempts != begun+1 || commits(s, obs.ModeH) != 1 {
			t.Fatalf("the H transaction after it did not run quiet (%+v, %v)", snapshot(s).HQuiet, modeDump(s))
		}
	}

	t.Run("commit", func(t *testing.T) {
		s, _ := newSys(64, cfg)
		w := s.Worker(0)
		if err := w.Run(4, write5); err != nil {
			t.Fatal(err)
		}
		settled(t, s, w, 0)
	})
	t.Run("read-only commit announces nothing", func(t *testing.T) {
		s, _ := newSys(64, cfg)
		w := s.Worker(0)
		gen := s.lState.Load()
		if err := w.Run(4, func(tx sched.Tx) error { _ = tx.Read(5, 5); return nil }); err != nil {
			t.Fatal(err)
		}
		if s.lState.Load() != gen {
			t.Fatal("an O commit that takes no lock moved lState")
		}
		settled(t, s, w, 0)
	})
	t.Run("lock not acquired", func(t *testing.T) {
		s, _ := newSys(64, cfg)
		w := s.Worker(0)
		if !s.locks.TryExclusive(5, 7) {
			t.Fatal("vertex 5 is not free")
		}
		attempt := 0
		err := w.Run(4, func(tx sched.Tx) error {
			if attempt++; attempt == 2 {
				s.locks.ReleaseExclusive(5, 7)
			}
			tx.Write(5, 5, 1) // blind: only the commit meets the lock
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		settled(t, s, w, 1)
	})
	t.Run("validation failed", func(t *testing.T) {
		s, sp := newSys(64, cfg)
		w := s.Worker(0)
		attempt := 0
		err := w.Run(4, func(tx sched.Tx) error {
			err := write5(tx)
			if attempt++; attempt == 1 {
				sp.StoreVersioned(5, 10) // someone else's commit, after the read
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := sp.Load(5); got != 11 {
			t.Fatalf("word = %d, want the retry's 11", got)
		}
		settled(t, s, w, 1)
	})
	t.Run("injected commit fault", func(t *testing.T) {
		s, _ := newSys(64, cfg)
		w := s.Worker(0)
		s.SetFaultInjector(sched.NewFaultInjector(sched.FaultSpec{Mode: "O", Op: "commit"}))
		if err := w.Run(4, write5); err != nil {
			t.Fatal(err)
		}
		s.SetFaultInjector(nil)
		settled(t, s, w, 1)
	})
	t.Run("panic in the window", func(t *testing.T) {
		s, sp := newSys(64, cfg)
		w := s.Worker(0).(*worker)
		s.SetFaultInjector(sched.NewFaultInjector(sched.FaultSpec{Mode: "O", Op: "commit", Kind: sched.FaultPanic}))
		var recovered any
		func() {
			defer func() { recovered = recover() }()
			_ = w.Run(4, write5)
		}()
		s.SetFaultInjector(nil)
		if _, ok := recovered.(sched.InjectedPanic); !ok {
			t.Fatalf("recovered %#v, want the injected commit panic", recovered)
		}
		if got := lockers(s.lState.Load()); got != 1 {
			t.Fatalf("%d lockers announced after the panic: it did not fire inside the window, the test exercises nothing", got)
		}
		if !w.AbandonInFlight() {
			t.Fatal("worker not reusable")
		}
		if got := sp.Load(5); got != 0 {
			t.Fatalf("word = %d: the crashed commit published", got)
		}
		settled(t, s, w, 0)
	})
}

// TestOneCountFourViews: a commit is recorded once, by the committing
// worker, and the four views of a metrics snapshot — its totals, its
// per-mode counts and histograms, its emulated-HTM counts and its quiet
// H-attempt counts — read that one record. Workers commit known numbers
// of H, O and L transactions concurrently on private lines (so every
// transaction commits in the class its hint names), with one injected
// abort and one user stop; the views must agree exactly, and again after
// a reset and a second round on the same workers. The O commits and L
// transactions kill whichever quiet H attempts they arrive beside, so how
// many attempts aborted is exact only in a round of H transactions alone;
// that every abort is counted once in every view is exact in both. A
// last round runs L transactions alone with the injected abort at an L
// commit: the retry loop L mode runs under records it once, under L, in
// the core worker's probe, and waits once on that probe.
func TestOneCountFourViews(t *testing.T) {
	const (
		workers   = 4
		perWorker = 64 // vertices (one cache line each) a worker owns
		// Of a worker's 360 transactions in a mixed round every 18th is
		// hinted into L and every 9th, offset 4, into O under the ceilings
		// below.
		commitsPerWorker = 360
		total            = workers * commitsPerWorker
	)
	mixedHint := func(i int) int {
		switch {
		case i%18 == 0:
			return 128
		case i%9 == 4:
			return 32
		}
		return 4
	}
	hOnlyHint := func(int) int { return 4 }
	lOnlyHint := func(int) int { return 128 }
	hFault := sched.FaultSpec{Mode: "H", Op: "write", N: 5}
	lFault := sched.FaultSpec{Mode: "L", Op: "commit"}
	sp := mem.NewSpace(workers*perWorker*mem.WordsPerLine + 4096)
	s := New(sp, workers*perWorker, Config{HMaxHint: 8, OMaxHint: 64})
	ws := make([]sched.Worker, workers)
	for tid := range ws {
		ws[tid] = s.Worker(tid)
	}
	boom := errors.New("boom")

	round := func(hintOf func(int) int, fault sched.FaultSpec) {
		s.SetFaultInjector(sched.NewFaultInjector(fault))
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

	// check's mode is where the round's injected abort and user stop land.
	check := func(when, mode string, wantH, wantO, wantL uint64) {
		t.Helper()
		snap := snapshot(s)
		st, hs, qs := snap.Totals(), snap.HTM, snap.HQuiet
		if st.Commits != total {
			t.Errorf("%s: snapshot commits = %d, want %d", when, st.Commits, total)
		}
		var classes, ops, histCount, histSum uint64
		for _, c := range fig15 {
			m := snap.Modes[c.String()]
			classes += m.Commits
			ops += m.Reads + m.Writes
			histCount += m.Retries.Count()
			histSum += m.Retries.Sum
		}
		if classes != total || histCount != total {
			t.Errorf("%s: class commits sum to %d, the retries histograms hold %d entries, want %d", when, classes, histCount, total)
		}
		if snap.Modes["H"].Commits != wantH || snap.Modes["O"].Commits != wantO || snap.Modes["L"].Commits != wantL {
			t.Errorf("%s: classes %v, want H=%d O=%d L=%d", when, modeDump(s), wantH, wantO, wantL)
		}
		// Each transaction does 2 reads and 2 writes, whatever its mode.
		if ops != 4*total || st.Reads != 2*total || st.Writes != 2*total {
			t.Errorf("%s: ops %d reads %d writes %d, want %d/%d/%d", when, ops, st.Reads, st.Writes, 4*total, 2*total, 2*total)
		}
		// An O transaction this small is one segment, and on private
		// lines it never aborts.
		if hs.Commits != wantH+wantO {
			t.Errorf("%s: HTM commits = %d, want H commits + O segments = %d", when, hs.Commits, wantH+wantO)
		}
		// The aborted attempts are the injected one and the quiet
		// attempts a locker killed, each counted once in every view; of
		// them the emulated HTM itself saw only the kills, as explicit
		// aborts, and only the injected one waited. In H, every abort and
		// the user stop is an H start that did not commit.
		aborts := 1 + qs.Killed
		t.Logf("%s: %d of %d H attempts began quiet, %d killed", when, qs.Attempts, hs.Starts, qs.Killed)
		if st.Aborts != aborts || histSum != aborts {
			t.Errorf("%s: aborts: totals %d, retries sum %d, want the injected one + %d kills in each", when, st.Aborts, histSum, qs.Killed)
		}
		var htmAborts uint64
		for _, c := range hs.Aborts {
			htmAborts += c
		}
		if got := snap.Modes["H"].Aborts["explicit"]; got != qs.Killed || hs.Aborts["explicit"] != qs.Killed || htmAborts != qs.Killed {
			t.Errorf("%s: %d kills, but H has %d explicit aborts and HTM %+v", when, qs.Killed, got, hs)
		}
		if w := snap.Waits["backoff"].Waits; w != 1 {
			t.Errorf("%s: %d backoff waits, want the injected abort's one", when, w)
		}
		starts := wantH + wantO
		if mode == "H" {
			starts += aborts + 1
		}
		if hs.Starts != starts {
			t.Errorf("%s: HTM starts = %d, want %d", when, hs.Starts, starts)
		}
		if st.UserStops != 1 || snap.Modes[mode].Stops["user"] != 1 {
			t.Errorf("%s: user stops: totals %d, modes %v, want 1 in %s", when, st.UserStops, snap.Modes[mode].Stops, mode)
		}
		if mode == "L" && (len(snap.Modes["L"].Aborts) != 1 || snap.Modes["L"].Aborts["conflict"] != 1) {
			t.Errorf("%s: L aborts %v, want the injected one as a conflict", when, snap.Modes["L"].Aborts)
		}
		if wantO+wantL == 0 {
			// No locker all round: every H attempt ran quiet, none died of
			// it, and the one abort is the injected one.
			if qs.Killed != 0 || qs.Attempts != hs.Starts {
				t.Errorf("%s: %+v of %d H attempts with no locker in flight", when, qs, hs.Starts)
			}
		}
	}
	reset := func() {
		t.Helper()
		s.Metrics().Reset()
		snap := snapshot(s)
		if len(snap.Modes) != 0 || len(snap.Waits) != 0 || snap.HQuiet != (obs.QuietSnapshot{}) ||
			snap.HTM.Starts != 0 || snap.HTM.Commits != 0 || snap.HTM.Ops != 0 || snap.HTM.WastedOps != 0 || len(snap.HTM.Aborts) != 0 {
			t.Fatalf("after the reset: %+v", snap)
		}
	}

	round(mixedHint, hFault)
	check("mixed round", "H", workers*300, workers*40, workers*20)
	reset()
	round(mixedHint, hFault)
	check("second mixed round, after ResetStats, on the same workers", "H", workers*300, workers*40, workers*20)
	reset()
	round(hOnlyHint, hFault)
	check("H-only round", "H", total, 0, 0)
	reset()
	round(lOnlyHint, lFault)
	check("L-only round", "L", 0, 0, total)
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
