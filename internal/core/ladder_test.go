package core

import (
	"errors"
	"sync"
	"testing"

	"tufast/internal/htm"
	"tufast/internal/mem"
	"tufast/internal/obs"
	"tufast/internal/sched"
)

// One cache set's worth of trouble: setStride words apart, two addresses
// fall into the same set of the emulated L1, so overflowLines of them
// overflow it in H mode and in every O-mode segment of at least that
// many reads — however small the size hint says the transaction is.
const (
	setStride     = htm.CacheSets * mem.WordsPerLine
	overflowLines = htm.CacheWays + 4
)

func newLadderSys(cfg Config) *System {
	return New(mem.NewSpace(overflowLines*setStride+4096), overflowLines, cfg)
}

// overflowOneSet reads overflowLines lines of one cache set (vertex i
// owns line i) and bumps the first.
func overflowOneSet(tx sched.Tx) error {
	var sum uint64
	for i := uint32(0); i < overflowLines; i++ {
		sum += tx.Read(i, mem.Addr(i)*setStride)
	}
	tx.Write(0, 0, sum+1)
	return nil
}

func smallFootprint(tx sched.Tx) error {
	tx.Write(0, 0, tx.Read(0, 0)+1)
	return nil
}

// levelAtEntry runs one small transaction and reports the backoff level
// its first attempt started at.
func levelAtEntry(t *testing.T, w *worker) uint {
	t.Helper()
	level := ^uint(0)
	err := w.Run(2, func(tx sched.Tx) error {
		if level == ^uint(0) {
			level = w.loop.Backoff().Level()
		}
		return smallFootprint(tx)
	})
	if err != nil {
		t.Fatal(err)
	}
	return level
}

// TestBackoffStartsAtZeroAfterLadder is the regression test for the
// ratchet: a transaction that waited in H and then committed (or was
// stopped by the user) in L used to leave its backoff level behind, so
// consecutive hub transactions climbed to millisecond sleeps.
func TestBackoffStartsAtZeroAfterLadder(t *testing.T) {
	s := newLadderSys(Config{})
	w := s.Worker(0).(*worker)

	// The injected H abort is transient, so the transaction waits once
	// before its second H attempt overflows and the ladder takes it
	// through O to L.
	s.SetFaultInjector(sched.NewFaultInjector(sched.FaultSpec{Mode: "H", Op: "read"}))
	if err := w.Run(16, overflowOneSet); err != nil {
		t.Fatal(err)
	}
	if got := commits(s, obs.ModeO2L); got != 1 {
		t.Fatalf("want one O2L commit, got %v", modeDump(s))
	}
	if waits := s.Metrics().Snapshot().Waits["backoff"].Waits; waits == 0 {
		t.Fatal("the ladder never waited: the test exercises nothing")
	}
	if l := levelAtEntry(t, w); l != 0 {
		t.Fatalf("backoff level %d at the start of the transaction after an O2L commit, want 0", l)
	}

	// The same ladder, stopped by the user once it reaches L.
	boom := errors.New("boom")
	s.SetFaultInjector(sched.NewFaultInjector(sched.FaultSpec{Mode: "H", Op: "read"}))
	err := w.Run(16, func(tx sched.Tx) error {
		if err := overflowOneSet(tx); err != nil {
			return err
		}
		if _, inL := tx.(*sched.TPLWorker); inL {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the L-mode user stop", err)
	}
	if l := levelAtEntry(t, w); l != 0 {
		t.Fatalf("backoff level %d at the start of the transaction after a user-stopped L transaction, want 0", l)
	}
}

// TestBackoffLevelCarriesAcrossRungs: a transaction keeps one backoff
// level across H and O — its O rung starts at the level H's waits left,
// which is what spaces out the retries of a contended transaction that
// overflowed H — while its L rung starts at level 0 on a loop of its own,
// however the previous L transaction left that loop.
func TestBackoffLevelCarriesAcrossRungs(t *testing.T) {
	s := newLadderSys(Config{})
	w := s.Worker(0).(*worker)

	// A direct-L transaction that waits once leaves its loop above 0.
	s.SetFaultInjector(sched.NewFaultInjector(sched.FaultSpec{Mode: "L", Op: "read"}))
	if err := w.Run(s.cfg.OMaxHint+1, smallFootprint); err != nil {
		t.Fatal(err)
	}
	if w.l.Backoff().Level() == 0 {
		t.Fatal("the L transaction never waited: the test exercises nothing")
	}

	// The injected H abort is transient, so H waits once before its
	// second attempt overflows; O overflows every segment and gives up
	// without a wait, and L commits.
	s.SetFaultInjector(sched.NewFaultInjector(sched.FaultSpec{Mode: "H", Op: "read"}))
	const unset = ^uint(0)
	hLeft, oEntry, lEntry := unset, unset, unset
	err := w.Run(16, func(tx sched.Tx) error {
		switch tx.(type) {
		case *hCtx:
			hLeft = w.loop.Backoff().Level()
		case *oCtx:
			if oEntry == unset {
				oEntry = w.loop.Backoff().Level()
			}
		case *sched.TPLWorker:
			if lEntry == unset {
				lEntry = w.l.Backoff().Level()
			}
		}
		return overflowOneSet(tx)
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := commits(s, obs.ModeO2L); got != 1 {
		t.Fatalf("want one O2L commit, got %v", modeDump(s))
	}
	if hLeft == 0 || hLeft == unset {
		t.Fatalf("H's last attempt ran at level %d: H never waited", hLeft)
	}
	if oEntry != hLeft {
		t.Fatalf("O entered at backoff level %d, H left it at %d", oEntry, hLeft)
	}
	if lEntry != 0 {
		t.Fatalf("L entered at backoff level %d, want 0", lEntry)
	}
}

// TestOCapacityAbortDoesNotBackOff: a capacity abort is deterministic, so
// neither H (which goes straight to O) nor O (which halves its period and
// retries at once) waits after one.
func TestOCapacityAbortDoesNotBackOff(t *testing.T) {
	s := newLadderSys(Config{})
	w := s.Worker(0)
	if err := w.Run(16, overflowOneSet); err != nil {
		t.Fatal(err)
	}
	snap := s.Metrics().Snapshot()
	if got := snap.Modes["O"].Aborts["capacity"]; got < 2 {
		t.Fatalf("want repeated O capacity aborts, got %d (%v)", got, modeDump(s))
	}
	if w := snap.Waits["backoff"].Waits; w != 0 {
		t.Fatalf("capacity aborts recorded %d backoff waits, want 0", w)
	}
}

// ladderTrace reports which modes one transaction's attempts ran in.
type ladderTrace struct{ h, o, l bool }

func runTraced(t *testing.T, w sched.Worker, hint int, body sched.TxFunc) ladderTrace {
	t.Helper()
	var tr ladderTrace
	err := w.Run(hint, func(tx sched.Tx) error {
		switch tx.(type) {
		case *hCtx:
			tr.h = true
		case *oCtx:
			tr.o = true
		case *sched.TPLWorker:
			tr.l = true
		}
		return body(tx)
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestRouterLearnsAndRelearns drives one size class through a phase
// change: while its footprint overflows a cache set the class must stop
// entering H and O (but keep probing them), and once the footprint
// shrinks the probes must bring it back to H.
func TestRouterLearnsAndRelearns(t *testing.T) {
	s := newLadderSys(Config{})
	w := s.Worker(0)
	const hint = 16

	// Fewer than routeMinSamples outcomes never reroute.
	for i := 0; i < routeMinSamples-1; i++ {
		if tr := runTraced(t, w, hint, overflowOneSet); !tr.h || !tr.o || !tr.l {
			t.Fatalf("transaction %d skipped a rung on %d samples: %+v", i, i, tr)
		}
	}
	// Within 64 transactions the class goes straight to L ...
	for i := routeMinSamples - 1; i < 64; i++ {
		runTraced(t, w, hint, overflowOneSet)
	}
	lBefore := commits(s, obs.ModeL)
	// ... and over the next 128 enters H only to probe: about one
	// transaction in routeProbeEvery.
	probes := 0
	for i := 0; i < 128; i++ {
		tr := runTraced(t, w, hint, overflowOneSet)
		if tr.h != tr.o {
			t.Fatalf("a probe runs the whole ladder, a skip none of it: %+v", tr)
		}
		if tr.h {
			probes++
		}
	}
	if probes < 2 || probes > 128/routeProbeEvery+1 {
		t.Fatalf("%d of 128 transactions of a skipping class entered H, want about %d", probes, 128/routeProbeEvery)
	}
	if got := commits(s, obs.ModeL) - lBefore; got != uint64(128-probes) {
		t.Fatalf("%d direct-L commits for %d skipped transactions (%v)", got, 128-probes, modeDump(s))
	}
	// Another size class is untouched by what this one learnt.
	if tr := runTraced(t, w, 4*hint, smallFootprint); !tr.h {
		t.Fatal("a class with no samples was rerouted")
	}

	// The footprint shrinks: within 64 probes the class is back in H.
	hBefore := commits(s, obs.ModeH)
	back := -1
	for i := 0; i < 64*routeProbeEvery; i++ {
		if rc := &w.(*worker).route[sizeClass(hint)]; !mostlyFails(rc.hCapacity, rc.hTries) {
			back = i
			break
		}
		runTraced(t, w, hint, smallFootprint)
	}
	if back < 0 {
		t.Fatalf("class still skips H after %d successful probes", commits(s, obs.ModeH)-hBefore)
	}
	for i := 0; i < 8; i++ {
		if tr := runTraced(t, w, hint, smallFootprint); !tr.h || tr.o || tr.l {
			t.Fatalf("after relearning, transaction %d ran %+v, want H alone", i, tr)
		}
	}
}

// TestRouterIsolationWhileLearning: one hot counter incremented by
// workers whose size class is being rerouted under them (full ladder,
// then straight to L, with probes in between) and by small H-mode
// transactions; no increment may be lost whichever mode mix a moment
// happens to have.
func TestRouterIsolationWhileLearning(t *testing.T) {
	s := newLadderSys(Config{})
	const workers, perWorker = 6, 4 * routeMinSamples
	var wg sync.WaitGroup
	for tid := 0; tid < workers; tid++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := s.Worker(tid)
			body := smallFootprint
			if tid%2 == 0 {
				body = func(tx sched.Tx) error {
					for i := uint32(1); i < overflowLines; i++ {
						_ = tx.Read(i, mem.Addr(i)*setStride)
					}
					return smallFootprint(tx)
				}
			}
			for i := 0; i < perWorker; i++ {
				if err := w.Run(16, body); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := s.sp.Load(0); got != workers*perWorker {
		t.Fatalf("counter = %d after %d increments (%v)", got, workers*perWorker, modeDump(s))
	}
	if commits(s, obs.ModeL) == 0 || commits(s, obs.ModeH) == 0 {
		t.Fatalf("want both learnt direct-L and H commits in the mix, got %v", modeDump(s))
	}
}

// TestRouterKeepsCeilings: what a class learns never lifts a transaction
// over HMaxHint or OMaxHint.
func TestRouterKeepsCeilings(t *testing.T) {
	s := newLadderSys(Config{HMaxHint: 8, OMaxHint: 12})
	w := s.Worker(0)
	// Hints 9..15 share bits.Len class 4 with hint 8; teach the class
	// that H works.
	for i := 0; i < 2*routeMinSamples; i++ {
		if tr := runTraced(t, w, 8, smallFootprint); !tr.h {
			t.Fatal("hint at the H ceiling did not start in H")
		}
	}
	if tr := runTraced(t, w, 10, smallFootprint); tr.h || !tr.o {
		t.Fatalf("hint over HMaxHint ran %+v, want O", tr)
	}
	if tr := runTraced(t, w, 14, smallFootprint); tr.h || tr.o || !tr.l {
		t.Fatalf("hint over OMaxHint ran %+v, want L", tr)
	}
}

// TestCommitsDoNotAllocate pins the commit paths at zero allocations: an
// H commit on the fast path with a footprint of 16 written lines, an H
// commit that takes real vertex locks because an L transaction is in
// flight (the common case on skewed graphs once hubs route straight to
// L), an O commit and an L commit.
func TestCommitsDoNotAllocate(t *testing.T) {
	twoVertices := func(tx sched.Tx) error {
		tx.Write(5, 5, tx.Read(5, 5)+1)
		tx.Write(3, 3, tx.Read(3, 3)+1)
		return nil
	}
	// allocsPerCommit runs body with hint on worker 0 of s, once to size
	// the worker's tables and then 201 times under AllocsPerRun, and
	// checks that each run committed in class.
	allocsPerCommit := func(t *testing.T, s *System, class obs.Mode, hint int, body sched.TxFunc) float64 {
		w := s.Worker(0)
		run := func() {
			if err := w.Run(hint, body); err != nil {
				t.Error(err)
			}
		}
		run()
		allocs := testing.AllocsPerRun(200, run)
		if got := commits(s, class); got != 1+201 {
			t.Errorf("want every run to commit in %v, got %v", class, modeDump(s))
		}
		return allocs
	}

	t.Run("H writing 16 lines", func(t *testing.T) {
		sixteenLines := func(tx sched.Tx) error {
			for v := uint32(0); v < 16; v++ {
				a := mem.Addr(v) * mem.WordsPerLine
				tx.Write(v, a, tx.Read(v, a)+1)
			}
			return nil
		}
		s := New(mem.NewSpace(4096), 16, Config{})
		if allocs := allocsPerCommit(t, s, obs.ModeH, 4, sixteenLines); allocs != 0 {
			t.Fatalf("H commit of 16 write lines allocates %.1f times", allocs)
		}
	})

	t.Run("H under an open L transaction", func(t *testing.T) {
		s := newLadderSys(Config{})
		inL, release, done := make(chan struct{}), make(chan struct{}), make(chan error, 1)
		go func() {
			done <- s.Worker(1).Run(s.cfg.OMaxHint+1, func(tx sched.Tx) error {
				tx.Write(9, 9, 1)
				close(inL)
				<-release
				return nil
			})
		}()
		<-inL
		allocs := allocsPerCommit(t, s, obs.ModeH, 4, twoVertices)
		close(release)
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		if allocs != 0 {
			t.Fatalf("H commit under an active L transaction allocates %.1f times", allocs)
		}
	})

	t.Run("O", func(t *testing.T) {
		if allocs := allocsPerCommit(t, newLadderSys(Config{HMaxHint: 1}), obs.ModeO, 4, twoVertices); allocs != 0 {
			t.Fatalf("O commit allocates %.1f times", allocs)
		}
	})

	t.Run("L", func(t *testing.T) {
		s := newLadderSys(Config{})
		if allocs := allocsPerCommit(t, s, obs.ModeL, s.cfg.OMaxHint+1, twoVertices); allocs != 0 {
			t.Fatalf("L commit allocates %.1f times", allocs)
		}
	})
}

// TestTaxChargesLModeOnly: the reproduction's cost hook reaches L-mode
// operations (software barriers on real hardware) and nothing else; the
// zero Config charges nothing anywhere.
func TestTaxChargesLModeOnly(t *testing.T) {
	charged := 0
	s := newLadderSys(Config{Tax: func() { charged++ }})
	w := s.Worker(0)
	body := func(tx sched.Tx) error {
		tx.Write(1, 1, tx.Read(1, 1)+tx.Read(2, 2))
		return nil
	}
	if err := w.Run(4, body); err != nil {
		t.Fatal(err)
	}
	if charged != 0 {
		t.Fatalf("an H-mode transaction was charged %d times", charged)
	}
	if err := w.Run(s.cfg.OMaxHint+1, body); err != nil {
		t.Fatal(err)
	}
	if charged != 3 {
		t.Fatalf("an L-mode transaction of 3 operations was charged %d times", charged)
	}
	if New(mem.NewSpace(64), 4, Config{}).Config().Tax != nil {
		t.Fatal("the zero Config carries a tax")
	}
}
