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

func newSys(nVertices int, cfg Config) (*System, *mem.Space) {
	sp := mem.NewSpace(4*nVertices + 4096)
	return New(sp, nVertices, cfg), sp
}

func TestSmallTxCommitsInH(t *testing.T) {
	s, sp := newSys(64, Config{})
	w := s.Worker(0)
	err := w.Run(4, func(tx sched.Tx) error {
		tx.Write(1, 1, 10)
		tx.Write(2, 2, 20)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if sp.Load(1) != 10 || sp.Load(2) != 20 {
		t.Fatal("writes missing")
	}
	if commits(s, obs.ModeH) != 1 {
		t.Fatalf("expected H commit, got %v", modeDump(s))
	}
}

func TestMediumTxGoesToO(t *testing.T) {
	n := 30_000
	s, sp := newSys(n, Config{})
	w := s.Worker(0)
	// Random-ish scattered access beyond HTM capacity but hinted under
	// the O ceiling.
	err := w.Run(20_000, func(tx sched.Tx) error {
		for i := 0; i < 10_000; i++ {
			v := uint32((i * 7919) % n)
			tx.Write(v, mem.Addr(v), uint64(i))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	o := commits(s, obs.ModeO) + commits(s, obs.ModeOPlus) +
		commits(s, obs.ModeO2L)
	if o != 1 {
		t.Fatalf("expected O-family commit, got %v", modeDump(s))
	}
	if sp.Load(mem.Addr(7919%n)) != 1 {
		t.Fatal("O write missing")
	}
}

func TestHugeHintRoutesToL(t *testing.T) {
	s, _ := newSys(64, Config{})
	w := s.Worker(0)
	err := w.Run(1<<21, func(tx sched.Tx) error {
		tx.Write(1, 1, 1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if commits(s, obs.ModeL) != 1 {
		t.Fatalf("expected direct L, got %v", modeDump(s))
	}
}

func TestCapacityAbortSkipsHRetries(t *testing.T) {
	n := 60_000
	s, _ := newSys(n, Config{HRetries: 8})
	w := s.Worker(0)
	// Hint says H, body overflows: exactly one H start, then O.
	err := w.Run(16, func(tx sched.Tx) error {
		for i := 0; i < 8_000; i++ {
			v := uint32((i * 6151) % n)
			_ = tx.Read(v, mem.Addr(v))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if snapshot(s).HTM.Aborts["capacity"] < 1 {
		t.Fatal("no capacity abort recorded")
	}
	// H must not have been retried after the capacity abort: total H
	// attempts for this txn = 1 (plus O segments recorded as starts).
	if commits(s, obs.ModeH) != 0 {
		t.Fatalf("capacity-aborted txn committed in H?! %v", modeDump(s))
	}
}

func TestUserErrorPropagatesFromEveryMode(t *testing.T) {
	boom := errors.New("boom")
	cases := []struct {
		name string
		hint int
	}{
		{"h", 4},
		{"o", 20_000},
		{"l", 1 << 21},
	}
	n := 30_000
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s, sp := newSys(n, Config{})
			w := s.Worker(0)
			err := w.Run(c.hint, func(tx sched.Tx) error {
				if c.hint == 20_000 {
					// Force O-shaped body.
					for i := 0; i < 9_000; i++ {
						v := uint32((i * 7919) % n)
						_ = tx.Read(v, mem.Addr(v))
					}
				}
				tx.Write(5, 5, 55)
				return boom
			})
			if !errors.Is(err, boom) {
				t.Fatalf("err=%v", err)
			}
			if sp.Load(5) != 0 {
				t.Fatal("aborted write visible")
			}
			if got := snapshot(s).Totals().UserStops; got != 1 {
				t.Fatalf("user stops=%d", got)
			}
		})
	}
}

func TestIsolationAcrossModes(t *testing.T) {
	// One hot counter incremented concurrently by small (H), medium (O)
	// and huge (L) transactions; the total must be exact.
	n := 20_000
	s, sp := newSys(n, Config{})
	const each = 150
	var wg sync.WaitGroup
	for tid := 0; tid < 3; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			w := s.Worker(tid)
			for i := 0; i < each; i++ {
				var hint int
				body := func(tx sched.Tx) error {
					v := tx.Read(0, 0)
					tx.Write(0, 0, v+1)
					return nil
				}
				switch tid {
				case 0:
					hint = 4
				case 1:
					hint = 20_000
					inner := body
					body = func(tx sched.Tx) error {
						for j := 0; j < 6_000; j++ {
							v := uint32((j*6151)%(n-1)) + 1
							_ = tx.Read(v, mem.Addr(v))
						}
						return inner(tx)
					}
				case 2:
					hint = 1 << 21
				}
				if err := w.Run(hint, body); err != nil {
					t.Errorf("run: %v", err)
					return
				}
			}
		}(tid)
	}
	wg.Wait()
	if got := sp.Load(0); got != 3*each {
		t.Fatalf("counter=%d want %d — cross-mode isolation broken", got, 3*each)
	}
}

// TestLDeadlockCycleResolved: two L transactions that take a leaf and a
// hub in opposite orders close a waits-for cycle (one holds the leaf
// exclusively and waits to read the hub, the other the reverse), and the
// detector must break it: every transaction commits, both counters are
// exact, no vertex lock is left held, and each victim is one deadlock
// abort in the metrics. The first attempts meet while each holds its
// first vertex, so at least one cycle forms on every run.
func TestLDeadlockCycleResolved(t *testing.T) {
	const leaf, hub, each = 1, 0, 200
	s, sp := newSys(8, Config{HMaxHint: 1, OMaxHint: 1})
	held := [2]chan struct{}{make(chan struct{}), make(chan struct{})}
	incr := func(tx sched.Tx, v uint32) { tx.Write(v, mem.Addr(v), tx.Read(v, mem.Addr(v))+1) }
	var wg sync.WaitGroup
	for tid, order := range [2][2]uint32{{leaf, hub}, {hub, leaf}} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := s.Worker(tid)
			first := true
			for i := 0; i < each; i++ {
				err := w.Run(4, func(tx sched.Tx) error {
					incr(tx, order[0])
					if first {
						first = false
						close(held[tid])
						<-held[1-tid]
					}
					incr(tx, order[1])
					return nil
				})
				if err != nil {
					t.Errorf("worker %d: %v", tid, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if sp.Load(leaf) != 2*each || sp.Load(hub) != 2*each {
		t.Fatalf("leaf=%d hub=%d, want %d each", sp.Load(leaf), sp.Load(hub), 2*each)
	}
	if got := commits(s, obs.ModeL); got != 2*each {
		t.Fatalf("%d L commits, want %d: %v", got, 2*each, modeDump(s))
	}
	for v := 0; v < s.Locks().Len(); v++ {
		if owner, ok := s.Locks().ExclusiveOwner(uint32(v)); ok {
			t.Fatalf("vertex %d still exclusively locked by tid %d", v, owner)
		}
		if n := s.Locks().SharedCount(uint32(v)); n != 0 {
			t.Fatalf("vertex %d still has %d shared holders", v, n)
		}
	}
	victims := s.Metrics().Snapshot().Modes[obs.ModeL.String()].Aborts["deadlock"]
	if snapshot(s).Totals().Deadlocks != victims || victims == 0 {
		t.Fatalf("Deadlocks() = %d, metrics record %d deadlock aborts; want equal and > 0", snapshot(s).Totals().Deadlocks, victims)
	}
}

func TestModeStatsReset(t *testing.T) {
	s, _ := newSys(64, Config{})
	w := s.Worker(0)
	fiveOps := func(tx sched.Tx) error {
		for v := uint32(1); v <= 5; v++ {
			tx.Write(v, mem.Addr(v), 1)
		}
		return nil
	}
	if err := w.Run(4, fiveOps); err != nil {
		t.Fatal(err)
	}
	if err := w.Run(1<<21, fiveOps); err != nil {
		t.Fatal(err)
	}
	m := snapshot(s).Modes
	if h, l := m["H"], m["L"]; h.Commits != 1 || h.Reads+h.Writes != 5 || l.Commits != 1 || l.Reads+l.Writes != 5 {
		t.Fatalf("record broken: %v", modeDump(s))
	}
	s.Metrics().Reset()
	for name, ms := range snapshot(s).Modes {
		t.Errorf("mode %s survived the reset: %+v", name, ms)
	}
}

func TestPeriodControllerConvergesToInverseP(t *testing.T) {
	pc := newPeriodController(1000, 100, 4096)
	// Feed segments with a 1/500 per-op abort probability.
	for i := 0; i < 3000; i++ {
		pc.Observe(500, true)
	}
	got := pc.Current()
	if got < 400 || got > 600 {
		t.Fatalf("period=%d want ~500", got)
	}
}

func TestPeriodControllerNoAbortsMeansCap(t *testing.T) {
	pc := newPeriodController(1000, 100, 4096)
	for i := 0; i < 100; i++ {
		pc.Observe(1000, false)
	}
	if pc.Current() != 4096 {
		t.Fatalf("abort-free workload should push the period to the cap, got %d", pc.Current())
	}
}

func TestPeriodControllerClampsToFloor(t *testing.T) {
	pc := newPeriodController(1000, 100, 4096)
	for i := 0; i < 2000; i++ {
		pc.Observe(2, true) // brutal abort rate
	}
	if pc.Current() != 100 {
		t.Fatalf("period=%d want floor 100", pc.Current())
	}
}

func TestPeriodControllerTracksChange(t *testing.T) {
	pc := newPeriodController(1000, 100, 4096)
	for i := 0; i < 2000; i++ {
		pc.Observe(200, true)
	}
	low := pc.Current()
	// Workload calms down: aborts stop; the decaying window must let the
	// period recover upward.
	for i := 0; i < 5000; i++ {
		pc.Observe(2000, false)
	}
	if pc.Current() <= low {
		t.Fatalf("period did not adapt upward: %d -> %d", low, pc.Current())
	}
}

// TestZeroConfigAdaptsPeriod: the zero Config is the TuFast the library
// runs, §IV-D controller included, so O-mode work moves the period off
// PeriodInit; StaticPeriod keeps it there.
func TestZeroConfigAdaptsPeriod(t *testing.T) {
	for _, static := range []bool{false, true} {
		s, _ := newSys(64, Config{StaticPeriod: static})
		w := s.Worker(0)
		for i := 0; i < 8; i++ {
			err := w.Run(s.cfg.HMaxHint+1, func(tx sched.Tx) error {
				for v := uint32(0); v < 64; v++ {
					tx.Write(v, mem.Addr(v), tx.Read(v, mem.Addr(v))+1)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		if commits(s, obs.ModeO)+commits(s, obs.ModeOPlus) == 0 {
			t.Fatalf("static=%v: no O-mode commit: %v", static, modeDump(s))
		}
		if moved := s.CurrentPeriod() != s.cfg.PeriodInit; moved == static {
			t.Fatalf("static=%v: period %d after O-mode work, PeriodInit %d", static, s.CurrentPeriod(), s.cfg.PeriodInit)
		}
	}
}

func TestConfigNormalize(t *testing.T) {
	c := Config{}.normalize()
	if c.HMaxHint != htm.CapacityWords || c.HRetries != 8 ||
		c.PeriodInit != 1000 || c.PeriodFloor != 100 {
		t.Fatalf("defaults wrong: %+v", c)
	}
	c2 := Config{HRetries: 3, PeriodInit: 500}.normalize()
	if c2.HRetries != 3 || c2.PeriodInit != 500 {
		t.Fatal("explicit values overwritten")
	}
}

func TestWorkerTidBounds(t *testing.T) {
	s, _ := newSys(8, Config{})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range tid")
		}
	}()
	s.Worker(maxThreads)
}

// snapshot is the System's metrics snapshot now: every count a test reads.
func snapshot(s *System) obs.Snapshot { return s.Metrics().Snapshot() }

// commits is how many transactions the metrics record committing in mode.
func commits(s *System, mode obs.Mode) uint64 {
	return snapshot(s).Modes[mode.String()].Commits
}

// fig15 lists the Figure 15 classes, the modes TuFast commits in.
var fig15 = []obs.Mode{obs.ModeH, obs.ModeO, obs.ModeOPlus, obs.ModeO2L, obs.ModeL}

func modeDump(s *System) map[string]uint64 {
	out := map[string]uint64{}
	for _, c := range fig15 {
		out[c.String()] = commits(s, c)
	}
	return out
}
