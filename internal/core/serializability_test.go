package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tufast/internal/mem"
	"tufast/internal/sched"
)

// TestCrossModeSerializableHistories runs the increment-history checker
// against TuFast with transactions deliberately spread across all three
// modes (tiny H bodies, padded O bodies, and L-hinted giants touching the
// same hot words), then verifies a serial order exists. This is the test
// that exercises the §IV-B cross-mode correctness argument.
func TestCrossModeSerializableHistories(t *testing.T) {
	nop := func(int, sched.Tx) {}
	crossModeHistories(t, func(_, i int) bool { return i < 120 }, nop, nop)
}

// TestCrossModeHistoriesLockersComeAndGo is the same history with the O and
// L workers admitted in phases, so that both kinds of H attempt and both
// transitions between them run against the same hot words: while the
// lockers sit out, H attempts begin quiet; the first locker of a phase
// kills the ones in flight and turns the next ones subscribed; the last
// one leaving turns them quiet again. The H workers' own progress drives
// the phases (25 transactions off, 25 on, ...); a locker runs at most two
// transactions a phase and stops when the H workers are done.
//
// Left to the scheduler, an H attempt of three operations and an L
// transaction of as many rarely overlap, so the bodies arrange the two
// meetings. A quiet attempt in a phase no L transaction has entered yet
// waits after its first read for the first one, which kills it — and the
// lockers wait for such an attempt before they enter. An L transaction
// waits before its first operation, in flight and holding nothing, until
// one more H-mode attempt has come by: the retry, which began beside it
// and so runs subscribed. Every wait gives up after a while, so a meeting
// that fails to happen costs the test its point, not its termination.
func TestCrossModeHistoriesLockersComeAndGo(t *testing.T) {
	const (
		hWorkers, perH, perPhase = 2, 300, 2
		patience                 = 2 * time.Second
	)
	var (
		hBegun   atomic.Int64                // transactions the H workers have started
		hWaiting atomic.Int64                // quiet attempts waiting for a phase's first L transaction
		hMids    atomic.Int64                // H-mode attempts that got past their first read
		entered  atomic.Int64                // latest phase an L transaction has been in flight in
		admitted [6]struct{ phase, n int64 } // a locker's, touched by it alone
	)
	phaseNow := func() int64 { return hBegun.Load() / 25 }
	hDone := func() bool { return hBegun.Load() >= hWorkers*perH }
	// await yields until cond holds, the phase moves on, the H workers are
	// done or patience runs out.
	await := func(phase int64, cond func() bool) {
		for start := time.Now(); !cond() && phaseNow() == phase && !hDone() && time.Since(start) < patience; {
			runtime.Gosched()
		}
	}
	s := crossModeHistories(t, func(tid, i int) bool {
		if tid%3 == 0 {
			hBegun.Add(1)
			return i < perH
		}
		for mine := &admitted[tid]; ; runtime.Gosched() {
			if hDone() {
				return false
			}
			phase := phaseNow()
			if phase%2 == 0 {
				continue
			}
			if mine.phase != phase {
				mine.phase, mine.n = phase, 0
				await(phase, func() bool { return hWaiting.Load() > 0 || entered.Load() >= phase })
			}
			if mine.n < perPhase {
				mine.n++
				return true
			}
		}
	}, func(tid int, tx sched.Tx) {
		if _, inL := tx.(*sched.TPLWorker); inL && tid%3 == 2 {
			phase := phaseNow()
			entered.Store(phase)
			seen := hMids.Load()
			await(phase, func() bool { return hMids.Load() != seen })
		}
	}, func(_ int, tx sched.Tx) {
		if h, inH := tx.(*hCtx); inH {
			hMids.Add(1)
			if phase := phaseNow(); h.quiet && phase%2 == 1 && entered.Load() < phase {
				hWaiting.Add(1)
				await(phase, func() bool { return entered.Load() >= phase })
				hWaiting.Add(-1)
			}
			runtime.Gosched() // on one core, lets a locker arrive or leave
		}
	})
	snap := snapshot(s)
	qs, h := snap.HQuiet, snap.Modes["H"]
	attempts := h.Commits + h.AbortTotal()
	t.Logf("%d H attempts: %d began quiet, %d of them killed", attempts, qs.Attempts, qs.Killed)
	if qs.Attempts == 0 || qs.Attempts >= attempts {
		t.Errorf("%d of %d H attempts began quiet, want both kinds", qs.Attempts, attempts)
	}
	if qs.Killed == 0 {
		t.Error("no quiet attempt met an arriving locker")
	}
}

// crossModeHistories runs the history and checks it. Worker tid runs its
// i-th transaction when next(tid, i) returns true and stops when it
// returns false; a body calls begin before its first operation and mid
// between its first read of a hot word and the write that follows.
func crossModeHistories(t *testing.T, next func(tid, i int) bool, begin, mid func(tid int, tx sched.Tx)) *System {
	const (
		hotWords = 10
		pad      = 30_000 // padding vertices for O-shaped bodies
	)
	sp := mem.NewSpace(4*(hotWords+pad) + 4096)
	s := New(sp, hotWords+pad, Config{})

	type obs struct {
		addrs []mem.Addr
		reads []uint64
	}
	var mu sync.Mutex
	var all []obs

	var wg sync.WaitGroup
	var started atomic.Int64
	const goroutines = 6
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			w := s.Worker(tid)
			rng := uint64(tid)*0xA24BAED4963EE407 + 9
			rand := func() uint64 {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				return rng
			}
			for i := 0; next(tid, i); i++ {
				started.Add(1)
				k := int(rand()%3) + 1
				seen := map[mem.Addr]bool{}
				for len(seen) < k {
					seen[mem.Addr(rand()%hotWords)] = true
				}
				o := obs{}
				for a := range seen {
					o.addrs = append(o.addrs, a)
				}
				// Rotate through mode-shaped transactions.
				var hint int
				var padReads int
				switch tid % 3 {
				case 0: // H-shaped
					hint = 2 * k
				case 1: // O-shaped: pad with scattered cold reads
					hint = 12_000
					padReads = 6_000
				case 2: // L-shaped
					hint = 1 << 21
				}
				err := w.Run(hint, func(tx sched.Tx) error {
					o.reads = o.reads[:0]
					begin(tid, tx)
					if padReads > 0 {
						for j := 0; j < padReads; j++ {
							v := uint32(hotWords + (j*6151)%pad)
							_ = tx.Read(v, mem.Addr(v))
						}
					}
					for j, a := range o.addrs {
						v := tx.Read(uint32(a), a)
						if j == 0 {
							mid(tid, tx)
						}
						o.reads = append(o.reads, v)
						tx.Write(uint32(a), a, v+1)
					}
					return nil
				})
				if err != nil {
					t.Errorf("run: %v", err)
					return
				}
				mu.Lock()
				all = append(all, obs{
					addrs: append([]mem.Addr(nil), o.addrs...),
					reads: append([]uint64(nil), o.reads...),
				})
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()

	if got := lockers(s.lState.Load()); got != 0 {
		t.Errorf("%d lockers announced with nothing in flight", got)
	}
	if len(all) != int(started.Load()) {
		t.Fatalf("committed %d of %d", len(all), started.Load())
	}
	// Greedy serial-order construction (see sched/serializability_test.go
	// for why greedy is complete on increment-only histories).
	model := make([]uint64, hotWords)
	remaining := all
	for len(remaining) > 0 {
		progressed := false
		keep := remaining[:0]
		for _, o := range remaining {
			ok := true
			for i, a := range o.addrs {
				if model[a] != o.reads[i] {
					ok = false
					break
				}
			}
			if ok {
				for _, a := range o.addrs {
					model[a]++
				}
				progressed = true
			} else {
				keep = append(keep, o)
			}
		}
		remaining = keep
		if !progressed {
			t.Fatalf("cross-mode history not serializable: %d unexplained", len(remaining))
		}
	}
	for a := 0; a < hotWords; a++ {
		if got := sp.Load(mem.Addr(a)); got != model[a] {
			t.Fatalf("final state diverges at %d: %d vs %d", a, got, model[a])
		}
	}
	// The workload must actually have exercised several classes.
	classes := 0
	for _, c := range fig15 {
		if commits(s, c) > 0 {
			classes++
		}
	}
	if classes < 2 {
		t.Fatalf("history touched only %d mode classes: %s", classes, dumpModes(s))
	}
	t.Logf("modes: %s", dumpModes(s))
	return s
}

func dumpModes(s *System) string {
	out := ""
	for _, c := range fig15 {
		out += fmt.Sprintf("%s=%d ", c, commits(s, c))
	}
	return out
}
