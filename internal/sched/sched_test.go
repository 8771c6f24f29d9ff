package sched_test

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"tufast/internal/baselines"
	"tufast/internal/htm"
	"tufast/internal/mem"
	"tufast/internal/obs"
	"tufast/internal/sched"
	"tufast/internal/vlock"
)

// totals reads a scheduler's outcome counts from its metrics, the one
// place they are recorded.
func totals(s sched.Scheduler) obs.Totals { return s.Metrics().Snapshot().Totals() }

// makeAll builds every baseline scheduler over a fresh space with n
// vertices.
func makeAll(n int) map[string]func() (sched.Scheduler, *mem.Space) {
	mk := func(f func(sp *mem.Space) sched.Scheduler) func() (sched.Scheduler, *mem.Space) {
		return func() (sched.Scheduler, *mem.Space) {
			sp := mem.NewSpace(4*n + 1024)
			return f(sp), sp
		}
	}
	return map[string]func() (sched.Scheduler, *mem.Space){
		"2pl-detect": mk(func(sp *mem.Space) sched.Scheduler {
			return sched.NewTPL(sp, vlock.NewTable(n))
		}),
		"occ": mk(func(sp *mem.Space) sched.Scheduler {
			return baselines.NewOCC(sp, vlock.NewTable(n))
		}),
		"to": mk(func(sp *mem.Space) sched.Scheduler {
			return baselines.NewTO(sp, vlock.NewTable(n), n)
		}),
		"stm": mk(func(sp *mem.Space) sched.Scheduler {
			return baselines.NewSTM(sp)
		}),
		"hsync": mk(func(sp *mem.Space) sched.Scheduler {
			return baselines.NewHSync(sp, 4)
		}),
		"hto": mk(func(sp *mem.Space) sched.Scheduler {
			return baselines.NewHTO(sp, vlock.NewTable(n), n, 100)
		}),
	}
}

// TestCounterIsolation: concurrent increments of one counter must not
// lose updates under any scheduler.
func TestCounterIsolation(t *testing.T) {
	for name, mk := range makeAll(8) {
		t.Run(name, func(t *testing.T) {
			s, sp := mk()
			const goroutines, each = 6, 400
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(tid int) {
					defer wg.Done()
					w := s.Worker(tid)
					for i := 0; i < each; i++ {
						err := w.Run(2, func(tx sched.Tx) error {
							v := tx.Read(0, 0)
							tx.Write(0, 0, v+1)
							return nil
						})
						if err != nil {
							t.Errorf("run: %v", err)
							return
						}
					}
				}(g)
			}
			wg.Wait()
			if got := sp.Load(0); got != goroutines*each {
				t.Fatalf("lost updates: %d want %d", got, goroutines*each)
			}
			if got := totals(s).Commits; got != goroutines*each {
				t.Fatalf("commit count %d", got)
			}
		})
	}
}

// TestBankTransfer: the classic invariant — transfers between accounts
// preserve the total.
func TestBankTransfer(t *testing.T) {
	const accounts = 16
	for name, mk := range makeAll(accounts) {
		t.Run(name, func(t *testing.T) {
			s, sp := mk()
			for i := 0; i < accounts; i++ {
				sp.Store(mem.Addr(i), 1000)
			}
			const goroutines, each = 4, 300
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(tid int) {
					defer wg.Done()
					w := s.Worker(tid)
					rng := uint64(tid)*0x9E3779B97F4A7C15 + 5
					for i := 0; i < each; i++ {
						rng ^= rng << 13
						rng ^= rng >> 7
						rng ^= rng << 17
						from := uint32(rng % accounts)
						to := uint32((rng >> 8) % accounts)
						if from == to {
							continue
						}
						_ = w.Run(4, func(tx sched.Tx) error {
							a := tx.Read(from, mem.Addr(from))
							b := tx.Read(to, mem.Addr(to))
							if a == 0 {
								return nil
							}
							tx.Write(from, mem.Addr(from), a-1)
							tx.Write(to, mem.Addr(to), b+1)
							return nil
						})
					}
				}(g)
			}
			wg.Wait()
			var total uint64
			for i := 0; i < accounts; i++ {
				total += sp.Load(mem.Addr(i))
			}
			if total != accounts*1000 {
				t.Fatalf("money not conserved: %d want %d", total, accounts*1000)
			}
		})
	}
}

// TestUserErrorRollsBack: a user error must discard every write and be
// returned without retry.
func TestUserErrorRollsBack(t *testing.T) {
	boom := errors.New("boom")
	for name, mk := range makeAll(8) {
		t.Run(name, func(t *testing.T) {
			s, sp := mk()
			w := s.Worker(0)
			err := w.Run(4, func(tx sched.Tx) error {
				tx.Write(1, 1, 111)
				tx.Write(2, 2, 222)
				return boom
			})
			if !errors.Is(err, boom) {
				t.Fatalf("err=%v", err)
			}
			if sp.Load(1) != 0 || sp.Load(2) != 0 {
				t.Fatalf("writes visible after user abort: %d %d", sp.Load(1), sp.Load(2))
			}
			if totals(s).UserStops != 1 {
				t.Fatalf("user stop not counted")
			}
		})
	}
}

// TestReadYourOwnWrites within one transaction.
func TestReadYourOwnWrites(t *testing.T) {
	for name, mk := range makeAll(8) {
		t.Run(name, func(t *testing.T) {
			s, _ := mk()
			w := s.Worker(0)
			err := w.Run(4, func(tx sched.Tx) error {
				tx.Write(3, 3, 77)
				if got := tx.Read(3, 3); got != 77 {
					return fmt.Errorf("read-own-write got %d", got)
				}
				tx.Write(3, 3, 88)
				if got := tx.Read(3, 3); got != 88 {
					return fmt.Errorf("second read-own-write got %d", got)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestWriteSkewPrevented: serializability (not just snapshot isolation)
// requires that of two transactions each reading both flags and writing
// one, the invariant "at most one flag set" survives.
func TestWriteSkewPrevented(t *testing.T) {
	for name, mk := range makeAll(8) {
		t.Run(name, func(t *testing.T) {
			for round := 0; round < 50; round++ {
				s, sp := mk()
				var wg sync.WaitGroup
				body := func(tid int, mine, other uint32) {
					defer wg.Done()
					w := s.Worker(tid)
					_ = w.Run(4, func(tx sched.Tx) error {
						a := tx.Read(mine, mem.Addr(mine))
						b := tx.Read(other, mem.Addr(other))
						if a == 0 && b == 0 {
							tx.Write(mine, mem.Addr(mine), 1)
						}
						return nil
					})
				}
				wg.Add(2)
				go body(0, 1, 2)
				go body(1, 2, 1)
				wg.Wait()
				if sp.Load(1) == 1 && sp.Load(2) == 1 {
					t.Fatalf("write skew: both flags set (round %d)", round)
				}
			}
		})
	}
}

// TestDeadlockResolution: transactions locking {A,B} in opposite orders
// must all eventually commit under 2PL.
func TestDeadlockResolution(t *testing.T) {
	sp := mem.NewSpace(64)
	s := sched.NewTPL(sp, vlock.NewTable(8))
	var wg sync.WaitGroup
	const each = 200
	order := [][2]uint32{{1, 2}, {2, 1}}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			w := s.Worker(tid)
			a, b := order[tid][0], order[tid][1]
			for i := 0; i < each; i++ {
				err := w.Run(2, func(tx sched.Tx) error {
					tx.Write(a, mem.Addr(a), tx.Read(a, mem.Addr(a))+1)
					tx.Write(b, mem.Addr(b), tx.Read(b, mem.Addr(b))+1)
					return nil
				})
				if err != nil {
					t.Errorf("run: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if sp.Load(1) != 2*each || sp.Load(2) != 2*each {
		t.Fatalf("counts %d %d want %d", sp.Load(1), sp.Load(2), 2*each)
	}
}

// TestHSyncFallsBackToSTM: a transaction too big for the HTM must
// still commit via the STM fallback.
func TestHSyncFallsBackToSTM(t *testing.T) {
	n := 20_000
	sp := mem.NewSpace(2*n + 64)
	s := baselines.NewHSync(sp, 4)
	w := s.Worker(0)
	err := w.Run(n, func(tx sched.Tx) error {
		for i := 0; i < n; i++ {
			tx.Write(uint32(i%64), mem.Addr(i), 9)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if sp.Load(0) != 9 || sp.Load(mem.Addr(n-1)) != 9 {
		t.Fatal("writes missing after STM fallback")
	}
}

// TestTaxHookChargedPerSoftwareBarrier: the reproduction's cost hook is
// charged once per software-barrier operation when installed and is
// absent otherwise. HSync's hardware path is free, as on real TSX, so a
// transaction that fits the HTM charges nothing there.
func TestTaxHookChargedPerSoftwareBarrier(t *testing.T) {
	for name, mk := range makeAll(64) {
		t.Run(name, func(t *testing.T) {
			s, _ := mk()
			charged := 0
			s.(interface{ SetTax(func()) }).SetTax(func() { charged++ })
			err := s.Worker(0).Run(4, func(tx sched.Tx) error {
				charged = 0 // count the committing attempt alone
				tx.Write(1, 1, tx.Read(1, 1)+tx.Read(2, 2)+tx.Read(3, 3))
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			want := 4
			if name == "hsync" {
				want = 0
			}
			if charged != want {
				t.Fatalf("%d charges for 3 reads and a write, want %d", charged, want)
			}
		})
	}
}

// TestHostedTPLWorkerRecordsOnlyBackoff: a worker embedded in another
// scheduler (NewWorkerFor) records on its host's probe only — its
// outcomes, their operations and its backoff waits go there, once each —
// and the TPL's own metrics stay empty.
func TestHostedTPLWorkerRecordsOnlyBackoff(t *testing.T) {
	sp := mem.NewSpace(1024)
	s := sched.NewTPL(sp, vlock.NewTable(8))
	var host sched.Instrumented
	probe := host.Metrics().NewProbe()
	w := s.NewWorkerFor(0, &probe)
	s.SetFaultInjector(sched.NewFaultInjector(sched.FaultSpec{Mode: "L", Op: "commit"}))
	if err := w.Run(0, func(tx sched.Tx) error { tx.Write(1, 1, 7); return nil }); err != nil {
		t.Fatal(err)
	}
	own, hosted := s.Metrics().Snapshot(), host.Metrics().Snapshot()
	if got, want := hosted.Totals(), (obs.Totals{Commits: 1, Aborts: 1, Writes: 1}); got != want {
		t.Fatalf("host metrics %+v, want %+v", got, want)
	}
	if len(own.Modes) != 0 {
		t.Fatalf("hosted worker recorded on its own scheduler: %v", own.Modes)
	}
	if h, o := hosted.Waits["backoff"].Waits, own.Waits["backoff"].Waits; h != 1 || o != 0 {
		t.Fatalf("backoff waits: host %d (want 1), own %d (want 0)", h, o)
	}
}

// backoffOf returns the backoff of the retry loop a worker runs under.
func backoffOf(t *testing.T, w sched.Worker) *sched.Backoff {
	l, ok := w.(interface{ Backoff() *sched.Backoff })
	if !ok {
		t.Fatalf("no loop in %T", w)
	}
	return l.Backoff()
}

// TestBackoffStartsAtZero: a transaction that aborted and then stopped on
// a user error leaves its backoff level behind it; the next transaction
// on the worker must start at level 0 all the same.
func TestBackoffStartsAtZero(t *testing.T) {
	boom := errors.New("boom")
	for name, mk := range makeAll(8) {
		t.Run(name, func(t *testing.T) {
			s, _ := mk()
			w := s.Worker(0)
			bo := backoffOf(t, w)
			attempts, waited := 0, uint(0)
			err := w.Run(2, func(tx sched.Tx) error {
				if attempts++; attempts == 1 {
					sched.ThrowAbort("injected")
				}
				waited = bo.Level()
				return boom
			})
			if !errors.Is(err, boom) || attempts != 2 {
				t.Fatalf("err %v after %d attempts, want boom after 2", err, attempts)
			}
			if waited == 0 {
				t.Fatal("the abort did not back off: the test exercises nothing")
			}
			level := ^uint(0)
			if err := w.Run(2, func(tx sched.Tx) error {
				level = bo.Level()
				tx.Write(1, 1, tx.Read(1, 1)+1)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if level != 0 {
				t.Fatalf("backoff level %d at the start of the next transaction, want 0", level)
			}
		})
	}
}

// TestOutcomesRecordedOnce: the loop records every outcome once, in the
// metrics every count is read from. Four workers run a seeded mix of
// commits, injected aborts, conflict aborts on two shared words (refused
// waits, deadlock aborts, under 2PL), user stops and panics; the metrics
// must agree with what the workers saw on commits, stops and panics, and
// with what their bodies saw unwind them on refused waits, and every
// abort (none was cancelled) must have waited once.
func TestOutcomesRecordedOnce(t *testing.T) {
	boom := errors.New("boom")
	for name, mk := range makeAll(8) {
		t.Run(name, func(t *testing.T) {
			s, _ := mk()
			const workers, each = 4, 100
			var commits, stops, panics, injected, victims atomic.Uint64
			var wg sync.WaitGroup
			for tid := 0; tid < workers; tid++ {
				wg.Add(1)
				go func(tid int) {
					defer wg.Done()
					w := s.Worker(tid)
					rng := uint64(tid)*0x9E3779B97F4A7C15 + 29
					for i := 0; i < each; i++ {
						rng ^= rng << 13
						rng ^= rng >> 7
						rng ^= rng << 17
						inject, stop := int(rng%3), (rng>>8)%8
						err := w.Run(4, func(tx sched.Tx) error {
							defer func() {
								if r := recover(); r != nil {
									if reason, ok := sched.AbortReason(r); ok && reason == "refused wait" {
										victims.Add(1)
									}
									panic(r)
								}
							}()
							a := tx.Read(1, 1)
							tx.Write(2, 2, tx.Read(2, 2)+a)
							tx.Write(1, 1, a+1)
							if inject > 0 {
								inject--
								injected.Add(1)
								sched.ThrowAbort("injected")
							}
							switch stop {
							case 0, 1:
								return boom
							case 2:
								panic("bug")
							}
							return nil
						})
						_, isPanic := sched.AsPanicError(err)
						switch {
						case err == nil:
							commits.Add(1)
						case errors.Is(err, boom):
							stops.Add(1)
						case isPanic:
							stops.Add(1)
							panics.Add(1)
						default:
							t.Errorf("run: %v", err)
						}
					}
				}(tid)
			}
			wg.Wait()
			snap := s.Metrics().Snapshot()
			st := snap.Totals()
			if st.Commits != commits.Load() {
				t.Errorf("commits: metrics %d, returned nil %d", st.Commits, commits.Load())
			}
			var panicStops, deadlockAborts uint64
			for _, m := range snap.Modes {
				panicStops += m.Stops["panic"]
				deadlockAborts += m.Aborts["deadlock"]
			}
			if st.UserStops != stops.Load() || panicStops != panics.Load() || st.Panics != panicStops {
				t.Errorf("stops: metrics %d, of which %d panics (totals %d), returned %d, of which %d panics", st.UserStops, panicStops, st.Panics, stops.Load(), panics.Load())
			}
			if deadlockAborts != victims.Load() || st.Deadlocks != deadlockAborts {
				t.Errorf("deadlock aborts %d (totals %d), %d victims unwound", deadlockAborts, st.Deadlocks, victims.Load())
			}
			if st.Aborts < injected.Load()+victims.Load() {
				t.Errorf("%d aborts for %d injected and %d deadlock victims", st.Aborts, injected.Load(), victims.Load())
			}
			if w := snap.Waits["backoff"].Waits; w != st.Aborts {
				t.Errorf("%d backoff waits for %d aborts", w, st.Aborts)
			}
			t.Logf("%d commits, %d aborts (%d deadlock victims), %d stops", st.Commits, st.Aborts, st.Deadlocks, st.UserStops)
		})
	}
}

// TestBaselineHTMCountsInOwnSnapshot: a baseline's hardware attempts are
// counted in its own metrics snapshot, by the worker that ran them. HSync
// at one thread commits disjoint small transactions in hardware, one HTM
// commit each; a transaction past the emulated cache's capacity spends
// its retries+1 hardware attempts on capacity aborts and commits on the
// NOrec path. H-TO closes one segment per period operations.
func TestBaselineHTMCountsInOwnSnapshot(t *testing.T) {
	const retries = 4
	// CacheWays+1 lines that all map to cache set 0: no attempt fits.
	const setStride = htm.CacheSets * mem.WordsPerLine
	t.Run("hsync disjoint", func(t *testing.T) {
		s := baselines.NewHSync(mem.NewSpace(64*mem.WordsPerLine), retries)
		w := s.Worker(0)
		for i := range 64 {
			a := mem.Addr(i * mem.WordsPerLine)
			if err := w.Run(2, func(tx sched.Tx) error { tx.Write(uint32(i), a, tx.Read(uint32(i), a)+1); return nil }); err != nil {
				t.Fatal(err)
			}
		}
		snap := s.Metrics().Snapshot()
		if h := snap.HTM; h.Commits != 64 || h.Commits != snap.Totals().Commits || h.Starts != 64 || len(h.Aborts) != 0 || h.Ops != 128 {
			t.Fatalf("HTM %+v beside %d commits, want one hardware commit of two operations each", h, snap.Totals().Commits)
		}
	})
	t.Run("hsync past capacity", func(t *testing.T) {
		sp := mem.NewSpace((htm.CacheWays + 1) * setStride)
		s := baselines.NewHSync(sp, retries)
		err := s.Worker(0).Run(0, func(tx sched.Tx) error {
			for i := range htm.CacheWays + 1 {
				tx.Write(uint32(i), mem.Addr(i*setStride), 7)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		snap := s.Metrics().Snapshot()
		h, tx := snap.HTM, snap.Modes[obs.ModeTx.String()]
		if h.Starts != retries+1 || h.Commits != 0 || len(h.Aborts) != 1 || h.Aborts["capacity"] != retries+1 {
			t.Errorf("HTM %+v, want %d capacity aborts and no hardware commit", h, retries+1)
		}
		if tx.Commits != 1 || tx.Aborts["capacity"] != retries+1 || sp.Load(mem.Addr(htm.CacheWays*setStride)) != 7 {
			t.Errorf("outcomes %+v, want the capacity aborts and one NOrec commit", tx)
		}
	})
	t.Run("hto segments", func(t *testing.T) {
		const period, k = 10, 3
		s := baselines.NewHTO(mem.NewSpace(k*period*mem.WordsPerLine), vlock.NewTable(k*period), k*period, period)
		err := s.Worker(0).Run(0, func(tx sched.Tx) error {
			for v := range uint32(k * period) {
				tx.Read(v, mem.Addr(v)*mem.WordsPerLine)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if h := s.Metrics().Snapshot().HTM; h.Commits != k || h.Starts != k+1 || len(h.Aborts) != 0 {
			t.Fatalf("HTM %+v, want %d segment commits out of %d starts", h, k, k+1)
		}
	})
}

// TestWorkerTidBound: a TPL worker's id must fit a vertex lock's owner
// field, and one that does not is refused when the worker is made, not at
// its first lock.
func TestWorkerTidBound(t *testing.T) {
	s := sched.NewTPL(nil, nil)
	s.NewWorker(sched.MaxThreads - 1)
	for _, tid := range []int{-1, sched.MaxThreads} {
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
