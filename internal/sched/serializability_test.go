package sched_test

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"tufast/internal/baselines"
	"tufast/internal/mem"
	"tufast/internal/sched"
	"tufast/internal/vlock"
)

// This file implements a black-box serializability checker: random
// read-modify-write transactions run concurrently; each transaction
// records the values it read and the values it wrote. Afterwards the
// checker searches for a serial order of the committed transactions that
// explains every observation by replaying against a model. To keep the
// search tractable the workload uses counters only, so a transaction's
// observation fixes its position: if it read k on word w, exactly the
// transactions that incremented w before it in serial order number k.

type obsTx struct {
	addrs []mem.Addr // distinct words read-modify-written (+1 each)
	reads []uint64   // value read per addr
}

// runRandomRMW executes n random increment transactions per goroutine,
// each touching 1-3 distinct words, and returns all committed
// observations.
func runRandomRMW(t *testing.T, s sched.Scheduler, words, goroutines, perG int) []obsTx {
	t.Helper()
	var mu sync.Mutex
	var all []obsTx
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			w := s.Worker(tid)
			rng := uint64(tid)*0x9E3779B97F4A7C15 + 17
			next := func() uint64 {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				return rng
			}
			local := make([]obsTx, 0, perG)
			for i := 0; i < perG; i++ {
				k := int(next()%3) + 1
				addrSet := map[mem.Addr]bool{}
				for len(addrSet) < k {
					addrSet[mem.Addr(next()%uint64(words))] = true
				}
				ob := obsTx{}
				for a := range addrSet {
					ob.addrs = append(ob.addrs, a)
				}
				err := w.Run(2*k, func(tx sched.Tx) error {
					ob.reads = ob.reads[:0]
					for _, a := range ob.addrs {
						v := tx.Read(uint32(a), a)
						ob.reads = append(ob.reads, v)
						tx.Write(uint32(a), a, v+1)
					}
					return nil
				})
				if err != nil {
					t.Errorf("run: %v", err)
					return
				}
				local = append(local, obsTx{
					addrs: append([]mem.Addr(nil), ob.addrs...),
					reads: append([]uint64(nil), ob.reads...),
				})
			}
			mu.Lock()
			all = append(all, local...)
			mu.Unlock()
		}(g)
	}
	wg.Wait()
	return all
}

// checkSerializable greedily constructs a serial order: a transaction is
// schedulable when every value it read equals the model's current value.
// For increment-only workloads this greedy construction is complete: reads
// are monotone in the schedule position, so a transaction whose reads all
// match is safe to schedule now (scheduling it first cannot disable any
// other currently-schedulable transaction... which would require it to
// write a word the other read at the same value — impossible, increments
// strictly grow values).
func checkSerializable(txs []obsTx, words int, sp *mem.Space) error {
	model := make([]uint64, words)
	remaining := make([]obsTx, len(txs))
	copy(remaining, txs)
	for len(remaining) > 0 {
		progressed := false
		keep := remaining[:0]
		for _, tx := range remaining {
			ok := true
			for i, a := range tx.addrs {
				if model[a] != tx.reads[i] {
					ok = false
					break
				}
			}
			if ok {
				for _, a := range tx.addrs {
					model[a]++
				}
				progressed = true
			} else {
				keep = append(keep, tx)
			}
		}
		remaining = keep
		if !progressed {
			return fmt.Errorf("no serial order exists: %d transactions unexplainable (first: %+v)",
				len(remaining), remaining[0])
		}
	}
	// Final state must match the shared memory.
	for a := 0; a < words; a++ {
		if got := sp.Load(mem.Addr(a)); got != model[a] {
			return fmt.Errorf("final state diverges at word %d: mem=%d model=%d", a, got, model[a])
		}
	}
	return nil
}

func TestSerializabilityHistories(t *testing.T) {
	const words = 12 // few words -> high contention -> hard histories
	mk := map[string]func(sp *mem.Space) sched.Scheduler{
		"2pl-detect": func(sp *mem.Space) sched.Scheduler {
			return sched.NewTPL(sp, vlock.NewTable(words))
		},
		"occ":   func(sp *mem.Space) sched.Scheduler { return baselines.NewOCC(sp, vlock.NewTable(words)) },
		"to":    func(sp *mem.Space) sched.Scheduler { return baselines.NewTO(sp, vlock.NewTable(words), words) },
		"stm":   func(sp *mem.Space) sched.Scheduler { return baselines.NewSTM(sp) },
		"hsync": func(sp *mem.Space) sched.Scheduler { return baselines.NewHSync(sp, 4) },
		"hto": func(sp *mem.Space) sched.Scheduler {
			return baselines.NewHTO(sp, vlock.NewTable(words), words, 100)
		},
	}
	for name, f := range mk {
		t.Run(name, func(t *testing.T) {
			sp := mem.NewSpace(words + 64)
			s := f(sp)
			txs := runRandomRMW(t, s, words, 6, 250)
			if len(txs) != 6*250 {
				t.Fatalf("lost transactions: %d", len(txs))
			}
			if err := checkSerializable(txs, words, sp); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSerializabilityCheckerCatchesViolations sanity-checks the checker
// itself with a fabricated non-serializable history.
func TestSerializabilityCheckerCatchesViolations(t *testing.T) {
	sp := mem.NewSpace(64)
	sp.Store(0, 2)
	sp.Store(1, 2)
	// Two transactions that both read 0 on each other's word and wrote:
	// classic cyclic history (plus fillers to reach the final state).
	bad := []obsTx{
		{addrs: []mem.Addr{0, 1}, reads: []uint64{0, 1}},
		{addrs: []mem.Addr{1, 0}, reads: []uint64{0, 1}},
	}
	if err := checkSerializable(bad, 2, sp); err == nil {
		t.Fatal("checker accepted a cyclic history")
	}
}

// TestConcurrentWorkersUniqueIDs guards the worker-id contract: two
// workers sharing a tid would corrupt lock ownership.
func TestConcurrentWorkersUniqueIDs(t *testing.T) {
	sp := mem.NewSpace(256)
	s := sched.NewTPL(sp, vlock.NewTable(16))
	var active atomic.Int32
	var wg sync.WaitGroup
	for tid := 0; tid < 8; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			w := s.Worker(tid)
			for i := 0; i < 200; i++ {
				_ = w.Run(2, func(tx sched.Tx) error {
					active.Add(1)
					v := tx.Read(3, 3)
					tx.Write(3, 3, v+1)
					active.Add(-1)
					return nil
				})
			}
		}(tid)
	}
	wg.Wait()
	if got := sp.Load(3); got != 8*200 {
		t.Fatalf("counter=%d", got)
	}
}
