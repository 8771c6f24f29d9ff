package sched_test

import (
	"fmt"
	"testing"

	"tufast/internal/baselines"
	"tufast/internal/mem"
	"tufast/internal/sched"
	"tufast/internal/simcost"
	"tufast/internal/vlock"
)

// Per-scheduler micro-benchmarks: one uncontended 8-read-1-write
// transaction, the building block whose cost differences drive Fig. 13.

// taxed injects the reproduction's cost model as internal/bench does, so
// the ratios between these benchmarks are the ones Fig. 13 is built from.
func taxed[S interface{ SetTax(func()) }](s S) S {
	s.SetTax(simcost.Tax)
	return s
}

func benchScheduler(b *testing.B, mk func(sp *mem.Space) sched.Scheduler) {
	sp := mem.NewSpace(1 << 16)
	s := mk(sp)
	w := s.Worker(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := mem.Addr((i * 64) % (1 << 12))
		_ = w.Run(18, func(tx sched.Tx) error {
			var sum uint64
			for k := 0; k < 8; k++ {
				sum += tx.Read(uint32(base)+uint32(k), base+mem.Addr(k))
			}
			tx.Write(uint32(base), base, sum+1)
			return nil
		})
	}
}

func Benchmark2PLTxn(b *testing.B) {
	benchScheduler(b, func(sp *mem.Space) sched.Scheduler {
		return taxed(sched.NewTPL(sp, vlock.NewTable(1<<16)))
	})
}

func BenchmarkOCCTxn(b *testing.B) {
	benchScheduler(b, func(sp *mem.Space) sched.Scheduler {
		return taxed(baselines.NewOCC(sp, vlock.NewTable(1<<16)))
	})
}

func BenchmarkTOTxn(b *testing.B) {
	benchScheduler(b, func(sp *mem.Space) sched.Scheduler {
		return taxed(baselines.NewTO(sp, vlock.NewTable(1<<16), 1<<16))
	})
}

func BenchmarkSTMTxn(b *testing.B) {
	benchScheduler(b, func(sp *mem.Space) sched.Scheduler {
		return taxed(baselines.NewSTM(sp))
	})
}

func BenchmarkHSyncTxn(b *testing.B) {
	benchScheduler(b, func(sp *mem.Space) sched.Scheduler {
		return taxed(baselines.NewHSync(sp, 8))
	})
}

func BenchmarkHTOTxn(b *testing.B) {
	benchScheduler(b, func(sp *mem.Space) sched.Scheduler {
		return taxed(baselines.NewHTO(sp, vlock.NewTable(1<<16), 1<<16, 1000))
	})
}

// BenchmarkSTMTxnUntaxed isolates the cost-model contribution (see
// internal/simcost): the same STM transaction on an STM built without
// the hook, as the library builds its schedulers.
func BenchmarkSTMTxnUntaxed(b *testing.B) {
	benchScheduler(b, func(sp *mem.Space) sched.Scheduler {
		return baselines.NewSTM(sp)
	})
}

// BenchmarkTPLReadThenWrite is L mode's hub shape: one transaction that
// reads each of k vertices and then writes it, so every vertex takes the
// shared-to-exclusive upgrade path. The reported ns/op is per vertex and
// must stay flat from 256 to 2048: lock bookkeeping is O(1) per hold
// (when a second hold list searched for the upgraded hold from the
// front the transaction was O(k²) and this grew 8x).
func BenchmarkTPLReadThenWrite(b *testing.B) {
	for _, k := range []int{256, 2048} {
		b.Run(fmt.Sprint(k), func(b *testing.B) {
			sp := mem.NewSpace(1 << 16)
			s := sched.NewTPL(sp, vlock.NewTable(k))
			w := s.Worker(0)
			fn := func(tx sched.Tx) error {
				for v := uint32(0); int(v) < k; v++ {
					tx.Write(v, mem.Addr(v), tx.Read(v, mem.Addr(v))+1)
				}
				return nil
			}
			b.ResetTimer()
			for i := 0; i < b.N; i += k {
				_ = w.Run(0, fn)
			}
		})
	}
}
