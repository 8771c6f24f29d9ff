package sched

import (
	"testing"

	"tufast/internal/deadlock"
	"tufast/internal/mem"
	"tufast/internal/simcost"
	"tufast/internal/vlock"
)

// Per-scheduler micro-benchmarks: one uncontended 8-read-1-write
// transaction, the building block whose cost differences drive Fig. 13.

func benchScheduler(b *testing.B, mk func(sp *mem.Space) Scheduler) {
	sp := mem.NewSpace(1 << 16)
	s := mk(sp)
	w := s.Worker(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := mem.Addr((i * 64) % (1 << 12))
		_ = w.Run(18, func(tx Tx) error {
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
	benchScheduler(b, func(sp *mem.Space) Scheduler {
		return NewTPL(sp, vlock.NewTable(1<<16), deadlock.NewDetector(8), deadlock.Detect)
	})
}

func BenchmarkOCCTxn(b *testing.B) {
	benchScheduler(b, func(sp *mem.Space) Scheduler {
		return NewOCC(sp, vlock.NewTable(1<<16))
	})
}

func BenchmarkTOTxn(b *testing.B) {
	benchScheduler(b, func(sp *mem.Space) Scheduler {
		return NewTO(sp, vlock.NewTable(1<<16), 1<<16)
	})
}

func BenchmarkSTMTxn(b *testing.B) {
	benchScheduler(b, func(sp *mem.Space) Scheduler {
		return NewSTM(sp)
	})
}

func BenchmarkHSyncTxn(b *testing.B) {
	benchScheduler(b, func(sp *mem.Space) Scheduler {
		return NewHSync(sp, 8)
	})
}

func BenchmarkHTOTxn(b *testing.B) {
	benchScheduler(b, func(sp *mem.Space) Scheduler {
		return NewHTO(sp, vlock.NewTable(1<<16), 1<<16, 1000)
	})
}

// BenchmarkSTMTxnUntaxed isolates the cost-model contribution (see
// internal/simcost): the same STM transaction without the calibrated
// software-barrier penalty.
func BenchmarkSTMTxnUntaxed(b *testing.B) {
	simcost.SetEnabled(false)
	defer simcost.SetEnabled(true)
	benchScheduler(b, func(sp *mem.Space) Scheduler {
		return NewSTM(sp)
	})
}
