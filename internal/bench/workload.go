package bench

import (
	"runtime"
	"sync"
	"time"

	"tufast/internal/core"
	"tufast/internal/graph"
	"tufast/internal/mem"
	"tufast/internal/sched"
	"tufast/internal/simcost"
	"tufast/internal/vlock"
)

// Workload is one of the paper's two §VI-B micro-benchmarks over vertex
// neighborhoods.
type Workload int

const (
	// RM (Read Mostly): read v and its neighbors, write only v.
	RM Workload = iota
	// RW (Read-Write): read and write v and all its neighbors.
	RW
)

// String names the workload as in the paper.
func (w Workload) String() string {
	if w == RM {
		return "RM"
	}
	return "RW"
}

// The reproduction's cost model (internal/simcost) is injected here and
// nowhere else in the library's dependency set: every scheduler a figure
// measures is built through newTuFast or taxed, so software barriers —
// the baselines' and TuFast's own L mode — pay the calibrated tax that
// keeps Fig. 7/13/14/15 orderings honest, while tufast.NewSystem, tufastd
// and benchmark/ run without it.

// newTuFast builds a TuFast system whose L mode pays the tax.
func newTuFast(sp *mem.Space, n int, cfg core.Config) *core.System {
	cfg.Tax = simcost.Tax
	return core.New(sp, n, cfg)
}

// taxed installs the tax on a freshly built baseline scheduler.
func taxed[S interface{ SetTax(func()) }](s S) S {
	s.SetTax(simcost.Tax)
	return s
}

// schedulerSet builds the §VI-B comparison set over one space. The
// TuFast system is returned separately so callers can read its mode
// stats.
func schedulerSet(sp *mem.Space, n int) (map[string]sched.Scheduler, *core.System) {
	tf := newTuFast(sp, n, core.Config{})
	return map[string]sched.Scheduler{
		"TuFast": tf,
		"2PL":    taxed(sched.NewTPL(sp, vlock.NewTable(n))),
		"OCC":    taxed(sched.NewOCC(sp, vlock.NewTable(n))),
		"STM":    taxed(sched.NewSTM(sp)),
		"HSync":  taxed(sched.NewHSync(sp, 8)),
		"H-TO":   taxed(sched.NewHTO(sp, vlock.NewTable(n), n, 1000)),
	}, tf
}

// SchedulerNames is the display order for Fig. 13/14.
var SchedulerNames = []string{"TuFast", "2PL", "OCC", "STM", "HSync", "H-TO"}

// runWorkload executes `txns` neighborhood transactions of the given kind
// on scheduler s and returns the throughput in transactions/second.
// Vertices are drawn uniformly; the power-law adjacency supplies the
// size skew the paper's argument rests on.
func runWorkload(g *graph.CSR, sp *mem.Space, s sched.Scheduler, kind Workload, base mem.Addr, txns, threads int) float64 {
	n := g.NumVertices()
	perThread := txns / threads
	if perThread == 0 {
		perThread = 1
	}
	start := time.Now()
	var wg sync.WaitGroup
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			w := s.Worker(tid)
			rng := uint64(tid)*0x9E3779B97F4A7C15 + 0x1234
			for i := 0; i < perThread; i++ {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				v := uint32(rng % uint64(n))
				hint := g.Degree(v)*2 + 2
				_ = w.Run(hint, func(tx sched.Tx) error {
					// The mid-body yield forces interleavings on few-core
					// hosts, where short transactions would otherwise run
					// unpreempted and never conflict (uniform across
					// schedulers, so the comparison stays fair).
					half := len(g.Neighbors(v)) / 2
					switch kind {
					case RM:
						sum := tx.Read(v, base+mem.Addr(v))
						for i, u := range g.Neighbors(v) {
							sum += tx.Read(u, base+mem.Addr(u))
							if i == half {
								runtime.Gosched()
							}
						}
						tx.Write(v, base+mem.Addr(v), sum)
					case RW:
						sum := tx.Read(v, base+mem.Addr(v))
						tx.Write(v, base+mem.Addr(v), sum+1)
						for i, u := range g.Neighbors(v) {
							x := tx.Read(u, base+mem.Addr(u))
							tx.Write(u, base+mem.Addr(u), x+1)
							if i == half {
								runtime.Gosched()
							}
						}
					}
					return nil
				})
			}
		}(t)
	}
	wg.Wait()
	elapsed := time.Since(start)
	return float64(perThread*threads) / elapsed.Seconds()
}

// newWorkloadSpace allocates a space with one property word per vertex.
func newWorkloadSpace(n int) (*mem.Space, mem.Addr) {
	sp := mem.NewSpace(2*n + 1024)
	base := sp.AllocLineAligned(n)
	return sp, base
}
