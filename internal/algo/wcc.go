package algo

import (
	"tufast/internal/mem"
	"tufast/internal/sched"
	"tufast/internal/worklist"
)

// WCCResult carries the component labels (minimum vertex id per
// component) and the component count.
type WCCResult struct {
	Component  []uint64
	Components int
}

// WCC computes weakly connected components by asynchronous minimum-label
// propagation: every vertex starts as its own label; a vertex transaction
// pulls the smallest label among itself and its neighbors and pushes it
// to any neighbor with a larger one, re-activating it. On a symmetrized
// graph the result is exact connected components; on a directed graph the
// caller symmetrizes first (the paper converts to undirected for such
// workloads).
func WCC(r *Runtime) (*WCCResult, error) {
	g := r.G
	n := g.NumVertices()
	comp := r.NewVertexArray(0)
	for v := uint32(0); int(v) < n; v++ {
		r.Sp.Store(comp+mem.Addr(v), uint64(v))
	}

	q := worklist.NewQueue(r.Threads)
	for v := uint32(0); int(v) < n; v++ {
		q.Push(v)
	}

	_, err := r.ForEachQueued(FIFOSource{q}, func(tx sched.Tx, v uint32, emit func(uint32, uint64)) error {
		cv := tx.Read(v, comp+mem.Addr(v))
		min := cv
		for _, u := range g.Neighbors(v) {
			if cu := tx.Read(u, comp+mem.Addr(u)); cu < min {
				min = cu
			}
		}
		if min < cv {
			tx.Write(v, comp+mem.Addr(v), min)
			// Our own label improved: neighbors with larger labels may
			// now improve too.
			emit(v, 0)
		}
		for _, u := range g.Neighbors(v) {
			if cu := tx.Read(u, comp+mem.Addr(u)); cu > min {
				tx.Write(u, comp+mem.Addr(u), min)
				emit(u, 0)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	labels := r.ReadArray(comp)
	seen := make(map[uint64]struct{})
	for _, l := range labels {
		seen[l] = struct{}{}
	}
	return &WCCResult{Component: labels, Components: len(seen)}, nil
}
