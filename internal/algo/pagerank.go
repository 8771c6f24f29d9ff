package algo

import (
	"tufast/internal/mem"
	"tufast/internal/sched"
	"tufast/internal/worklist"
)

// PageRankResult carries the ranks and convergence metrics.
type PageRankResult struct {
	Rank       []float64
	Iterations uint64 // vertex transactions committed
}

// PageRank computes PageRank with damping d to residual tolerance eps
// using the asynchronous push (residual) formulation: each vertex
// transaction absorbs its pending residual into its rank and pushes
// damped shares to its out-neighbors' residuals, re-activating any
// neighbor whose residual crosses eps.
//
// This is the algorithm where the paper's in-place-update argument bites:
// workers always read the freshest residuals, so information propagates
// without waiting for a superstep barrier, and total work is far below
// the synchronous (Jacobi) iteration count of BSP systems (§VI-A:
// "TuFast outperforms Ligra and Galois because TuFast supports
// in-place-update").
func PageRank(r *Runtime, d, eps float64) (*PageRankResult, error) {
	g := r.G
	n := g.NumVertices()
	rank := r.NewVertexArray(mem.Word(1 - d))
	resid := r.NewVertexArray(0)
	// Seed residuals as if every vertex had just received (1-d) and must
	// push d * (1-d) / deg onward; equivalently start resid = d*(1-d)
	// scaled by in-shares. The standard initialization pushes from every
	// vertex once: resid[u] += d * (1-d) / deg(v) for each v -> u.
	for v := uint32(0); int(v) < n; v++ {
		dv := g.Degree(v)
		if dv == 0 {
			continue
		}
		share := d * (1 - d) / float64(dv)
		for _, u := range g.Neighbors(v) {
			cur := mem.Float(r.Sp.Load(resid + mem.Addr(u)))
			r.Sp.Store(resid+mem.Addr(u), mem.Word(cur+share))
		}
	}

	q := worklist.NewQueue(r.Threads)
	queued := worklist.NewBitset(n)
	for v := uint32(0); int(v) < n; v++ {
		if mem.Float(r.Sp.Load(resid+mem.Addr(v))) > eps {
			queued.TestAndSet(v)
			q.Push(v)
		}
	}

	committed, err := r.ForEachQueued(DedupFIFO{Q: q, Queued: queued}, func(tx sched.Tx, v uint32, emit func(uint32, uint64)) error {
		queued.Clear(v)
		rv := mem.Float(tx.Read(v, resid+mem.Addr(v)))
		if rv <= eps {
			return nil
		}
		tx.Write(v, resid+mem.Addr(v), mem.Word(0))
		cur := mem.Float(tx.Read(v, rank+mem.Addr(v)))
		tx.Write(v, rank+mem.Addr(v), mem.Word(cur+rv))
		deg := g.Degree(v)
		if deg == 0 {
			return nil
		}
		share := d * rv / float64(deg)
		for _, u := range g.Neighbors(v) {
			ru := mem.Float(tx.Read(u, resid+mem.Addr(u)))
			nu := ru + share
			tx.Write(u, resid+mem.Addr(u), mem.Word(nu))
			if nu > eps && ru <= eps {
				// Activation is driver state outside the TM: the emit is
				// delivered only if this transaction commits (so the
				// popped vertex always sees the committed residual), a
				// spurious double-enqueue is deduped by the DedupFIFO's
				// flush-time bitset, and a missed one is prevented by the
				// bitset clear-before-read ordering.
				emit(u, 0)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &PageRankResult{Rank: r.ReadFloatArray(rank), Iterations: committed}, nil
}
