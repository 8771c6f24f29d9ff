package algo

import (
	"tufast/internal/graph"
	"tufast/internal/mem"
	"tufast/internal/sched"
	"tufast/internal/worklist"
)

// MaxEdgeWeight bounds the deterministic random edge weights ("we
// generate the edge weight randomly", §VI-A).
const MaxEdgeWeight = 100

// SSSPResult carries the distances (None = unreachable) and the number
// of relax transactions that committed.
type SSSPResult struct {
	Dist    []uint64
	Relaxed uint64
}

// BellmanFord computes single-source shortest paths with the paper's
// Figure 3 algorithm driven by a FIFO queue (the queue-based Bellman-Ford
// variant).
func BellmanFord(r *Runtime, source uint32) (*SSSPResult, error) {
	q := worklist.NewQueue(r.Threads)
	q.Push(source)
	return sssp(r, source, FIFOSource{q})
}

// SPFA computes single-source shortest paths with the same relaxation
// transaction but a priority queue ordered by tentative distance — the
// paper's point is that switching algorithms is literally swapping the
// queue (Figure 3: "switch between two algorithms by switching between a
// FIFO queue and a priority queue").
func SPFA(r *Runtime, source uint32) (*SSSPResult, error) {
	pq := worklist.NewPQ(r.Threads)
	pq.Push(source, 0)
	return sssp(r, source, PQSource{pq})
}

func sssp(r *Runtime, source uint32, src Source) (*SSSPResult, error) {
	r.checkVertex(source)
	dist := r.NewVertexArray(None)
	r.Sp.Store(dist+mem.Addr(source), 0)

	relaxed, err := r.ForEachQueued(src, dist, func(tx sched.Tx, v uint32, emit func(uint32, uint64)) error {
		dv := tx.Read(v, dist+mem.Addr(v))
		if dv == None {
			return nil
		}
		for _, u := range r.G.Neighbors(v) {
			w := uint64(graph.WeightOf(v, u, MaxEdgeWeight))
			du := tx.Read(u, dist+mem.Addr(u))
			if dv+w < du {
				tx.Write(u, dist+mem.Addr(u), dv+w)
				emit(u, dv+w)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &SSSPResult{Dist: r.ReadArray(dist), Relaxed: relaxed}, nil
}
