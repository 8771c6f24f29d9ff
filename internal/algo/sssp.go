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
// of transactions that committed: one per polled queue entry, a stale
// entry's one-read transaction (see SPFA) included.
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
//
// An entry is the distance its push wrote, so one whose priority exceeds
// the vertex's current distance is stale and its transaction returns after
// its first read (lazy deletion): the commit that lowered the distance
// emitted the entry that relaxes the vertex at it.
func SPFA(r *Runtime, source uint32) (*SSSPResult, error) {
	pq := worklist.NewPQ(r.Threads)
	pq.Push(source, 0)
	return sssp(r, source, PQSource{pq})
}

func sssp(r *Runtime, source uint32, src Source) (*SSSPResult, error) {
	r.checkVertex(source)
	dist := r.NewVertexArray(None)
	r.Sp.Store(dist+mem.Addr(source), 0)

	relaxed, err := r.ForEachQueued(src, dist, relax(r, dist))
	if err != nil {
		return nil, err
	}
	return &SSSPResult{Dist: r.ReadArray(dist), Relaxed: relaxed}, nil
}

// relax is the transaction for one queue entry (v, prio) over the
// distances at dist: it lowers every neighbor v's distance improves and
// emits each with its new distance as its priority.
func relax(r *Runtime, dist mem.Addr) func(tx sched.Tx, v uint32, prio uint64, emit func(uint32, uint64)) error {
	return func(tx sched.Tx, v uint32, prio uint64, emit func(uint32, uint64)) error {
		// The staleness test reads inside the transaction: a plain load
		// could see an L-mode in-place write that later rolls back, and
		// drop the one entry left to relax v. A FIFO's prio is 0.
		dv := tx.Read(v, dist+mem.Addr(v))
		if dv == None || dv < prio {
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
	}
}
