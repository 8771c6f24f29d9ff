package algo

import (
	"tufast/internal/mem"
	"tufast/internal/sched"
	"tufast/internal/worklist"
)

// KCoreResult carries the core number of every vertex (the largest k such
// that the vertex survives in the k-core).
type KCoreResult struct {
	Core []uint64
	// MaxCore is the degeneracy of the graph.
	MaxCore uint64
}

// KCore computes core numbers with asynchronous peeling: every vertex
// keeps a current bound (initially its degree); a vertex transaction
// recomputes its h-index-style bound from its neighbors' bounds and, on
// decrease, re-activates the neighbors that may be affected. This is the
// textbook distributed k-core of Montresor et al., expressed naturally
// over TuFast's transactional reads of neighbor state. Run on an
// undirected graph.
func KCore(r *Runtime) (*KCoreResult, error) {
	g := r.G
	n := g.NumVertices()
	bound := r.NewVertexArray(0)
	for v := uint32(0); int(v) < n; v++ {
		r.Sp.Store(bound+mem.Addr(v), uint64(g.Degree(v)))
	}

	q := worklist.NewQueue(r.Threads)
	queued := worklist.NewBitset(n)
	for v := uint32(0); int(v) < n; v++ {
		queued.TestAndSet(v)
		q.Push(v)
	}

	src := DedupFIFO{Q: q, Queued: queued}
	_, err := r.Drain("foreach_queued", src, src, nil, bound, func(out *worklist.Emits) func(sched.Tx, uint32, uint64) error {
		// The h-index histogram, one per worker: a bound is only ever a
		// degree or a smaller h, so none exceeds the maximum degree, and
		// every attempt clears what it uses.
		hist := make([]uint32, g.MaxDegree()+1)
		return func(tx sched.Tx, v uint32, _ uint64) error {
			queued.Clear(v)
			cur := tx.Read(v, bound+mem.Addr(v))
			if cur == 0 {
				return nil
			}
			// h-index of neighbor bounds, capped at cur: the largest h such
			// that at least h neighbors have bound >= h.
			counts := hist[:cur+1]
			clear(counts)
			for _, u := range g.Neighbors(v) {
				bu := tx.Read(u, bound+mem.Addr(u))
				if bu > cur {
					bu = cur
				}
				counts[bu]++
			}
			var h, seen uint64
			for h = cur; h > 0; h-- {
				seen += uint64(counts[h])
				if seen >= h {
					break
				}
			}
			if h < cur {
				tx.Write(v, bound+mem.Addr(v), h)
				for _, u := range g.Neighbors(v) {
					// A neighbor whose bound exceeds ours may now shrink; the
					// DedupFIFO's flush-time bitset dedupes re-activations (a
					// hub would otherwise be enqueued once per shrinking
					// neighbor).
					if tx.Read(u, bound+mem.Addr(u)) > h {
						out.Emit(u, 0)
					}
				}
			}
			return nil
		}
	})
	if err != nil {
		return nil, err
	}
	core := r.ReadArray(bound)
	res := &KCoreResult{Core: core}
	for _, c := range core {
		if c > res.MaxCore {
			res.MaxCore = c
		}
	}
	return res, nil
}

// SeqKCore is the reference peeling implementation (bucket queue).
func SeqKCore(gr interface {
	NumVertices() int
	Degree(uint32) int
	Neighbors(uint32) []uint32
}) []uint64 {
	n := gr.NumVertices()
	deg := make([]int, n)
	maxDeg := 0
	for v := 0; v < n; v++ {
		deg[v] = gr.Degree(uint32(v))
		if deg[v] > maxDeg {
			maxDeg = deg[v]
		}
	}
	buckets := make([][]uint32, maxDeg+1)
	for v := 0; v < n; v++ {
		buckets[deg[v]] = append(buckets[deg[v]], uint32(v))
	}
	core := make([]uint64, n)
	removed := make([]bool, n)
	cur := make([]int, n)
	copy(cur, deg)
	for k := 0; k <= maxDeg; k++ {
		for i := 0; i < len(buckets[k]); i++ {
			v := buckets[k][i]
			if removed[v] || cur[v] > k {
				continue
			}
			removed[v] = true
			core[v] = uint64(k)
			for _, u := range gr.Neighbors(v) {
				if !removed[u] && cur[u] > k {
					cur[u]--
					if cur[u] <= k {
						buckets[k] = append(buckets[k], u)
					} else {
						buckets[cur[u]] = append(buckets[cur[u]], u)
					}
				}
			}
		}
	}
	return core
}
