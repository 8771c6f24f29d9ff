package algo

import (
	"tufast/internal/mem"
	"tufast/internal/sched"
)

// TriangleResult carries the global triangle count.
type TriangleResult struct {
	Triangles uint64
}

// Triangles counts triangles on an undirected graph with the standard
// ordered-intersection method: vertex v counts triangles (v, u, w) with
// v < u < w by intersecting its forward adjacency with each forward
// neighbor's. Adjacency is immutable so the intersections read it
// directly; each vertex's count lands in shared TM state (its slot of a
// per-vertex counter array), making the workload the paper's "neighbors
// only, no global communication" case — transactions never conflict and
// everything commits in H mode.
func Triangles(r *Runtime) (*TriangleResult, error) {
	g := r.G
	counts := r.NewVertexArray(0)

	err := r.ForEachVertex(NoWarm, func(tx sched.Tx, v uint32) error {
		nv := forward(g.Neighbors(v), v)
		var local uint64
		for _, u := range nv {
			local += intersectCount(nv, forward(g.Neighbors(u), u))
		}
		if local > 0 {
			tx.Write(v, counts+mem.Addr(v), local)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var total uint64
	for _, c := range r.ReadArray(counts) {
		total += c
	}
	return &TriangleResult{Triangles: total}, nil
}

// forward returns the suffix of sorted adjacency strictly greater than v.
func forward(nb []uint32, v uint32) []uint32 {
	lo, hi := 0, len(nb)
	for lo < hi {
		mid := (lo + hi) / 2
		if nb[mid] <= v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return nb[lo:]
}

// intersectCount returns |a ∩ b| for sorted slices.
func intersectCount(a, b []uint32) uint64 {
	var n uint64
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}
