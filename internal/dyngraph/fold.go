package dyngraph

import (
	"fmt"
	"math"
	"slices"

	"tufast/internal/graph"
)

// FoldStats counts what Fold's ops did, exactly as ApplyOwned would
// have reported them: an op that changed an arc (either arc of an
// undirected op) inserted or removed, any other a no-op.
type FoldStats struct {
	Inserted, Removed, NoOps int
}

// Fold returns the CSR that results from applying ops to base in slice
// order, with AddArc/RemoveArc's semantics and without an overlay: the
// last op on an arc decides it, self-loops are dropped (from the base's
// rows too, as Compact drops them), and an op on an undirected base
// covers both arcs. Time is not consulted. An op naming a vertex out of
// range is refused before anything is built. With no ops, base itself
// is returned, as it is.
//
// It is one counting sort of the ops' arcs by source, then one merge of
// each sorted base row with its arcs sorted by target: where a target
// has arcs, they are walked in slice order from the base's state, and
// whatever changes that state marks its op changed. Nothing is read
// from or written to a Space, so folding a tail costs what the tail and
// the base hold, not what a chain per touched vertex would.
func Fold(base *graph.CSR, ops []Op) (*graph.CSR, FoldStats, error) {
	var st FoldStats
	n := base.NumVertices()
	if len(ops) > math.MaxInt32 {
		return nil, st, fmt.Errorf("dyngraph: fold of %d ops", len(ops))
	}
	for i, op := range ops {
		if int(op.U) >= n || int(op.V) >= n {
			return nil, st, fmt.Errorf("dyngraph: fold op %d (%d, %d) out of range [0,%d)", i, op.U, op.V, n)
		}
	}
	if len(ops) == 0 {
		return base, st, nil
	}
	undirected := base.Undirected()

	// Counting sort: arcs[start[u]:start[u+1]] are source u's arcs, each
	// target<<32 | op index<<1 | del, placed in slice order. The op's
	// kind rides in the key so the merge never goes back to ops.
	start := make([]int, n+1)
	for _, op := range ops {
		if op.U == op.V {
			continue
		}
		start[op.U+1]++
		if undirected {
			start[op.V+1]++
		}
	}
	for u := 0; u < n; u++ {
		start[u+1] += start[u]
	}
	arcs := make([]uint64, start[n])
	next := slices.Clone(start[:n])
	for i, op := range ops {
		if op.U == op.V {
			continue
		}
		key := uint64(i) << 1
		if op.Del {
			key |= 1
		}
		arcs[next[op.U]] = uint64(op.V)<<32 | key
		next[op.U]++
		if undirected {
			arcs[next[op.V]] = uint64(op.U)<<32 | key
			next[op.V]++
		}
	}

	changed := make([]bool, len(ops))
	offsets := make([]uint64, n+1)
	adj := make([]uint32, 0, base.NumEdges()+len(arcs))
	for u := uint32(0); int(u) < n; u++ {
		row, mine := base.Neighbors(u), arcs[start[u]:start[u+1]]
		// Sorting the keys orders a target's arcs by op index, which
		// is slice order.
		slices.Sort(mine)
		for len(mine) > 0 {
			w := uint32(mine[0] >> 32)
			for len(row) > 0 && row[0] < w {
				if row[0] != u {
					adj = append(adj, row[0])
				}
				row = row[1:]
			}
			live := len(row) > 0 && row[0] == w
			if live {
				row = row[1:]
			}
			for len(mine) > 0 && uint32(mine[0]>>32) == w {
				if del := mine[0]&1 != 0; del == live {
					live = !live
					changed[uint32(mine[0])>>1] = true
				}
				mine = mine[1:]
			}
			if live {
				adj = append(adj, w)
			}
		}
		for _, w := range row {
			if w != u {
				adj = append(adj, w)
			}
		}
		offsets[u+1] = uint64(len(adj))
	}

	for i, op := range ops {
		switch {
		case !changed[i]:
			st.NoOps++
		case op.Del:
			st.Removed++
		default:
			st.Inserted++
		}
	}
	// adj was sized for every arc inserting; keep only what was folded.
	g, err := graph.FromCSRParts(n, offsets, slices.Clone(adj), undirected)
	return g, st, err
}
