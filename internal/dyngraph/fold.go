package dyngraph

import (
	"fmt"
	"runtime"
	"slices"

	"tufast/internal/graph"
	"tufast/internal/worklist"
)

// FoldStats counts what Fold's ops did, exactly as ApplyOwned would
// have reported them: an op that changed an arc (either arc of an
// undirected op) inserted or removed, any other a no-op.
type FoldStats struct {
	Inserted, Removed, NoOps int
}

// maxFoldOps bounds a fold's log: an arc's key holds its op's index in
// 30 bits (see foldKey).
const maxFoldOps = 1 << 30

// minFoldArcs is the smallest fold, in base arcs plus logged ops, that
// runs on more than one goroutine. Every fold copies its whole base, so
// this counts the base as well as the log. Set from BenchmarkFoldCutoff
// on a 2-core x86 box, medians of six: two workers lose up to ~5k
// (4.8k: 103 against 87 µs), break even at ~10k (207 against 202 µs) and
// win from ~21k on (380 against 451 µs; 0.74x at 43k), and the cut sits
// between.
const minFoldArcs = 16 << 10

// foldKey is the sort key of op i's arc to target: target<<32 | i<<2 |
// side<<1 | del, where side is 1 for the reverse arc of an op on an
// undirected base. Sorting a row's keys orders them by target and then
// by op index, which is slice order, and the low 32 bits less del name
// the arc's own changed flag (foldArc), so no two arcs share one even
// when an undirected op's two arcs land in different ranges.
func foldKey(target uint32, i int, side, del bool) uint64 {
	k := uint64(target)<<32 | uint64(i)<<2
	if side {
		k |= 2
	}
	if del {
		k |= 1
	}
	return k
}

// foldLenErr refuses a log too long for foldKey's op index.
func foldLenErr(nops int) error {
	if nops > maxFoldOps {
		return fmt.Errorf("dyngraph: fold of %d ops, more than %d", nops, maxFoldOps)
	}
	return nil
}

// foldArc is the index of key's arc in a fold's changed flags: 2i+side.
func foldArc(key uint64) uint32 { return uint32(key) >> 1 }

// Fold returns the CSR that results from applying ops to base in slice
// order, with AddArc/RemoveArc's semantics and without an overlay: the
// last op on an arc decides it, self-loops are dropped (from the base's
// rows too, as Compact drops them), and an op on an undirected base
// covers both arcs. Time is not consulted. An op naming a vertex out of
// range is refused before anything is built. With no ops and no
// self-loop in base, base itself is returned.
//
// It is one counting sort of the ops' arcs by source, then one merge of
// each sorted base row with its arcs sorted by target: where a target
// has arcs, they are walked in slice order from the base's state, and
// whatever changes that state marks its arc changed. Nothing is read
// from or written to a Space, so folding a tail costs what the tail and
// the base hold, not what a chain per touched vertex would.
//
// It runs on GOMAXPROCS workers. The counting sort splits the log into
// chunks, each counted and scattered by one worker. The merge cuts the
// sources into contiguous ranges of equal weight (worklist.Ranges), a
// source weighing its base degree plus its logged arcs; each range
// sorts and merges its rows into a scratch of its own, then copies them
// into place, counts a share of the ops and validates its rows. An
// undirected op's two arcs may land in different ranges, so each arc has
// a changed flag of its own. A fold below minFoldArcs runs on the
// caller's goroutine alone.
func Fold(base *graph.CSR, ops []Op) (*graph.CSR, FoldStats, error) {
	workers := runtime.GOMAXPROCS(0)
	if base.NumEdges()+len(ops) < minFoldArcs {
		workers = 1
	}
	return fold(base, ops, workers)
}

// fold is Fold on the given number of workers.
func fold(base *graph.CSR, ops []Op, workers int) (*graph.CSR, FoldStats, error) {
	var st FoldStats
	n := base.NumVertices()
	if err := foldLenErr(len(ops)); err != nil {
		return nil, st, err
	}
	if len(ops) == 0 && !hasSelfLoop(base) {
		return base, st, nil
	}
	undirected := base.Undirected()

	// Counting, over chunks of the log: chunk c counts its arcs by source
	// in cursor[c]. A chunk's counters cost as much as the graph has
	// vertices, so there are no more chunks than twice the ops per vertex.
	chunks := worklist.Ranges(len(ops), min(workers, 2*len(ops)/max(n, 1)), func(i int) uint64 { return uint64(i) })
	cursor := make([][]uint32, len(chunks)-1)
	bad := make([]int, len(chunks)-1)
	worklist.EachRange(chunks, workers, func(c, lo, hi int) {
		cursor[c], bad[c] = count(ops, n, lo, hi, undirected)
	})
	for _, i := range bad {
		if i >= 0 {
			op := ops[i]
			return nil, st, fmt.Errorf("dyngraph: fold op %d (%d, %d) out of range [0,%d)", i, op.U, op.V, n)
		}
	}
	// start[u] is where source u's arcs begin in arcs, and chunk c's are
	// placed from cursor[c][u] on, after the earlier chunks'.
	start := make([]uint32, n+1)
	for u := 0; u < n; u++ {
		at := start[u]
		for _, cur := range cursor {
			at, cur[u] = at+cur[u], at
		}
		start[u+1] = at
	}
	arcs := make([]uint64, start[n])
	worklist.EachRange(chunks, workers, func(c, lo, hi int) {
		scatter(ops, arcs, cursor[c], lo, hi, undirected)
	})

	// room(u) is the most rows [0, u) can fold to: their base arcs and
	// their logged arcs. The sources are cut into rangesPerWorker ranges
	// per worker, claimed as workers come free, weighing each source by
	// its room plus four: a row costs about four arcs' worth whatever it
	// holds (its sort call, its offset). Weighing it at one left the
	// high-id range of serve_write's shape, where rows are many and short,
	// 20% slower than the other.
	room := func(u int) int { return int(base.EdgeIndexBase(uint32(u))) + int(start[u]) }
	bounds := worklist.Ranges(n, rangesPerWorker*workers, func(u int) uint64 { return uint64(room(u) + 4*u) })
	parts := len(bounds) - 1

	// Each range merges into a scratch of its own, allocated (and so
	// zeroed) on its own goroutine, with offsets relative to its first row.
	changed := make([]uint8, 2*len(ops))
	offsets := make([]uint64, n+1)
	rows := make([][]uint32, parts)
	worklist.EachRange(bounds, workers, func(k, lo, hi int) {
		rows[k] = merge(base, arcs, start, changed, make([]uint32, room(hi)-room(lo)), offsets, lo, hi)
	})

	// Then each copies its rows into place, range k's at dst[k], and counts
	// a share of the ops; the graph validates the rows as they land.
	dst := make([]int, parts+1)
	for k := 0; k < parts; k++ {
		dst[k+1] = dst[k] + len(rows[k])
	}
	adj := make([]uint32, dst[parts])
	counts := make([]FoldStats, parts)
	g, err := graph.FromCSRRanges(n, offsets, adj, undirected, bounds, workers, func(k, lo, hi int) {
		copy(adj[dst[k]:], rows[k])
		for u := lo; u < hi; u++ {
			offsets[u+1] += uint64(dst[k])
		}
		counts[k] = countFolded(changed, len(ops)*k/parts, len(ops)*(k+1)/parts)
	})
	if err != nil {
		return nil, st, err
	}
	for _, c := range counts {
		st.Inserted += c.Inserted
		st.Removed += c.Removed
		st.NoOps += c.NoOps
	}
	return g, st, nil
}

// hasSelfLoop reports whether any row of g holds its own source.
func hasSelfLoop(g *graph.CSR) bool {
	for u := uint32(0); int(u) < g.NumVertices(); u++ {
		if _, found := slices.BinarySearch(g.Neighbors(u), u); found {
			return true
		}
	}
	return false
}

// rangesPerWorker is how many ranges of rows each worker merges, claimed
// one at a time: a range whose worker ran late leaves less of the fold
// waiting than one range per worker would. Set on serve_write's shape,
// where four per worker beat one by 6% at two workers.
const rangesPerWorker = 4

// count counts the arcs of ops [lo, hi) by source. It stops at the first
// op naming a vertex out of [0, n) and returns its index, or -1.
func count(ops []Op, n, lo, hi int, undirected bool) ([]uint32, int) {
	cnt := make([]uint32, n)
	for i := lo; i < hi; i++ {
		op := ops[i]
		if int(op.U) >= n || int(op.V) >= n {
			return nil, i
		}
		if op.U == op.V {
			continue
		}
		cnt[op.U]++
		if undirected {
			cnt[op.V]++
		}
	}
	return cnt, -1
}

// scatter places the arcs of ops [lo, hi) in arcs, source u's from
// cur[u] on. The order within a source is slice order, but nothing
// depends on it: the merge sorts each row's keys.
func scatter(ops []Op, arcs []uint64, cur []uint32, lo, hi int, undirected bool) {
	for i := lo; i < hi; i++ {
		op := ops[i]
		if op.U == op.V {
			continue
		}
		arcs[cur[op.U]] = foldKey(op.V, i, false, op.Del)
		cur[op.U]++
		if undirected {
			arcs[cur[op.V]] = foldKey(op.U, i, true, op.Del)
			cur[op.V]++
		}
	}
}

// An arc's changed flag: the op that changed its state inserted it, or
// removed it.
const (
	foldInserted uint8 = 1 + iota
	foldRemoved
)

// merge folds rows [lo, hi), each base row merged with its sorted arcs,
// into out, and returns what it wrote. offsets[u+1] is set to where row
// u ends in out, and each arc that changed its arc's state has its flag
// set.
func merge(base *graph.CSR, arcs []uint64, start []uint32, changed []uint8, out []uint32,
	offsets []uint64, lo, hi int) []uint32 {
	at := 0
	for u := uint32(lo); int(u) < hi; u++ {
		row, mine := base.Neighbors(u), arcs[start[u]:start[u+1]]
		slices.Sort(mine)
		for len(mine) > 0 {
			w := uint32(mine[0] >> 32)
			for len(row) > 0 && row[0] < w {
				if row[0] != u {
					out[at] = row[0]
					at++
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
					changed[foldArc(mine[0])] = foldInserted
					if del {
						changed[foldArc(mine[0])] = foldRemoved
					}
				}
				mine = mine[1:]
			}
			if live {
				out[at] = w
				at++
			}
		}
		for _, w := range row {
			if w != u {
				out[at] = w
				at++
			}
		}
		offsets[u+1] = uint64(at)
	}
	return out[:at]
}

// countFolded counts ops [lo, hi) by their arcs' flags: both arcs of an
// op carry its kind, and an op changed anything if either did.
func countFolded(changed []uint8, lo, hi int) FoldStats {
	var st FoldStats
	for i := lo; i < hi; i++ {
		switch changed[2*i] | changed[2*i+1] {
		case 0:
			st.NoOps++
		case foldRemoved:
			st.Removed++
		default:
			st.Inserted++
		}
	}
	return st
}
