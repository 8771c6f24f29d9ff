package graph

import (
	"fmt"
	"sort"

	"tufast/internal/worklist"
)

// BuildOptions controls CSR construction.
type BuildOptions struct {
	// Symmetrize inserts the reverse of every edge (undirected view).
	Symmetrize bool
	// KeepSelfLoops retains u->u arcs (dropped by default: no analytics
	// in this module wants them).
	KeepSelfLoops bool
}

// Build constructs a CSR over n vertices from an edge list. Adjacency
// lists are sorted and de-duplicated; self-loops are dropped unless
// requested.
func Build(n int, edges []Edge, opt BuildOptions) (*CSR, error) {
	if n <= 0 {
		return nil, fmt.Errorf("graph: non-positive vertex count %d", n)
	}
	for _, e := range edges {
		if int(e.U) >= n || int(e.V) >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range for %d vertices", e.U, e.V, n)
		}
	}

	// Count pass.
	deg := make([]uint64, n+1)
	count := func(u, v uint32) {
		if u == v && !opt.KeepSelfLoops {
			return
		}
		deg[u+1]++
	}
	for _, e := range edges {
		count(e.U, e.V)
		if opt.Symmetrize {
			count(e.V, e.U)
		}
	}
	offsets := make([]uint64, n+1)
	for i := 0; i < n; i++ {
		offsets[i+1] = offsets[i] + deg[i+1]
	}

	// Fill pass.
	adj := make([]uint32, offsets[n])
	cursor := make([]uint64, n)
	copy(cursor, offsets[:n])
	place := func(u, v uint32) {
		if u == v && !opt.KeepSelfLoops {
			return
		}
		adj[cursor[u]] = v
		cursor[u]++
	}
	for _, e := range edges {
		place(e.U, e.V)
		if opt.Symmetrize {
			place(e.V, e.U)
		}
	}

	// Sort and de-duplicate each adjacency list, then compact.
	out := adj[:0]
	newOff := make([]uint64, n+1)
	for v := 0; v < n; v++ {
		nb := adj[offsets[v]:offsets[v+1]]
		sort.Slice(nb, func(i, j int) bool { return nb[i] < nb[j] })
		prevLen := len(out)
		var last uint32
		first := true
		for _, u := range nb {
			if first || u != last {
				out = append(out, u)
				last, first = u, false
			}
		}
		newOff[v+1] = newOff[v] + uint64(len(out)-prevLen)
	}

	g := &CSR{n: n, offsets: newOff, adj: out[:newOff[n]:newOff[n]], undirected: opt.Symmetrize}
	return g, nil
}

// MustBuild is Build that panics on error (generators with known-good
// inputs).
func MustBuild(n int, edges []Edge, opt BuildOptions) *CSR {
	g, err := Build(n, edges, opt)
	if err != nil {
		panic(err)
	}
	return g
}

// FromCSRParts assembles a CSR from raw parts that already satisfy the
// Validate invariants (loaders use it).
func FromCSRParts(n int, offsets []uint64, adj []uint32, undirected bool) (*CSR, error) {
	return FromCSRRanges(n, offsets, adj, undirected, []int{0, n}, 1, nil)
}

// FromCSRRanges is FromCSRParts for parts filled over the row ranges
// that bounds cuts [0, n) into (worklist.Ranges' form): fill(k, lo, hi),
// when not nil, writes rows [lo, hi) of offsets[1:] and adj. The ranges
// run on up to workers goroutines (worklist.EachRange), and each range's
// rows are validated right after they are filled, while they are in
// cache. A range's first row starts where the range before it ends, so
// the first rows are checked once every range is filled.
func FromCSRRanges(n int, offsets []uint64, adj []uint32, undirected bool, bounds []int, workers int,
	fill func(k, lo, hi int)) (*CSR, error) {
	if len(bounds) == 0 || bounds[0] != 0 || bounds[len(bounds)-1] != n {
		return nil, fmt.Errorf("graph: row ranges %v do not cover [0, %d)", bounds, n)
	}
	g := &CSR{n: n, offsets: offsets, adj: adj, undirected: undirected}
	if len(offsets) != n+1 {
		return nil, g.validateBounds()
	}
	errs := make([]error, len(bounds)-1)
	worklist.EachRange(bounds, workers, func(k, lo, hi int) {
		if fill != nil {
			fill(k, lo, hi)
		}
		errs[k] = g.validateRows(min(lo+1, hi), hi)
	})
	if err := g.validateBounds(); err != nil {
		return nil, err
	}
	for k, err := range errs {
		if err == nil && bounds[k] < bounds[k+1] {
			err = g.validateRows(bounds[k], bounds[k]+1)
		}
		if err != nil {
			return nil, err
		}
	}
	return g, nil
}

// Reverse returns the transpose graph (in-adjacency as out-adjacency).
func (g *CSR) Reverse() *CSR {
	deg := make([]uint64, g.n+1)
	for _, u := range g.adj {
		deg[u+1]++
	}
	offsets := make([]uint64, g.n+1)
	for i := 0; i < g.n; i++ {
		offsets[i+1] = offsets[i] + deg[i+1]
	}
	adj := make([]uint32, len(g.adj))
	cursor := make([]uint64, g.n)
	copy(cursor, offsets[:g.n])
	for v := uint32(0); int(v) < g.n; v++ {
		for _, u := range g.Neighbors(v) {
			adj[cursor[u]] = v
			cursor[u]++
		}
	}
	// Transposing a sorted-by-target scan emits sources in ascending
	// order per bucket already.
	return &CSR{n: g.n, offsets: offsets, adj: adj, undirected: g.undirected}
}
