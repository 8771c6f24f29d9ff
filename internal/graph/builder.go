package graph

import (
	"fmt"
	"slices"

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

// Build constructs a CSR over n vertices from an edge list. Self-loops
// are dropped unless requested, Symmetrize adds the reverse of every
// arc, and duplicates go. An id out of range is an error before any
// allocation. Rows are sorted by counting, not comparing: one pass
// buckets the source of every kept arc by its target, and transposing
// back walks the targets in ascending order, so each row comes out
// sorted, as a per-row sort would leave it, with duplicates adjacent.
func Build(n int, edges []Edge, opt BuildOptions) (*CSR, error) {
	if n <= 0 {
		return nil, fmt.Errorf("graph: non-positive vertex count %d", n)
	}
	for _, e := range edges {
		if int(e.U) >= n || int(e.V) >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range for %d vertices", e.U, e.V, n)
		}
	}

	// The transpose of the kept arcs: row t lists the sources of t's
	// in-arcs, in input order. out counts the rows of the pass back.
	keep := func(e Edge) bool { return e.U != e.V || opt.KeepSelfLoops }
	in, out := make([]uint64, n+1), make([]uint64, n+1)
	for _, e := range edges {
		if keep(e) {
			in[e.V+1]++
			out[e.U+1]++
			if opt.Symmetrize {
				in[e.U+1]++
				out[e.V+1]++
			}
		}
	}
	prefixSum(in)
	src := make([]uint32, in[n])
	cursor := slices.Clone(in[:n])
	for _, e := range edges {
		if keep(e) {
			src[cursor[e.V]] = e.U
			cursor[e.V]++
			if opt.Symmetrize {
				src[cursor[e.U]] = e.V
				cursor[e.U]++
			}
		}
	}

	offsets, adj := transpose(n, in, src, out)
	// Drop the adjacent duplicates, compacting in place.
	w, lo := uint64(0), uint64(0)
	for v := 1; v <= n; v++ {
		hi := offsets[v]
		for i, x := range adj[lo:hi] {
			if i == 0 || x != adj[w-1] {
				adj[w] = x
				w++
			}
		}
		offsets[v], lo = w, hi
	}
	return &CSR{n: n, offsets: offsets, adj: adj[:w:w], undirected: opt.Symmetrize}, nil
}

// prefixSum turns counts c[i+1] (c[0] is 0) into row offsets.
func prefixSum(c []uint64) {
	for i := 1; i < len(c); i++ {
		c[i] += c[i-1]
	}
}

// transpose scatters the rows of (offsets, adj) over n vertices: each
// entry x of row v appends v to row x of the result. tOff holds the
// result's row lengths at tOff[x+1], or is nil to have them counted.
// Rows are walked in ascending order, so every result row is sorted
// whatever the order inside the input rows.
func transpose(n int, offsets []uint64, adj []uint32, tOff []uint64) ([]uint64, []uint32) {
	if tOff == nil {
		tOff = make([]uint64, n+1)
		for _, x := range adj {
			tOff[x+1]++
		}
	}
	prefixSum(tOff)
	tAdj := make([]uint32, len(adj))
	cursor := slices.Clone(tOff[:n])
	for v := range n {
		for _, x := range adj[offsets[v]:offsets[v+1]] {
			tAdj[cursor[x]] = uint32(v)
			cursor[x]++
		}
	}
	return tOff, tAdj
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
	offsets, adj := transpose(g.n, g.offsets, g.adj, nil)
	return &CSR{n: g.n, offsets: offsets, adj: adj, undirected: g.undirected}
}

// Symmetrized returns the undirected view of g, the graph Build makes
// from g's arcs with Symmetrize, or g if it is undirected. Row v merges
// v's sorted out-row with its sorted in-row (the transpose's), dropping
// duplicates and self-loops, so it needs no edge list.
func (g *CSR) Symmetrized() *CSR {
	if g.undirected {
		return g
	}
	rt := g.Reverse()
	offsets := make([]uint64, g.n+1)
	adj := make([]uint32, 0, 2*len(g.adj))
	for v := uint32(0); int(v) < g.n; v++ {
		out, in := g.Neighbors(v), rt.Neighbors(v)
		for len(out) > 0 || len(in) > 0 {
			var u uint32
			if len(in) == 0 || len(out) > 0 && out[0] <= in[0] {
				u, out = out[0], out[1:]
			} else {
				u, in = in[0], in[1:]
			}
			if u != v && (len(adj) == int(offsets[v]) || adj[len(adj)-1] != u) {
				adj = append(adj, u)
			}
		}
		offsets[v+1] = uint64(len(adj))
	}
	return &CSR{n: g.n, offsets: offsets, adj: slices.Clip(adj), undirected: true}
}
