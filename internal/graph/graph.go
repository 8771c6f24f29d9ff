// Package graph provides the compressed-sparse-row graphs, builders,
// loaders and statistics that every engine in this module runs on.
//
// Vertices are dense uint32 ids. A CSR stores out-adjacency; graphs built
// with Symmetrize hold each undirected edge in both directions. Edge
// weights for weighted algorithms (shortest paths) are derived
// deterministically from the endpoint pair, so they need no storage and
// are identical across engines and runs.
package graph

import "fmt"

// Edge is one directed edge for builders and loaders.
type Edge struct {
	U, V uint32
}

// CSR is a compressed-sparse-row adjacency structure.
type CSR struct {
	n       int
	offsets []uint64
	adj     []uint32
	// undirected records that the builder symmetrized the edge set.
	undirected bool
}

// NumVertices returns |V|.
func (g *CSR) NumVertices() int { return g.n }

// NumEdges returns the number of stored directed arcs (twice the edge
// count for symmetrized graphs).
func (g *CSR) NumEdges() int { return len(g.adj) }

// Undirected reports whether the adjacency was symmetrized.
func (g *CSR) Undirected() bool { return g.undirected }

// Degree returns the out-degree of v.
func (g *CSR) Degree(v uint32) int {
	return int(g.offsets[v+1] - g.offsets[v])
}

// Neighbors returns the out-neighbors of v, sorted ascending. The slice
// aliases internal storage and must not be modified.
func (g *CSR) Neighbors(v uint32) []uint32 {
	return g.adj[g.offsets[v]:g.offsets[v+1]]
}

// EdgeIndexBase returns the index of v's first arc in edge-indexed
// storage (parallel arrays for per-edge state).
func (g *CSR) EdgeIndexBase(v uint32) uint64 { return g.offsets[v] }

// MaxDegree returns the largest out-degree.
func (g *CSR) MaxDegree() int {
	m := 0
	for v := uint32(0); int(v) < g.n; v++ {
		if d := g.Degree(v); d > m {
			m = d
		}
	}
	return m
}

// AvgDegree returns |E|/|V| over stored arcs.
func (g *CSR) AvgDegree() float64 {
	if g.n == 0 {
		return 0
	}
	return float64(len(g.adj)) / float64(g.n)
}

// Validate checks structural invariants; it is used by tests and after
// loading untrusted files.
func (g *CSR) Validate() error {
	if err := g.validateBounds(); err != nil {
		return err
	}
	return g.validateRows(0, g.n)
}

// validateBounds checks the offsets' length and their ends.
func (g *CSR) validateBounds() error {
	if len(g.offsets) != g.n+1 {
		return fmt.Errorf("graph: offsets length %d, want %d", len(g.offsets), g.n+1)
	}
	if g.offsets[0] != 0 || g.offsets[g.n] != uint64(len(g.adj)) {
		return fmt.Errorf("graph: offset bounds [%d, %d], want [0, %d]", g.offsets[0], g.offsets[g.n], len(g.adj))
	}
	return nil
}

// validateRows checks rows [lo, hi): offsets that rise, and neighbours in
// range and strictly sorted. It reads offsets[lo:hi+1], so it needs only
// their length to be right.
func (g *CSR) validateRows(lo, hi int) error {
	for v := lo; v < hi; v++ {
		if g.offsets[v] > g.offsets[v+1] {
			return fmt.Errorf("graph: offsets not monotone at vertex %d", v)
		}
		if g.offsets[v+1] > uint64(len(g.adj)) {
			return fmt.Errorf("graph: vertex %d ends at %d, past %d arcs", v, g.offsets[v+1], len(g.adj))
		}
		nb := g.adj[g.offsets[v]:g.offsets[v+1]]
		for i, u := range nb {
			if int(u) >= g.n {
				return fmt.Errorf("graph: vertex %d has out-of-range neighbor %d", v, u)
			}
			if i > 0 && nb[i-1] >= u {
				return fmt.Errorf("graph: vertex %d adjacency not strictly sorted at %d", v, i)
			}
		}
	}
	return nil
}

// WeightOf derives the deterministic integer weight of edge (u, v) in
// [1, maxW]; weighted algorithms share it so every engine sees the same
// weighted graph without storing weights.
func WeightOf(u, v uint32, maxW uint32) uint32 {
	x := uint64(u)<<32 | uint64(v)
	x ^= x >> 33
	x *= 0xFF51AFD7ED558CCD
	x ^= x >> 33
	x *= 0xC4CEB9FE1A85EC53
	x ^= x >> 33
	return 1 + uint32(x%uint64(maxW))
}
