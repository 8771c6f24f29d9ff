package tufast

import (
	"io"

	"tufast/internal/graph"
	"tufast/internal/graph/gen"
)

// EdgePair is one directed edge for BuildGraph.
type EdgePair struct {
	U, V uint32
}

// BuildGraph constructs a graph over n vertices from an edge list.
// Adjacency is sorted and de-duplicated; self-loops are dropped. With
// undirected=true every edge is stored in both directions.
func BuildGraph(n int, edges []EdgePair, undirected bool) (*Graph, error) {
	es := make([]graph.Edge, len(edges))
	for i, e := range edges {
		es[i] = graph.Edge{U: e.U, V: e.V}
	}
	c, err := graph.Build(n, es, graph.BuildOptions{Symmetrize: undirected})
	if err != nil {
		return nil, err
	}
	return &Graph{csr: c}, nil
}

// GeneratePowerLaw generates a power-law (Chung-Lu) graph with n
// vertices, ~m edges and degree exponent alpha (social networks: ~2.1),
// deterministic under seed.
func GeneratePowerLaw(n, m int, alpha float64, seed uint64) *Graph {
	return &Graph{csr: gen.PowerLaw(n, m, alpha, seed)}
}

// GenerateRMAT generates an R-MAT graph with 2^scale vertices and
// edgeFactor arcs per vertex (the standard web-crawl stand-in).
func GenerateRMAT(scale, edgeFactor int, seed uint64) *Graph {
	return &Graph{csr: gen.RMAT(scale, edgeFactor, seed)}
}

// GenerateUniform generates a graph where every vertex has exactly
// degree d with uniform random neighbors.
func GenerateUniform(n, d int, seed uint64) *Graph {
	return &Graph{csr: gen.Uniform(n, d, seed)}
}

// GenerateGrid generates a rows x cols 4-neighbor lattice (road-like).
func GenerateGrid(rows, cols int) *Graph {
	return &Graph{csr: gen.Grid(rows, cols)}
}

// Undirect returns a new symmetrized graph (every arc mirrored, then
// de-duplicated); g itself is unchanged. If g is already undirected it
// is returned as-is, not copied.
func (g *Graph) Undirect() *Graph {
	if g.csr.Undirected() {
		return g
	}
	return &Graph{csr: g.csr.Symmetrized()}
}

// LoadGraphBinary reads a graph saved with SaveBinary. The round trip
// is lossless: topology, vertex count (including trailing isolated
// vertices) and the Undirected flag all survive.
func LoadGraphBinary(path string) (*Graph, error) {
	c, err := graph.LoadBinary(path)
	if err != nil {
		return nil, err
	}
	return &Graph{csr: c}, nil
}

// SaveBinary writes the graph in the compact binary format read by
// LoadGraphBinary (and by cmd/tufast via -graph).
func (g *Graph) SaveBinary(path string) error { return g.csr.SaveBinary(path) }

// ReadEdgeListGraph parses a whitespace-separated "u v" edge list
// (SNAP-style; '#'/'%' comments). n forces the vertex count when > 0.
func ReadEdgeListGraph(r io.Reader, n int, undirected bool) (*Graph, error) {
	c, err := graph.ReadEdgeList(r, n, graph.BuildOptions{Symmetrize: undirected})
	if err != nil {
		return nil, err
	}
	return &Graph{csr: c}, nil
}
