package graph_test

import (
	"math/rand/v2"
	"testing"

	"tufast/internal/graph"
	"tufast/internal/graph/gen"
)

// relabelled lists g's arcs with ids shuffled inside aligned blocks of
// block vertices, the way the benchmark renames a shape per seed: the
// arcs reach Build in no sorted order.
func relabelled(g *graph.CSR, block int) []graph.Edge {
	n := g.NumVertices()
	r := rand.New(rand.NewPCG(1, 2))
	perm := make([]uint32, n)
	for i := range perm {
		perm[i] = uint32(i)
	}
	for lo := 0; lo < n; lo += block {
		p := perm[lo:min(lo+block, n)]
		r.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	}
	arcs := make([]graph.Edge, 0, g.NumEdges())
	for u := uint32(0); int(u) < n; u++ {
		for _, v := range g.Neighbors(u) {
			arcs = append(arcs, graph.Edge{U: perm[u], V: perm[v]})
		}
	}
	return arcs
}

// BenchmarkBuild times Build on two workload shapes: serve_write's
// directed R-MAT (scale 16, ids shuffled in blocks of 8) and lib_flat's
// uniform graph (50k vertices, degree 8, ids fully shuffled), which is
// symmetrized.
func BenchmarkBuild(b *testing.B) {
	for _, c := range []struct {
		name string
		g    *graph.CSR
		opt  graph.BuildOptions
		blk  int
	}{
		{"serve_write", gen.RMAT(16, 8, 1), graph.BuildOptions{}, 8},
		{"lib_flat", gen.Uniform(50_000, 8, 1), graph.BuildOptions{Symmetrize: true}, 50_000},
	} {
		arcs := relabelled(c.g, c.blk)
		b.Run(c.name, func(b *testing.B) {
			for range b.N {
				graph.MustBuild(c.g.NumVertices(), arcs, c.opt)
			}
		})
	}
}
