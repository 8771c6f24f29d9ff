package algo

import (
	"fmt"

	"tufast/internal/graph"
	"tufast/internal/mem"
	"tufast/internal/sched"
)

// ColoringResult carries the color of each vertex and the palette size.
type ColoringResult struct {
	Color  []uint64
	Colors int
}

// colorNone marks an uncolored vertex.
const colorNone = ^uint64(0)

// GreedyColoring computes a proper vertex coloring: each vertex
// transaction reads its neighbors' colors and takes the smallest free
// one. Serializability makes the parallel run equivalent to a sequential
// greedy pass, so the result uses at most maxDegree+1 colors — another
// §II-style example of sequential logic running unmodified in parallel.
// Run on an undirected graph.
func GreedyColoring(r *Runtime) (*ColoringResult, error) {
	g := r.G
	color := r.NewVertexArray(colorNone)

	err := r.ForEachVertex(color, func(tx sched.Tx, v uint32) error {
		if tx.Read(v, color+mem.Addr(v)) != colorNone {
			return nil
		}
		used := make(map[uint64]bool, g.Degree(v))
		for _, u := range g.Neighbors(v) {
			if u == v {
				continue
			}
			if c := tx.Read(u, color+mem.Addr(u)); c != colorNone {
				used[c] = true
			}
		}
		c := uint64(0)
		for used[c] {
			c++
		}
		tx.Write(v, color+mem.Addr(v), c)
		return nil
	})
	if err != nil {
		return nil, err
	}
	colors := r.ReadArray(color)
	res := &ColoringResult{Color: colors}
	seen := map[uint64]bool{}
	for _, c := range colors {
		if !seen[c] {
			seen[c] = true
			res.Colors++
		}
	}
	return res, nil
}

// VerifyColoring checks properness and the maxdeg+1 bound.
func VerifyColoring(g *graph.CSR, color []uint64) error {
	for v := uint32(0); int(v) < g.NumVertices(); v++ {
		if color[v] == colorNone {
			return fmt.Errorf("vertex %d uncolored", v)
		}
		if color[v] > uint64(g.MaxDegree()) {
			return fmt.Errorf("vertex %d color %d exceeds maxdeg+1", v, color[v])
		}
		for _, u := range g.Neighbors(v) {
			if u != v && color[u] == color[v] {
				return fmt.Errorf("edge (%d,%d) monochromatic (color %d)", v, u, color[v])
			}
		}
	}
	return nil
}

// LabelPropagation runs synchronous-free community detection: each vertex
// transaction adopts the most frequent label among its neighbors
// (ties to the smallest label), iterating until a fixpoint. The
// paper's §I "ad-hoc analytics" pitch is exactly this kind of job: the
// whole algorithm is the sequential update rule plus a work list.
// Run on an undirected graph. Returns labels and the community count.
func LabelPropagation(r *Runtime, maxRounds int) (*WCCResult, error) {
	g := r.G
	n := g.NumVertices()
	label := r.NewVertexArray(0)
	for v := uint32(0); int(v) < n; v++ {
		r.Sp.Store(label+mem.Addr(v), uint64(v))
	}
	if maxRounds <= 0 {
		maxRounds = 16
	}
	for round := 0; round < maxRounds; round++ {
		changed := &atomicCounter{}
		err := r.ForEachVertex(label, func(tx sched.Tx, v uint32) error {
			if g.Degree(v) == 0 {
				return nil
			}
			freq := make(map[uint64]int, g.Degree(v))
			for _, u := range g.Neighbors(v) {
				freq[tx.Read(u, label+mem.Addr(u))]++
			}
			best := tx.Read(v, label+mem.Addr(v))
			bestN := 0
			for l, c := range freq {
				if c > bestN || (c == bestN && l < best) {
					best, bestN = l, c
				}
			}
			if best != tx.Read(v, label+mem.Addr(v)) {
				tx.Write(v, label+mem.Addr(v), best)
				changed.inc()
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		if changed.get() == 0 {
			break
		}
	}
	labels := r.ReadArray(label)
	seen := map[uint64]struct{}{}
	for _, l := range labels {
		seen[l] = struct{}{}
	}
	return &WCCResult{Component: labels, Components: len(seen)}, nil
}

// ClusteringCoefficients computes the local clustering coefficient of
// every vertex (triangles through v over deg(v) choose 2), reading the
// immutable adjacency directly and committing the per-vertex results
// transactionally. Run on an undirected graph.
func ClusteringCoefficients(r *Runtime) ([]float64, error) {
	g := r.G
	coeff := r.NewVertexArray(0)
	err := r.ForEachVertex(NoWarm, func(tx sched.Tx, v uint32) error {
		nb := g.Neighbors(v)
		d := len(nb)
		if d < 2 {
			return nil
		}
		var tri uint64
		for _, u := range nb {
			tri += intersectCount(nb, g.Neighbors(u))
		}
		// Each triangle through v counted twice (once per edge pair
		// ordering); pairs = d*(d-1).
		c := float64(tri) / float64(d*(d-1))
		tx.Write(v, coeff+mem.Addr(v), mem.Word(c))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return r.ReadFloatArray(coeff), nil
}
