// Package gen generates the synthetic graphs that stand in for the
// paper's datasets (Table II: friendster, twitter-mpi, sk-2005,
// uk-2007-05 — 16-33 GB crawls we cannot ship). Each generator is
// deterministic under its seed. The power-law generators match the
// properties the paper's argument depends on: a heavy Zipf tail, a
// maximum degree far beyond the HTM capacity, and |E|/|V| ratios close
// to the originals.
package gen

import (
	"math"
	"runtime"
	"slices"

	"tufast/internal/graph"
	"tufast/internal/worklist"
)

// rng is a splitmix64/xorshift generator: fast, seedable, no global state.
type rng struct{ s uint64 }

func newRng(seed uint64) *rng {
	if seed == 0 {
		seed = gamma
	}
	return &rng{s: seed}
}

// gamma is splitmix64's increment.
const gamma = 0x9E3779B97F4A7C15

func (r *rng) next() uint64 {
	r.s += gamma
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// float returns a uniform float64 in [0, 1).
func (r *rng) float() float64 {
	return float64(r.next()>>11) / float64(1<<53)
}

// intn returns a uniform int in [0, n).
func (r *rng) intn(n int) int {
	return int(r.next() % uint64(n))
}

// PowerLaw generates a Chung-Lu style power-law graph: endpoint i is
// drawn with probability proportional to (i+1)^(-beta) where
// beta = 1/(alpha-1) for a degree exponent alpha (social networks:
// alpha ~ 2.0-2.3). Vertex 0 ends up the global hub. The id space is
// then shuffled so hubs are not adjacent in memory (adjacent ids sharing
// cache lines would be unrealistically friendly to the capacity model).
//
// Sampling uses an exact cumulative-weight table with binary search,
// which is numerically sound for every alpha > 1 (the closed-form
// inverse CDF degenerates at alpha = 2, where the cumulative mass is
// logarithmic).
func PowerLaw(n, m int, alpha float64, seed uint64) *graph.CSR {
	if alpha <= 1.2 {
		alpha = 1.2
	}
	beta := 1 / (alpha - 1)
	r := newRng(seed)
	cum := make([]float64, n)
	total := 0.0
	for i := 0; i < n; i++ {
		total += math.Pow(float64(i+1), -beta)
		cum[i] = total
	}
	sample := func() uint32 {
		target := r.float() * total
		lo, hi := 0, n-1
		for lo < hi {
			mid := (lo + hi) / 2
			if cum[mid] < target {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return uint32(lo)
	}
	perm := permutation(n, r)
	edges := make([]graph.Edge, 0, m)
	for attempts := 0; len(edges) < m && attempts < 20*m; attempts++ {
		u, v := sample(), sample()
		if u == v {
			continue
		}
		edges = append(edges, graph.Edge{U: perm[u], V: perm[v]})
	}
	return graph.MustBuild(n, edges, graph.BuildOptions{})
}

// RMAT generates a Kronecker/R-MAT graph with the canonical
// (a,b,c,d) = (0.57, 0.19, 0.19, 0.05) partition, the standard stand-in
// for web crawls like sk-2005/uk-2007-05.
//
// Candidate arc j takes draws [j*scale, (j+1)*scale) of the seed's
// stream, a quadrant per bit from the top, and the first m candidates
// that are not self-loops are the arcs. rmatArc starts the stream at any
// candidate, so blocks of them fill on GOMAXPROCS workers and are kept
// in index order: the graph is the sequential draw's on any number of
// workers.
func RMAT(scale, edgeFactor int, seed uint64) *graph.CSR {
	n := 1 << scale
	m := n * edgeFactor
	s0 := newRng(seed).s
	var edges []graph.Edge
	for j := 0; len(edges) < m; {
		// Draw the arcs still wanted, with a margin for self-loops (a
		// share of 0.62^scale); a margin used up is topped up.
		kept, want := len(edges), m-len(edges)
		block := want + want/16 + 64
		edges = slices.Grow(edges, block)[:kept+block]
		worklist.Range(block, runtime.GOMAXPROCS(0), 1<<14, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				edges[kept+i] = rmatArc(scale, s0, uint64(j+i))
			}
		})
		for _, e := range edges[kept : kept+block] {
			if e.U != e.V && kept < m {
				edges[kept] = e
				kept++
			}
		}
		edges, j = edges[:kept], j+block
	}
	return graph.MustBuild(n, edges, graph.BuildOptions{})
}

// R-MAT's quadrant thresholds as integers: rng.float() < p exactly when
// next()>>11 < p*2^53, because a, a+b and a+b+c lie in [0.5, 1), where
// a float64 is a whole multiple of 2^-53.
const (
	rmatA   = uint64(float64(0.57) * (1 << 53))
	rmatAB  = uint64(float64(0.57+0.19) * (1 << 53))
	rmatABC = uint64(float64(0.57+0.19+0.19) * (1 << 53))
)

// rmatArc returns candidate j of the stream seeded at s0, whose draw k
// is the state s0+k*gamma advanced once. It is branch-free: a draw x
// picks quadrant q = (x>=a)+(x>=a+b)+(x>=a+b+c), whose low bit is v's
// and high bit u's; x and the thresholds are below 2^53, so x-t wraps to
// a set top bit exactly when x < t.
func rmatArc(scale int, s0, j uint64) graph.Edge {
	r := rng{s: s0 + j*uint64(scale)*gamma}
	var u, v uint32
	for bit := scale - 1; bit >= 0; bit-- {
		x := r.next() >> 11
		q := uint32(3 - (x-rmatA)>>63 - (x-rmatAB)>>63 - (x-rmatABC)>>63)
		u |= q >> 1 << bit
		v |= q & 1 << bit
	}
	return graph.Edge{U: u, V: v}
}

// Uniform generates a graph where every vertex has exactly degree d with
// uniformly random distinct-ish neighbors — the paper's "synthetic graph
// with an even degree distribution" used for the Figure 7 contention
// study.
func Uniform(n, d int, seed uint64) *graph.CSR {
	r := newRng(seed)
	edges := make([]graph.Edge, 0, n*d)
	for v := 0; v < n; v++ {
		for k := 0; k < d; k++ {
			u := r.intn(n)
			if u == v {
				u = (u + 1) % n
			}
			edges = append(edges, graph.Edge{U: uint32(v), V: uint32(u)})
		}
	}
	return graph.MustBuild(n, edges, graph.BuildOptions{})
}

// Grid generates a rows x cols 4-neighbor lattice (a road-network-like
// low-skew graph; the paper notes such graphs are not its focus — we use
// it to show TuFast degrades gracefully without skew).
func Grid(rows, cols int) *graph.CSR {
	n := rows * cols
	edges := make([]graph.Edge, 0, 2*n)
	id := func(r, c int) uint32 { return uint32(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				edges = append(edges, graph.Edge{U: id(r, c), V: id(r, c+1)})
			}
			if r+1 < rows {
				edges = append(edges, graph.Edge{U: id(r, c), V: id(r+1, c)})
			}
		}
	}
	return graph.MustBuild(n, edges, graph.BuildOptions{Symmetrize: true})
}

// permutation returns a random permutation of [0, n).
func permutation(n int, r *rng) []uint32 {
	p := make([]uint32, n)
	for i := range p {
		p[i] = uint32(i)
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Star generates a hub-and-spokes graph: vertex 0 connected to all
// others. It is the adversarial extreme for capacity-based routing and
// is used by tests and ablations.
func Star(n int) *graph.CSR {
	edges := make([]graph.Edge, 0, n-1)
	for v := 1; v < n; v++ {
		edges = append(edges, graph.Edge{U: 0, V: uint32(v)})
	}
	return graph.MustBuild(n, edges, graph.BuildOptions{Symmetrize: true})
}
