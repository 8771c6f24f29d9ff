// Package algorithms provides ready-made graph analytics on top of a
// tufast.System: the paper's §VI-A application suite (PageRank, BFS,
// connected components, triangle counting, Bellman-Ford/SPFA shortest
// paths, maximal independent set, greedy maximal matching) plus k-core
// decomposition, greedy coloring, label-propagation communities and
// clustering coefficients.
//
// Every function runs the transactional implementation the benchmarks
// run (internal/algo) on the System's own driver — its worker pool, sweep
// and queued drain, bound to the call's context — so an algorithm shares
// thread ids, and what each worker has learnt, with everything else on
// that System. All of them are sequential-looking per-vertex code executed
// serializably in parallel — the library's whole pitch. Use them directly,
// or read their sources as templates for your own ad-hoc analytics.
//
//	g := tufast.GeneratePowerLaw(100_000, 2_000_000, 2.1, 1)
//	sys := tufast.NewSystem(g, tufast.Options{})
//	ranks, err := algorithms.PageRank(sys, 0.85, 1e-6)
//
// Every algorithm also has a Ctx variant (PageRankCtx, BFSCtx, ...)
// that stops promptly — mid-sweep, between retries, and inside lock
// waits — and returns ctx.Err() once the context is cancelled. Partial
// results are discarded; the System itself stays healthy and reusable.
//
// Algorithms marked "undirected" require a symmetrized graph
// (Graph.Undirect or BuildGraph with undirected=true); they return
// ErrNeedUndirected otherwise.
package algorithms

import (
	"context"
	"errors"

	"tufast"
	"tufast/internal/algo"
)

// ErrNeedUndirected is returned by algorithms that require a symmetrized
// graph when given a directed one.
var ErrNeedUndirected = errors.New("algorithms: this algorithm requires an undirected (symmetrized) graph")

func needUndirected(s *tufast.System) error {
	if !s.Graph().Undirected() {
		return ErrNeedUndirected
	}
	return nil
}

// PageRank computes PageRank with damping d to residual tolerance eps
// using asynchronous residual pushing (in-place updates — the workload
// the paper's §VI-A highlights).
func PageRank(s *tufast.System, d, eps float64) ([]float64, error) {
	return PageRankCtx(context.Background(), s, d, eps)
}

// PageRankCtx is PageRank with cancellation.
func PageRankCtx(ctx context.Context, s *tufast.System, d, eps float64) ([]float64, error) {
	res, err := algo.PageRank(s.Runtime().WithContext(ctx), d, eps)
	if err != nil {
		return nil, err
	}
	return res.Rank, nil
}

// BFS returns hop distances from source (tufast.None = unreachable).
func BFS(s *tufast.System, source uint32) ([]uint64, error) {
	return BFSCtx(context.Background(), s, source)
}

// BFSCtx is BFS with cancellation.
func BFSCtx(ctx context.Context, s *tufast.System, source uint32) ([]uint64, error) {
	res, err := algo.BFS(s.Runtime().WithContext(ctx), source)
	if err != nil {
		return nil, err
	}
	return res.Level, nil
}

// ConnectedComponents labels every vertex with the smallest vertex id in
// its component. Undirected.
func ConnectedComponents(s *tufast.System) ([]uint64, error) {
	return ConnectedComponentsCtx(context.Background(), s)
}

// ConnectedComponentsCtx is ConnectedComponents with cancellation.
func ConnectedComponentsCtx(ctx context.Context, s *tufast.System) ([]uint64, error) {
	if err := needUndirected(s); err != nil {
		return nil, err
	}
	res, err := algo.WCC(s.Runtime().WithContext(ctx))
	if err != nil {
		return nil, err
	}
	return res.Component, nil
}

// Triangles counts triangles. Undirected.
func Triangles(s *tufast.System) (uint64, error) {
	return TrianglesCtx(context.Background(), s)
}

// TrianglesCtx is Triangles with cancellation.
func TrianglesCtx(ctx context.Context, s *tufast.System) (uint64, error) {
	if err := needUndirected(s); err != nil {
		return 0, err
	}
	res, err := algo.Triangles(s.Runtime().WithContext(ctx))
	if err != nil {
		return 0, err
	}
	return res.Triangles, nil
}

// ShortestPathsBellmanFord computes single-source shortest paths over
// the module's deterministic edge weights with a FIFO work list
// (the paper's Figure 3, Bellman-Ford flavour).
func ShortestPathsBellmanFord(s *tufast.System, source uint32) ([]uint64, error) {
	return ShortestPathsBellmanFordCtx(context.Background(), s, source)
}

// ShortestPathsBellmanFordCtx is ShortestPathsBellmanFord with
// cancellation.
func ShortestPathsBellmanFordCtx(ctx context.Context, s *tufast.System, source uint32) ([]uint64, error) {
	res, err := algo.BellmanFord(s.Runtime().WithContext(ctx), source)
	if err != nil {
		return nil, err
	}
	return res.Dist, nil
}

// ShortestPathsSPFA is the same relaxation driven by a priority queue
// (the paper's Figure 3, SPFA flavour: switching algorithms is switching
// the queue).
func ShortestPathsSPFA(s *tufast.System, source uint32) ([]uint64, error) {
	return ShortestPathsSPFACtx(context.Background(), s, source)
}

// ShortestPathsSPFACtx is ShortestPathsSPFA with cancellation.
func ShortestPathsSPFACtx(ctx context.Context, s *tufast.System, source uint32) ([]uint64, error) {
	res, err := algo.SPFA(s.Runtime().WithContext(ctx), source)
	if err != nil {
		return nil, err
	}
	return res.Dist, nil
}

// MaximalIndependentSet returns the in-set flags of a maximal
// independent set. Undirected.
func MaximalIndependentSet(s *tufast.System) ([]bool, error) {
	return MaximalIndependentSetCtx(context.Background(), s)
}

// MaximalIndependentSetCtx is MaximalIndependentSet with cancellation.
func MaximalIndependentSetCtx(ctx context.Context, s *tufast.System) ([]bool, error) {
	if err := needUndirected(s); err != nil {
		return nil, err
	}
	res, err := algo.MIS(s.Runtime().WithContext(ctx))
	if err != nil {
		return nil, err
	}
	return res.InSet, nil
}

// MaximalMatching returns the partner array of a maximal matching
// (tufast.None = unmatched) — the paper's running example (Figure 1).
// Undirected.
func MaximalMatching(s *tufast.System) ([]uint64, error) {
	return MaximalMatchingCtx(context.Background(), s)
}

// MaximalMatchingCtx is MaximalMatching with cancellation.
func MaximalMatchingCtx(ctx context.Context, s *tufast.System) ([]uint64, error) {
	if err := needUndirected(s); err != nil {
		return nil, err
	}
	res, err := algo.MaximalMatching(s.Runtime().WithContext(ctx))
	if err != nil {
		return nil, err
	}
	return res.Match, nil
}

// KCore returns every vertex's core number. Undirected.
func KCore(s *tufast.System) ([]uint64, error) {
	return KCoreCtx(context.Background(), s)
}

// KCoreCtx is KCore with cancellation.
func KCoreCtx(ctx context.Context, s *tufast.System) ([]uint64, error) {
	if err := needUndirected(s); err != nil {
		return nil, err
	}
	res, err := algo.KCore(s.Runtime().WithContext(ctx))
	if err != nil {
		return nil, err
	}
	return res.Core, nil
}

// GreedyColoring returns a proper vertex coloring using at most
// maxDegree+1 colors. Undirected.
func GreedyColoring(s *tufast.System) ([]uint64, error) {
	return GreedyColoringCtx(context.Background(), s)
}

// GreedyColoringCtx is GreedyColoring with cancellation.
func GreedyColoringCtx(ctx context.Context, s *tufast.System) ([]uint64, error) {
	if err := needUndirected(s); err != nil {
		return nil, err
	}
	res, err := algo.GreedyColoring(s.Runtime().WithContext(ctx))
	if err != nil {
		return nil, err
	}
	return res.Color, nil
}

// LabelPropagation runs community detection by iterative majority
// labeling for at most maxRounds rounds (0 = default). Undirected.
func LabelPropagation(s *tufast.System, maxRounds int) ([]uint64, error) {
	return LabelPropagationCtx(context.Background(), s, maxRounds)
}

// LabelPropagationCtx is LabelPropagation with cancellation.
func LabelPropagationCtx(ctx context.Context, s *tufast.System, maxRounds int) ([]uint64, error) {
	if err := needUndirected(s); err != nil {
		return nil, err
	}
	res, err := algo.LabelPropagation(s.Runtime().WithContext(ctx), maxRounds)
	if err != nil {
		return nil, err
	}
	return res.Component, nil
}

// ClusteringCoefficients returns every vertex's local clustering
// coefficient. Undirected.
func ClusteringCoefficients(s *tufast.System) ([]float64, error) {
	return ClusteringCoefficientsCtx(context.Background(), s)
}

// ClusteringCoefficientsCtx is ClusteringCoefficients with cancellation.
func ClusteringCoefficientsCtx(ctx context.Context, s *tufast.System) ([]float64, error) {
	if err := needUndirected(s); err != nil {
		return nil, err
	}
	return algo.ClusteringCoefficients(s.Runtime().WithContext(ctx))
}
