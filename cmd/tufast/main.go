// Command tufast runs one graph-analytics application on one scheduler
// or engine, printing the runtime and result summary.
//
// Usage:
//
//	tufast -algo pagerank -dataset twitter-mpi -system tufast
//	tufast -algo bfs -graph edges.txt -system ligra
//
// Systems: tufast, stm, 2pl, occ, to, hsync, hto (TM-based);
// ligra, galois, powergraph, powerlyra, graphchi (engines).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"tufast/internal/algo"
	"tufast/internal/core"
	"tufast/internal/engines/bsp"
	"tufast/internal/engines/dist"
	"tufast/internal/engines/lockstep"
	"tufast/internal/engines/ooc"
	"tufast/internal/graph"
	"tufast/internal/graph/gen"
	"tufast/internal/mem"
	"tufast/internal/obs"
	"tufast/internal/sched"
	"tufast/internal/simcost"
	"tufast/internal/vlock"
)

func main() {
	var (
		algoName = flag.String("algo", "pagerank", "pagerank|bfs|wcc|triangle|bellman-ford|spfa|mis|matching")
		system   = flag.String("system", "tufast", "tufast|stm|2pl|occ|to|hsync|hto|ligra|galois|powergraph|powerlyra|graphchi")
		dataset  = flag.String("dataset", "twitter-mpi", "synthetic dataset stand-in (see tufast-bench table2)")
		graphIn  = flag.String("graph", "", "edge list file or .bin graph (overrides -dataset)")
		scale    = flag.Float64("scale", 1.0, "dataset scale multiplier")
		threads  = flag.Int("threads", runtime.GOMAXPROCS(0), "worker threads")
		source   = flag.Uint("source", 0, "source vertex for traversals")
		stats    = flag.Bool("stats", false, "print scheduler statistics")
		metrics  = flag.Bool("metrics", false, "dump the observability snapshot as JSON (TM systems only)")
		metHTTP  = flag.String("metrics-http", "", "serve /metrics and /debug/vars on this address during the run and block after it (TM systems only; e.g. :8080)")
		timeout  = flag.Duration("timeout", 0, "cancel the run after this long (TM systems only; 0 = no limit)")

		streamIn   = flag.String("stream", "", "edge-stream file (graphgen -stream); replays it through the dynamic-graph API instead of -algo/-system")
		streamAlgo = flag.String("stream-algo", "mutate", "with -stream: mutate|cc|pagerank")
		window     = flag.Int("window", 4096, "with -stream: ops per batch, each applied owned (and, with -stream-algo cc|pagerank, repaired after)")
	)
	flag.Parse()

	if *streamIn != "" {
		ctx := context.Background()
		if *timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, *timeout)
			defer cancel()
		}
		runStream(ctx, *streamIn, *streamAlgo, *threads, *window, *stats, *metrics, *timeout)
		return
	}

	g, err := loadGraph(*graphIn, *dataset, *scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tufast:", err)
		os.Exit(1)
	}
	needUndirected := map[string]bool{"wcc": true, "triangle": true, "mis": true, "matching": true}
	if needUndirected[*algoName] && !g.Undirected() {
		g = symmetrize(g)
	}
	fmt.Printf("graph: |V|=%d |E|=%d maxdeg=%d\n", g.NumVertices(), g.NumEdges(), g.MaxDegree())

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	// With -metrics-http the endpoint goes live as soon as the scheduler
	// exists, so the run can be watched from outside.
	onSched := func(s sched.Scheduler) {
		if *metHTTP == "" {
			return
		}
		bound, _, err := obs.Serve(*metHTTP, "tufast", s.Metrics().Snapshot)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tufast: metrics endpoint:", err)
			os.Exit(1)
		}
		fmt.Printf("metrics: http://%s/metrics\n", bound)
	}

	start := time.Now()
	summary, scheduler, err := run(ctx, g, *algoName, *system, *threads, uint32(*source), onSched)
	elapsed := time.Since(start)
	if errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(os.Stderr, "tufast: run cancelled after %v (-timeout %v)\n", elapsed, *timeout)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tufast:", err)
		os.Exit(1)
	}
	fmt.Printf("%s on %s: %s\n", *algoName, *system, summary)
	fmt.Printf("elapsed: %v\n", elapsed)
	if *stats && scheduler != nil {
		s := scheduler.Metrics().Snapshot().Totals()
		fmt.Printf("commits=%d aborts=%d reads=%d writes=%d deadlocks=%d\n",
			s.Commits, s.Aborts, s.Reads, s.Writes, s.Deadlocks)
	}
	if *metrics && scheduler != nil {
		buf, merr := json.MarshalIndent(scheduler.Metrics().Snapshot(), "", "  ")
		if merr != nil {
			fmt.Fprintln(os.Stderr, "tufast:", merr)
			os.Exit(1)
		}
		fmt.Printf("metrics: %s\n", buf)
	}
	if *metHTTP != "" && scheduler != nil {
		fmt.Println("metrics: endpoint still serving; Ctrl-C to exit")
		select {}
	}
}

func loadGraph(path, dataset string, scale float64) (*graph.CSR, error) {
	if path != "" {
		if g, err := graph.LoadBinary(path); err == nil {
			return g, nil
		}
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return graph.ReadEdgeList(f, 0, graph.BuildOptions{})
	}
	d, ok := gen.DatasetByName(dataset)
	if !ok {
		return nil, fmt.Errorf("unknown dataset %q", dataset)
	}
	return d.Generate(scale), nil
}

func symmetrize(g *graph.CSR) *graph.CSR {
	edges := make([]graph.Edge, 0, g.NumEdges())
	for v := uint32(0); int(v) < g.NumVertices(); v++ {
		for _, u := range g.Neighbors(v) {
			edges = append(edges, graph.Edge{U: v, V: u})
		}
	}
	return graph.MustBuild(g.NumVertices(), edges, graph.BuildOptions{Symmetrize: true})
}

func run(ctx context.Context, g *graph.CSR, algoName, system string, threads int, source uint32, onSched func(sched.Scheduler)) (string, sched.Scheduler, error) {
	n := g.NumVertices()
	switch system {
	case "tufast", "stm", "2pl", "occ", "to", "hsync", "hto":
		sp := mem.NewSpace(algo.SpaceWordsFor(n))
		var s sched.Scheduler
		switch system {
		case "tufast":
			s = core.New(sp, n, core.Config{Tax: simcost.Tax})
		case "stm":
			s = sched.NewSTM(sp)
		case "2pl":
			s = sched.NewTPL(sp, vlock.NewTable(n))
		case "occ":
			s = sched.NewOCC(sp, vlock.NewTable(n))
		case "to":
			s = sched.NewTO(sp, vlock.NewTable(n), n)
		case "hsync":
			s = sched.NewHSync(sp, 8)
		case "hto":
			s = sched.NewHTO(sp, vlock.NewTable(n), n, 1000)
		}
		// -system compares schedulers as the paper's figures do, so
		// every software barrier pays the reproduction's tax: the
		// baselines here, TuFast's L mode through its Config above.
		if t, ok := s.(interface{ SetTax(func()) }); ok {
			t.SetTax(simcost.Tax)
		}
		if onSched != nil {
			onSched(s)
		}
		r := algo.NewRuntime(g, sp, s, threads)
		if ctx.Done() != nil {
			r.Ctx = ctx
		}
		sum, err := runTM(r, algoName, source)
		return sum, s, err
	case "ligra":
		e := bsp.New(g, threads)
		return runBSP(e, algoName, source)
	case "galois":
		e := lockstep.New(g, threads)
		return runLockstep(e, algoName, source)
	case "powergraph", "powerlyra":
		cut := dist.EdgeCut
		if system == "powerlyra" {
			cut = dist.HybridCut
		}
		e := dist.New(g, dist.Config{Nodes: 16, Cut: cut})
		return runDist(e, algoName, source)
	case "graphchi":
		dir, err := os.MkdirTemp("", "tufast-graphchi-")
		if err != nil {
			return "", nil, err
		}
		defer os.RemoveAll(dir)
		e, err := ooc.New(g, dir, 8)
		if err != nil {
			return "", nil, err
		}
		defer e.Close()
		return runOOC(e, algoName, source)
	default:
		return "", nil, fmt.Errorf("unknown system %q", system)
	}
}

func runTM(r *algo.Runtime, name string, source uint32) (string, error) {
	switch name {
	case "pagerank":
		res, err := algo.PageRank(r, 0.85, 1e-6)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("converged after %d vertex transactions", res.Iterations), nil
	case "bfs":
		res, err := algo.BFS(r, source)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("visited %d vertices", res.Visited), nil
	case "wcc":
		res, err := algo.WCC(r)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("%d components", res.Components), nil
	case "triangle":
		res, err := algo.Triangles(r)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("%d triangles", res.Triangles), nil
	case "bellman-ford":
		res, err := algo.BellmanFord(r, source)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("%d relaxation transactions", res.Relaxed), nil
	case "spfa":
		res, err := algo.SPFA(r, source)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("%d relaxation transactions", res.Relaxed), nil
	case "mis":
		res, err := algo.MIS(r)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("independent set of %d", res.Size), nil
	case "matching":
		res, err := algo.MaximalMatching(r)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("%d matched pairs", res.Pairs), nil
	default:
		return "", fmt.Errorf("unknown algorithm %q", name)
	}
}

func runBSP(e *bsp.Engine, name string, source uint32) (string, sched.Scheduler, error) {
	switch name {
	case "pagerank":
		_, steps := e.PageRank(0.85, 1e-6)
		return fmt.Sprintf("converged in %d supersteps", steps), nil, nil
	case "bfs":
		lv := e.BFS(source)
		return fmt.Sprintf("visited %d vertices", countSet(lv)), nil, nil
	case "wcc":
		c := e.WCC()
		return fmt.Sprintf("%d components", countDistinct(c)), nil, nil
	case "triangle":
		return fmt.Sprintf("%d triangles", e.Triangles()), nil, nil
	case "bellman-ford", "spfa":
		d := e.SSSP(source)
		return fmt.Sprintf("reached %d vertices", countSet(d)), nil, nil
	case "mis":
		m := e.MIS(1)
		return fmt.Sprintf("independent set of %d", countTrue(m)), nil, nil
	default:
		return "", nil, fmt.Errorf("algorithm %q not supported on this engine", name)
	}
}

func runLockstep(e *lockstep.Engine, name string, source uint32) (string, sched.Scheduler, error) {
	switch name {
	case "pagerank":
		e.PageRank(0.85, 1e-6)
		return "converged", nil, nil
	case "bfs":
		return fmt.Sprintf("visited %d vertices", countSet(e.BFS(source))), nil, nil
	case "wcc":
		return fmt.Sprintf("%d components", countDistinct(e.WCC())), nil, nil
	case "triangle":
		return fmt.Sprintf("%d triangles", e.Triangles()), nil, nil
	case "bellman-ford", "spfa":
		return fmt.Sprintf("reached %d vertices", countSet(e.SSSP(source))), nil, nil
	case "mis":
		return fmt.Sprintf("independent set of %d", countTrue(e.MIS())), nil, nil
	default:
		return "", nil, fmt.Errorf("algorithm %q not supported on this engine", name)
	}
}

func runDist(e *dist.Engine, name string, source uint32) (string, sched.Scheduler, error) {
	var sum string
	switch name {
	case "pagerank":
		_, steps := e.PageRank(0.85, 1e-6)
		sum = fmt.Sprintf("converged in %d supersteps", steps)
	case "bfs":
		sum = fmt.Sprintf("visited %d vertices", countSet(e.BFS(source)))
	case "wcc":
		sum = fmt.Sprintf("%d components", countDistinct(e.WCC()))
	case "triangle":
		sum = fmt.Sprintf("%d triangles", e.Triangles())
	case "bellman-ford", "spfa":
		sum = fmt.Sprintf("reached %d vertices", countSet(e.SSSP(source)))
	case "mis":
		sum = fmt.Sprintf("independent set of %d", countTrue(e.MIS(1)))
	default:
		return "", nil, fmt.Errorf("algorithm %q not supported on this engine", name)
	}
	return fmt.Sprintf("%s [%.1f MB moved, %v simulated network]",
		sum, float64(e.BytesMoved)/1e6, e.NetworkTime), nil, nil
}

func runOOC(e *ooc.Engine, name string, source uint32) (string, sched.Scheduler, error) {
	var sum string
	var err error
	switch name {
	case "pagerank":
		_, err = e.PageRank(0.85, 1e-6)
		sum = "converged"
	case "bfs":
		var lv []uint64
		lv, err = e.BFS(source)
		sum = fmt.Sprintf("visited %d vertices", countSet(lv))
	case "wcc":
		var c []uint64
		c, err = e.WCC()
		sum = fmt.Sprintf("%d components", countDistinct(c))
	case "triangle":
		var tri uint64
		tri, err = e.Triangles()
		sum = fmt.Sprintf("%d triangles", tri)
	case "bellman-ford", "spfa":
		var d []uint64
		d, err = e.SSSP(source)
		sum = fmt.Sprintf("reached %d vertices", countSet(d))
	case "mis":
		var m []bool
		m, err = e.MIS(1)
		sum = fmt.Sprintf("independent set of %d", countTrue(m))
	default:
		return "", nil, fmt.Errorf("algorithm %q not supported on this engine", name)
	}
	if err != nil {
		return "", nil, err
	}
	return fmt.Sprintf("%s [%.1f MB read, %.1f MB written, %d iterations]",
		sum, float64(e.BytesRead)/1e6, float64(e.BytesWritten)/1e6, e.Iterations), nil, nil
}

func countSet(xs []uint64) int {
	n := 0
	for _, x := range xs {
		if x != ^uint64(0) {
			n++
		}
	}
	return n
}

func countDistinct(xs []uint64) int {
	seen := map[uint64]struct{}{}
	for _, x := range xs {
		seen[x] = struct{}{}
	}
	return len(seen)
}

func countTrue(xs []bool) int {
	n := 0
	for _, x := range xs {
		if x {
			n++
		}
	}
	return n
}
