// Command tufast runs one graph-analytics application on one scheduler
// or engine of the paper's comparison (internal/bench's table), printing
// the runtime of the run and a summary of its answer.
//
// Usage:
//
//	tufast -algo pagerank -dataset twitter-mpi -system tufast
//	tufast -algo bfs -graph edges.txt -system ligra
//
// -h lists the systems.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"tufast/internal/bench"
	"tufast/internal/graph"
	"tufast/internal/graph/gen"
	"tufast/internal/obs"
)

func main() {
	var (
		algoName = flag.String("algo", "pagerank", strings.Join(bench.Apps, "|"))
		system   = flag.String("system", "tufast", strings.Join(bench.SystemIDs(), "|"))
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
	fmt.Printf("graph: |V|=%d |E|=%d maxdeg=%d\n", g.NumVertices(), g.NumEdges(), g.MaxDegree())

	// Powergraph and powerlyra simulate the paper's 16 machines.
	r, err := bench.Open(*system, g, g.Symmetrized(), *threads, 16)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tufast:", err)
		os.Exit(1)
	}
	if *timeout > 0 {
		var cancel context.CancelFunc
		r.Ctx, cancel = context.WithTimeout(context.Background(), *timeout)
		defer cancel()
	}
	run, err := r.Prepare(*algoName, uint32(*source))
	if err != nil {
		r.Close()
		fmt.Fprintln(os.Stderr, "tufast:", err)
		os.Exit(1)
	}
	// With -metrics-http the endpoint goes live before the run starts, so
	// the run can be watched from outside.
	if *metHTTP != "" && r.Sched != nil {
		bound, _, err := obs.Serve(*metHTTP, "tufast", r.Sched.Metrics().Snapshot)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tufast: metrics endpoint:", err)
			os.Exit(1)
		}
		fmt.Printf("metrics: http://%s/metrics\n", bound)
	}

	start := time.Now()
	answer, err := run()
	elapsed := time.Since(start)
	counters := r.Counters()
	if cerr := r.Close(); err == nil {
		err = cerr
	}
	if errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(os.Stderr, "tufast: run cancelled after %v (-timeout %v)\n", elapsed, *timeout)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tufast:", err)
		os.Exit(1)
	}
	fmt.Printf("%s on %s: %v\n", *algoName, *system, answer)
	if counters != "" {
		fmt.Printf("engine: %s\n", counters)
	}
	fmt.Printf("elapsed: %v\n", elapsed)
	if *stats && r.Sched != nil {
		s := r.Sched.Metrics().Snapshot().Totals()
		fmt.Printf("commits=%d aborts=%d reads=%d writes=%d deadlocks=%d\n",
			s.Commits, s.Aborts, s.Reads, s.Writes, s.Deadlocks)
	}
	if *metrics && r.Sched != nil {
		buf, merr := json.MarshalIndent(r.Sched.Metrics().Snapshot(), "", "  ")
		if merr != nil {
			fmt.Fprintln(os.Stderr, "tufast:", merr)
			os.Exit(1)
		}
		fmt.Printf("metrics: %s\n", buf)
	}
	if *metHTTP != "" && r.Sched != nil {
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
