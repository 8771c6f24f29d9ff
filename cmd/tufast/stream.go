// The -stream mode: replay a timestamped edge-stream workload (from
// graphgen -stream) through the public dynamic-graph API — mutations
// run as transactions routed H/O/L by live degree, optionally with an
// incremental algorithm maintained concurrently — and report
// throughput plus the per-mode mutation commit mix.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"time"

	"tufast"
	"tufast/algorithms"
	"tufast/internal/dyngraph"
)

// runStream is the -stream entry point; it prints its report and exits
// the process on failure, mirroring the static-graph path in main.
func runStream(ctx context.Context, path, algoName string, threads, window int,
	stats, metrics bool, timeout time.Duration) {
	st, err := dyngraph.ReadStreamFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tufast:", err)
		os.Exit(1)
	}
	base, err := st.BuildBase()
	if err != nil {
		fmt.Fprintln(os.Stderr, "tufast:", err)
		os.Exit(1)
	}
	g := tufast.WrapCSR(base)
	fmt.Printf("graph: |V|=%d |E|=%d maxdeg=%d (base), stream ops=%d\n",
		g.NumVertices(), g.NumEdges(), g.MaxDegree(), len(st.Ops))

	sys := tufast.NewSystem(g, tufast.Options{
		Threads: threads,
		// Room for the overlay plus the incremental algorithms' vertex
		// arrays (3 words/vertex for delta-PageRank) on top of the
		// default property budget.
		SpaceWords: tufast.DynSpaceWords(g, len(st.Ops)) + 8*g.NumVertices(),
	})
	d := tufast.NewDynGraph(sys)

	var (
		summary string
		sstats  tufast.StreamStats
	)
	start := time.Now()
	switch algoName {
	case "mutate":
		sstats, err = d.ApplyStreamCtx(ctx, st.Ops, tufast.StreamOptions{Window: window})
		summary = "applied"
	case "cc":
		var comp []uint64
		comp, sstats, err = algorithms.StreamingCC(ctx, d, st.Ops, window)
		if err == nil {
			summary = fmt.Sprintf("components=%d", distinct(comp))
		}
	case "pagerank":
		var ranks []float64
		ranks, sstats, err = algorithms.StreamingPageRank(ctx, d, st.Ops, 0.85, 1e-8, window)
		if err == nil {
			sum := 0.0
			for _, r := range ranks {
				sum += r
			}
			summary = fmt.Sprintf("rank mass=%.1f", sum)
		}
	default:
		fmt.Fprintf(os.Stderr, "tufast: unknown -stream-algo %q (mutate|cc|pagerank)\n", algoName)
		os.Exit(2)
	}
	elapsed := time.Since(start)
	if errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(os.Stderr, "tufast: run cancelled after %v (-timeout %v)\n", elapsed, timeout)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tufast:", err)
		os.Exit(1)
	}

	fmt.Printf("stream %s on tufast: %s — inserted=%d removed=%d noops=%d\n",
		algoName, summary, sstats.Inserted, sstats.Removed, sstats.NoOps)
	fmt.Printf("elapsed: %v (%.0f ops/sec), live arcs=%d\n",
		elapsed, float64(sstats.Applied)/elapsed.Seconds(), d.LiveArcs())

	snap := sys.MetricsSnapshot()
	if stats {
		modes := make([]string, 0, len(snap.Modes))
		for m := range snap.Modes {
			modes = append(modes, m)
		}
		sort.Strings(modes)
		fmt.Printf("mode mix:")
		for _, m := range modes {
			fmt.Printf(" %s=%d", m, snap.Modes[m].Commits)
		}
		fmt.Println()
	}
	if metrics {
		buf, merr := json.MarshalIndent(snap, "", "  ")
		if merr != nil {
			fmt.Fprintln(os.Stderr, "tufast:", merr)
			os.Exit(1)
		}
		fmt.Printf("metrics: %s\n", buf)
	}
}

func distinct(labels []uint64) int {
	seen := map[uint64]struct{}{}
	for _, l := range labels {
		seen[l] = struct{}{}
	}
	return len(seen)
}
