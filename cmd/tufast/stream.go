// The -stream mode: replay a timestamped edge-stream workload (from
// graphgen -stream) through the public dynamic-graph API — in time
// order, as owned batches of -window ops (DynGraph.ApplyOwned, no
// transactions), optionally with an incremental algorithm repaired
// after each batch — and report throughput, plus the mode mix of the
// repairs' transactions.
package main

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"slices"
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
		sstats, err = applyBatches(ctx, d, st.Ops, window)
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

// applyBatches applies ops to d in time order, window ops a batch, as
// the incremental drivers do without their repairs.
func applyBatches(ctx context.Context, d *tufast.DynGraph, ops []tufast.StreamOp, window int) (tufast.StreamStats, error) {
	slices.SortStableFunc(ops, func(a, b tufast.StreamOp) int { return cmp.Compare(a.Time, b.Time) })
	window = max(window, 1)
	var total tufast.StreamStats
	for lo := 0; lo < len(ops); lo += window {
		if err := ctx.Err(); err != nil {
			return total, err
		}
		st, err := d.ApplyOwned(ops[lo:min(lo+window, len(ops))])
		total.Applied += st.Applied
		total.Inserted += st.Inserted
		total.Removed += st.Removed
		total.NoOps += st.NoOps
		total.Epoch = st.Epoch
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

func distinct(labels []uint64) int {
	seen := map[uint64]struct{}{}
	for _, l := range labels {
		seen[l] = struct{}{}
	}
	return len(seen)
}
