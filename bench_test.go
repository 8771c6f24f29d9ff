package tufast_test

import (
	"fmt"
	"io"
	"math/rand"
	"sync"
	"testing"

	"tufast"
	"tufast/internal/bench"
)

// Each paper table/figure has a testing.B entry point. The benchmarks run
// the experiment at Short scale once per b.N iteration; use
// `go test -bench . -benchtime 1x` for a single reproduction pass, or
// `go run ./cmd/tufast-bench <id>` for full-scale output with tables.

func runExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := bench.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	opts := bench.Options{Short: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tables := e.Run(opts)
		if len(tables) == 0 {
			b.Fatalf("%s returned no tables", id)
		}
		for _, t := range tables {
			t.Fprint(io.Discard)
		}
	}
}

// BenchmarkFig4AbortProbability regenerates Figure 4: HTM abort
// probability vs transaction size.
func BenchmarkFig4AbortProbability(b *testing.B) { runExperiment(b, "fig4") }

// BenchmarkFig5DegreeDistribution regenerates Figure 5: the power-law
// degree distribution of the twitter stand-in.
func BenchmarkFig5DegreeDistribution(b *testing.B) { runExperiment(b, "fig5") }

// BenchmarkFig6ContentionHeatmap regenerates Figure 6: conflict
// probability by degree-bucket pair.
func BenchmarkFig6ContentionHeatmap(b *testing.B) { runExperiment(b, "fig6") }

// BenchmarkFig7SchedulerVsContention regenerates Figure 7: 2PL/OCC/TO
// throughput across contention rates.
func BenchmarkFig7SchedulerVsContention(b *testing.B) { runExperiment(b, "fig7") }

// BenchmarkTable2Datasets regenerates Table II: dataset statistics.
func BenchmarkTable2Datasets(b *testing.B) { runExperiment(b, "table2") }

// BenchmarkFig11SingleNode regenerates Figure 11: applications on TuFast
// vs the single-node comparison systems.
func BenchmarkFig11SingleNode(b *testing.B) { runExperiment(b, "fig11") }

// BenchmarkFig12Distributed regenerates Figure 12: applications on
// TuFast vs simulated distributed and out-of-core systems.
func BenchmarkFig12Distributed(b *testing.B) { runExperiment(b, "fig12") }

// BenchmarkFig13ThroughputRM regenerates Figure 13: scheduler throughput
// on the read-mostly workload.
func BenchmarkFig13ThroughputRM(b *testing.B) { runExperiment(b, "fig13") }

// BenchmarkFig14ThroughputRW regenerates Figure 14: scheduler throughput
// on the read-write workload.
func BenchmarkFig14ThroughputRW(b *testing.B) { runExperiment(b, "fig14") }

// BenchmarkFig15ModeBreakdown regenerates Figure 15: committed
// transactions and operations per mode class.
func BenchmarkFig15ModeBreakdown(b *testing.B) { runExperiment(b, "fig15") }

// BenchmarkFig16ParameterSensitivity regenerates Figure 16: static
// period and retry-budget sweeps.
func BenchmarkFig16ParameterSensitivity(b *testing.B) { runExperiment(b, "fig16") }

// BenchmarkFig17AdaptivePeriod regenerates Figure 17: adaptive vs static
// period over PageRank progress.
func BenchmarkFig17AdaptivePeriod(b *testing.B) { runExperiment(b, "fig17") }

// BenchmarkAblation runs the design-choice ablations from DESIGN.md §6.
func BenchmarkAblation(b *testing.B) { runExperiment(b, "ablation") }

// BenchmarkLowSkew runs the beyond-the-paper extension: TuFast on a
// skew-free road-like grid.
func BenchmarkLowSkew(b *testing.B) { runExperiment(b, "lowskew") }

// applyBench applies batches of 256 stream ops to a fresh directed
// overlay over n isolated vertices, b.N ops in all, rebuilding the
// overlay (off the clock) every time the rounds' ops are used up so the
// chains keep the shape prep gave them. op(round, i) is the i-th op of a
// round.
func applyBench(b *testing.B, n, rounds int, prep func(d *tufast.DynGraph), op func(round, i int) tufast.StreamOp) {
	b.Helper()
	const batch = 256
	g, err := tufast.BuildGraph(n, nil, false)
	if err != nil {
		b.Fatal(err)
	}
	var d *tufast.DynGraph
	ops := make([]tufast.StreamOp, batch)
	b.ReportAllocs()
	for done, round := 0, rounds; done < b.N; done, round = done+batch, round+1 {
		if round == rounds {
			b.StopTimer()
			d = tufast.NewDynGraph(tufast.NewSystem(g, tufast.Options{SpaceWords: tufast.DynSpaceWords(g, 8192+rounds*batch)}))
			prep(d)
			round = 0
			b.StartTimer()
		}
		for i := range ops {
			ops[i] = op(round, i)
		}
		if _, err := d.ApplyStream(ops, tufast.StreamOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkApplyStreamLeaf is the per-op cost of ApplyStream where
// chains are short: every op inserts at a source whose chain holds at
// most seven entries.
func BenchmarkApplyStreamLeaf(b *testing.B) {
	const n = 1 << 14
	applyBench(b, n, 8*n/256, func(*tufast.DynGraph) {}, func(round, i int) tufast.StreamOp {
		k := round*256 + i
		u := uint32(k % n)
		return tufast.StreamOp{U: u, V: (u + 1 + uint32(k/n)) % n}
	})
}

// BenchmarkApplyStreamHub is the per-op cost where they are not: every
// op inserts at one source whose chain already holds 4096 entries.
func BenchmarkApplyStreamHub(b *testing.B) {
	const hub = 4096
	prep := func(d *tufast.DynGraph) {
		ops := make([]tufast.StreamOp, hub)
		for i := range ops {
			ops[i] = tufast.StreamOp{U: 0, V: uint32(1 + i)}
		}
		if _, err := d.ApplyStream(ops, tufast.StreamOptions{}); err != nil {
			b.Fatal(err)
		}
	}
	applyBench(b, 2*hub, 2, prep, func(round, i int) tufast.StreamOp {
		return tufast.StreamOp{U: 0, V: uint32(1 + hub + round*256 + i)}
	})
}

// writeMix draws n ops in serve_write's mix over g: 30% deletes of a
// base arc; otherwise an insert from a uniform source (one in five the
// source of a base arc) to the target of a base arc.
func writeMix(g *tufast.Graph, n int, seed int64) []tufast.StreamOp {
	rng := rand.New(rand.NewSource(seed))
	var arcs [][2]uint32
	for u := uint32(0); int(u) < g.NumVertices(); u++ {
		for _, v := range g.Neighbors(u) {
			arcs = append(arcs, [2]uint32{u, v})
		}
	}
	nv := g.NumVertices()
	ops := make([]tufast.StreamOp, n)
	for i := range ops {
		if rng.Float64() < 0.3 {
			a := arcs[rng.Intn(len(arcs))]
			ops[i] = tufast.StreamOp{U: a[0], V: a[1], Del: true}
			continue
		}
		u := uint32(rng.Intn(nv))
		if rng.Float64() < 0.2 {
			u = arcs[rng.Intn(len(arcs))][0]
		}
		v := arcs[rng.Intn(len(arcs))][1]
		if v == u {
			v = (u + 1) % uint32(nv)
		}
		ops[i] = tufast.StreamOp{U: u, V: v}
	}
	return ops
}

// ownedBed is BenchmarkApplyOwned's graph and op stream, built once.
var ownedBed = sync.OnceValues(func() (*tufast.Graph, []tufast.StreamOp) {
	g := tufast.GenerateRMAT(16, 8, 1)
	return g, writeMix(g, 1<<19, 1)
})

// BenchmarkApplyOwned is the per-op cost of ApplyOwned on serve_write's
// shape — a directed R-MAT scale-16 base, its op mix, two threads — at
// five batch sizes, each applied inline (one owner, the caller's
// goroutine) and fanned out (an owner per thread). Every sub-benchmark
// applies the same op stream to the same graph states: the overlay is
// rebuilt (off the clock) each time the 2^19 ops are used up. minOwnerOps
// is the smallest per-owner share (batch / 2) at which fanned out beat
// inline.
func BenchmarkApplyOwned(b *testing.B) {
	const threads = 2
	for _, batch := range []int{256, 1024, 4096, 16384, 65536} {
		for _, mode := range []struct {
			name   string
			owners int
		}{{"inline", 1}, {"fanout", threads}} {
			b.Run(fmt.Sprintf("ops=%d/%s", batch, mode.name), func(b *testing.B) {
				g, stream := ownedBed()
				var d *tufast.DynGraph
				ops := make([]tufast.StreamOp, batch)
				applied, next := 0, len(stream)
				b.ResetTimer()
				for applied < b.N {
					if next == len(stream) {
						b.StopTimer()
						d = tufast.NewDynGraph(tufast.NewSystem(g, tufast.Options{
							Threads: threads, SpaceWords: tufast.DynSpaceWords(g, len(stream)),
						}))
						next = 0
						b.StartTimer()
					}
					copy(ops, stream[next:next+batch])
					next += batch
					if _, err := d.ApplyOwnedOn(ops, mode.owners); err != nil {
						b.Fatal(err)
					}
					applied += batch
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(applied), "ns/op")
			})
		}
	}
}
