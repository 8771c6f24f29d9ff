package bench

import (
	"fmt"
	"time"

	"tufast/internal/algo"
	"tufast/internal/core"
	"tufast/internal/dyngraph"
	"tufast/internal/graph"
	"tufast/internal/graph/gen"
	"tufast/internal/mem"
	"tufast/internal/sched"
)

// Streaming workloads: Fig-15-style mode attribution and throughput
// for transactional topology mutations. A timestamped edge stream is
// synthesized from the twitter stand-in and replayed through the
// dyngraph overlay; every mutation is one transaction whose size hint
// is the live degree of its endpoints, so the H/O/L router spreads the
// stream across modes exactly as the paper's §IV-B routes property
// transactions.

// streamConfig is the TM configuration the streaming benchmarks use:
// routing thresholds scaled down from the paper's HTM-capacity
// defaults so laptop-scale streams still exercise the full H/O/L
// spread (leaves route H, hubs route L).
func streamConfig() core.Config {
	return core.Config{HMaxHint: 64, OMaxHint: 256}
}

// streamWorkload names one synthesized stream mix.
type streamWorkload struct {
	name             string
	addFrac, delFrac float64
}

func streamWorkloads() []streamWorkload {
	return []streamWorkload{
		{"stream-insert", 0.25, 0},
		{"stream-mixed", 0.20, 0.10},
	}
}

// runStream replays ops through the overlay on r's scheduler, windowed
// like the public ApplyStream driver, and returns throughput in
// ops/second.
func runStream(st *dyngraph.Store, ops []dyngraph.Op, r *algo.Runtime, window int) float64 {
	start := time.Now()
	for lo := 0; lo < len(ops); lo += window {
		win := ops[lo:min(lo+window, len(ops))]
		_ = r.Sweep("stream", len(win), 32, func(_ int, w *algo.Worker) func(int) error {
			var op dyngraph.Op
			body := func(tx sched.Tx) error {
				if op.Del {
					st.RemoveArc(tx, op.U, op.V)
					st.RemoveArc(tx, op.V, op.U)
				} else {
					st.AddArc(tx, op.U, op.V)
					st.AddArc(tx, op.V, op.U)
				}
				return nil
			}
			return func(i int) error {
				op = win[i]
				return w.Run(r.Ctx, st.Hint(op.U, op.V), body)
			}
		})
	}
	return float64(len(ops)) / time.Since(start).Seconds()
}

// streamSetup synthesizes one workload's stream over the twitter
// stand-in and builds a fresh overlay (and its space) for it.
func streamSetup(o Options, wl streamWorkload) (*mem.Space, *dyngraph.Store, []dyngraph.Op) {
	ds, _ := gen.DatasetByName("twitter-mpi")
	g := ds.Generate(o.Scale / 4)
	stream := dyngraph.Synthesize(g, wl.addFrac, wl.delFrac, 7)
	base := graph.MustBuild(stream.N, stream.Base, graph.BuildOptions{Symmetrize: g.Undirected()})
	sp := mem.NewSpace(dyngraph.SpaceWords(stream.N, 2*len(stream.Ops)))
	return sp, dyngraph.New(sp, base), stream.Ops
}

// FigStream is the streaming counterpart of Fig15: per-mode commit
// attribution of mutation transactions plus stream throughput, for an
// insert-only and a mixed insert/delete stream.
func FigStream(o Options) []Table {
	o = o.normalize()
	t := &Table{
		ID:     "stream",
		Title:  "Streaming mutations: throughput and mode mix",
		Header: []string{"workload", "ops", "ops/sec", "H", "O", "O+", "O2L", "L", "live arcs"},
		Notes: []string{
			"each edge mutation is one transaction, size hint = live degree of both endpoints",
			"paper shape: leaf mutations commit in H; hub mutations take L; O carries the middle",
			fmt.Sprintf("routing thresholds scaled for laptop streams: H ≤ %d < O ≤ %d < L",
				streamConfig().HMaxHint, streamConfig().OMaxHint),
		},
	}
	for _, wl := range streamWorkloads() {
		sp, st, ops := streamSetup(o, wl)
		tf := newTuFast(sp, st.NumVertices(), streamConfig())
		tps := runStream(st, ops, algo.NewRuntime(st.Base(), sp, tf, o.Threads), 4096)
		snap := tf.Metrics().Snapshot()
		t.AddRow(wl.name, len(ops), tps,
			snap.Modes["H"].Commits, snap.Modes["O"].Commits, snap.Modes["O+"].Commits,
			snap.Modes["O2L"].Commits, snap.Modes["L"].Commits, st.LiveArcs())
	}
	return []Table{*t}
}
