package bench

import (
	"fmt"
	"os"
	"time"

	"tufast/internal/algo"
	"tufast/internal/core"
	"tufast/internal/engines/bsp"
	"tufast/internal/engines/dist"
	"tufast/internal/engines/lockstep"
	"tufast/internal/engines/numa"
	"tufast/internal/engines/ooc"
	"tufast/internal/graph"
	"tufast/internal/graph/gen"
	"tufast/internal/mem"
	"tufast/internal/sched"
)

// appNames is the Fig. 11/12 application order.
var appNames = []string{"PageRank", "BFS", "Components", "Triangle", "BellmanFord", "MIS"}

const (
	prDamping = 0.85
	prEps     = 1e-6
)

// symmetrized returns the undirected view of g (Components/Triangle/MIS
// run on it, per §VI-A "we convert our graphs into undirected ones").
func symmetrized(g *graph.CSR) *graph.CSR {
	if g.Undirected() {
		return g
	}
	edges := make([]graph.Edge, 0, g.NumEdges())
	for v := uint32(0); int(v) < g.NumVertices(); v++ {
		for _, u := range g.Neighbors(v) {
			edges = append(edges, graph.Edge{U: v, V: u})
		}
	}
	return graph.MustBuild(g.NumVertices(), edges, graph.BuildOptions{Symmetrize: true})
}

// timeIt runs fn and returns milliseconds.
func timeIt(fn func()) float64 {
	start := time.Now()
	fn()
	return float64(time.Since(start).Microseconds()) / 1000
}

// runTMApps times the six applications on a sched.Scheduler-based system
// (TuFast or STM), returning app -> ms.
func runTMApps(g, gu *graph.CSR, mk func(sp *mem.Space, n int) sched.Scheduler, threads int) map[string]float64 {
	out := map[string]float64{}
	run := func(gr *graph.CSR, fn func(r *algo.Runtime)) float64 {
		sp := mem.NewSpace(algo.SpaceWordsFor(gr.NumVertices()))
		r := algo.NewRuntime(gr, sp, mk(sp, gr.NumVertices()), threads)
		return timeIt(func() { fn(r) })
	}
	out["PageRank"] = run(g, func(r *algo.Runtime) { _, _ = algo.PageRank(r, prDamping, prEps) })
	out["BFS"] = run(g, func(r *algo.Runtime) { _, _ = algo.BFS(r, 0) })
	out["Components"] = run(gu, func(r *algo.Runtime) { _, _ = algo.WCC(r) })
	out["Triangle"] = run(gu, func(r *algo.Runtime) { _, _ = algo.Triangles(r) })
	out["BellmanFord"] = run(g, func(r *algo.Runtime) { _, _ = algo.BellmanFord(r, 0) })
	out["MIS"] = run(gu, func(r *algo.Runtime) { _, _ = algo.MIS(r) })
	return out
}

// Fig11 reproduces the single-node system comparison: TuFast vs STM vs
// Ligra-like (bsp), Galois-like (lockstep) and Polymer-like (numa)
// engines, across the six applications and all four datasets.
func Fig11(o Options) []Table {
	o = o.normalize()
	var tables []Table
	datasets := gen.Datasets()
	if o.Short {
		datasets = datasets[:1]
	}
	for _, d := range datasets {
		g := d.Generate(o.Scale / 2) // apps touch every edge repeatedly
		gu := symmetrized(g)
		t := &Table{
			ID:     "fig11",
			Title:  fmt.Sprintf("Application runtime (ms), dataset %s", d.Name),
			Header: append([]string{"system"}, appNames...),
			Notes: []string{
				"paper shape: TuFast fastest or tied; biggest wins on PageRank/Components/MIS (in-place updates); close on BFS/Triangle",
			},
		}

		tufast := runTMApps(g, gu, func(sp *mem.Space, n int) sched.Scheduler {
			return newTuFast(sp, n, core.Config{})
		}, o.Threads)
		stm := runTMApps(g, gu, func(sp *mem.Space, n int) sched.Scheduler {
			return taxed(sched.NewSTM(sp))
		}, o.Threads)

		ligra := map[string]float64{}
		{
			e := bsp.New(g, o.Threads)
			eu := bsp.New(gu, o.Threads)
			ligra["PageRank"] = timeIt(func() { e.PageRank(prDamping, prEps) })
			ligra["BFS"] = timeIt(func() { e.BFS(0) })
			ligra["Components"] = timeIt(func() { eu.WCC() })
			ligra["Triangle"] = timeIt(func() { eu.Triangles() })
			ligra["BellmanFord"] = timeIt(func() { e.SSSP(0) })
			ligra["MIS"] = timeIt(func() { eu.MIS(1) })
		}
		galois := map[string]float64{}
		{
			e := lockstep.New(g, o.Threads)
			eu := lockstep.New(gu, o.Threads)
			galois["PageRank"] = timeIt(func() { e.PageRank(prDamping, prEps) })
			galois["BFS"] = timeIt(func() { e.BFS(0) })
			galois["Components"] = timeIt(func() { eu.WCC() })
			galois["Triangle"] = timeIt(func() { eu.Triangles() })
			galois["BellmanFord"] = timeIt(func() { e.SSSP(0) })
			galois["MIS"] = timeIt(func() { eu.MIS() })
		}
		polymer := map[string]float64{}
		{
			// Polymer differs from Ligra in memory placement (see the
			// numa package); PageRank runs the partitioned variant, the
			// rest share the BSP structure.
			e := numa.New(g, o.Threads, 2)
			eb := bsp.New(g, o.Threads)
			eu := bsp.New(gu, o.Threads)
			polymer["PageRank"] = timeIt(func() { e.PageRank(prDamping, prEps) })
			polymer["BFS"] = timeIt(func() { eb.BFS(0) })
			polymer["Components"] = timeIt(func() { eu.WCC() })
			polymer["Triangle"] = timeIt(func() { eu.Triangles() })
			polymer["BellmanFord"] = timeIt(func() { eb.SSSP(0) })
			polymer["MIS"] = timeIt(func() { eu.MIS(1) })
		}

		for _, sys := range []struct {
			name string
			res  map[string]float64
		}{
			{"TuFast", tufast}, {"TinySTM", stm}, {"Ligra", ligra},
			{"Galois", galois}, {"Polymer", polymer},
		} {
			row := []any{sys.name}
			for _, app := range appNames {
				row = append(row, sys.res[app])
			}
			t.AddRow(row...)
		}
		tables = append(tables, *t)
	}
	return tables
}

// Fig12 reproduces the distributed / out-of-core comparison: TuFast on
// the multi-core server vs the 16-node simulated PowerGraph and
// PowerLyra clusters and the GraphChi-like out-of-core engine.
func Fig12(o Options) []Table {
	o = o.normalize()
	var tables []Table
	datasets := gen.Datasets()
	if o.Short {
		datasets = datasets[:1]
	}
	scale := o.Scale / 8 // distributed simulation is deliberately slow
	nodes := 16
	if o.Short {
		nodes = 8
	}
	for _, d := range datasets {
		g := d.Generate(scale)
		gu := symmetrized(g)
		t := &Table{
			ID:     "fig12",
			Title:  fmt.Sprintf("Application runtime (ms), dataset %s (distributed comparison)", d.Name),
			Header: append([]string{"system"}, appNames...),
			Notes: []string{
				"paper shape: TuFast 1-4 orders of magnitude faster; PowerLyra > PowerGraph; GraphChi slowest on traversal",
			},
		}

		tufast := runTMApps(g, gu, func(sp *mem.Space, n int) sched.Scheduler {
			return newTuFast(sp, n, core.Config{})
		}, o.Threads)

		distApps := func(cut dist.Cut) map[string]float64 {
			out := map[string]float64{}
			e := dist.New(g, dist.Config{Nodes: nodes, Cut: cut})
			eu := dist.New(gu, dist.Config{Nodes: nodes, Cut: cut})
			out["PageRank"] = timeIt(func() { e.PageRank(prDamping, prEps) })
			out["BFS"] = timeIt(func() { e.BFS(0) })
			out["Components"] = timeIt(func() { eu.WCC() })
			out["Triangle"] = timeIt(func() { eu.Triangles() })
			out["BellmanFord"] = timeIt(func() { e.SSSP(0) })
			out["MIS"] = timeIt(func() { eu.MIS(1) })
			t.Notes = append(t.Notes, fmt.Sprintf("cut=%d: moved %.1f MB over %d supersteps",
				cut, float64(e.BytesMoved+eu.BytesMoved)/1e6, e.Supersteps+eu.Supersteps))
			return out
		}
		powerGraph := distApps(dist.EdgeCut)
		powerLyra := distApps(dist.HybridCut)

		graphchi := map[string]float64{}
		{
			dir, err := tempDir()
			dirU, errU := tempDir()
			if err == nil && errU == nil {
				e, err1 := ooc.New(g, dir, 8)
				eu, err2 := ooc.New(gu, dirU, 8)
				if err1 == nil && err2 == nil {
					graphchi["PageRank"] = timeIt(func() { _, _ = e.PageRank(prDamping, prEps) })
					graphchi["BFS"] = timeIt(func() { _, _ = e.BFS(0) })
					graphchi["Components"] = timeIt(func() { _, _ = eu.WCC() })
					graphchi["Triangle"] = timeIt(func() { _, _ = eu.Triangles() })
					graphchi["BellmanFord"] = timeIt(func() { _, _ = e.SSSP(0) })
					graphchi["MIS"] = timeIt(func() { _, _ = eu.MIS(1) })
					e.Close()
					eu.Close()
				} else {
					t.Notes = append(t.Notes, fmt.Sprintf("graphchi setup failed, its row is empty: %v %v", err1, err2))
				}
				os.RemoveAll(dir)
				os.RemoveAll(dirU)
			} else {
				t.Notes = append(t.Notes, fmt.Sprintf("graphchi setup failed, its row is empty: %v %v", err, errU))
			}
		}

		for _, sys := range []struct {
			name string
			res  map[string]float64
		}{
			{"TuFast", tufast}, {"PowerGraph", powerGraph},
			{"PowerLyra", powerLyra}, {"GraphChi", graphchi},
		} {
			row := []any{sys.name}
			for _, app := range appNames {
				row = append(row, sys.res[app])
			}
			t.AddRow(row...)
		}
		tables = append(tables, *t)
	}
	return tables
}
