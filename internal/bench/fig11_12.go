package bench

import (
	"fmt"
	"time"

	"tufast/internal/graph"
	"tufast/internal/graph/gen"
)

// appCols is the Fig. 11/12 column order: each column's label and the
// application it times.
var appCols = []struct{ label, app string }{
	{"PageRank", "pagerank"}, {"BFS", "bfs"}, {"Components", "wcc"},
	{"Triangle", "triangle"}, {"BellmanFord", "bellman-ford"}, {"MIS", "mis"},
}

const (
	prDamping = 0.85
	prEps     = 1e-6
)

// labeled is a system id under the label a figure prints for it.
type labeled struct{ label, id string }

// timeIt runs fn and returns milliseconds.
func timeIt(fn func()) float64 {
	start := time.Now()
	fn()
	return float64(time.Since(start).Microseconds()) / 1000
}

// Fig11 reproduces the single-node system comparison: TuFast vs STM vs
// Ligra-like (bsp), Galois-like (lockstep) and Polymer-like (numa)
// engines, across the six applications and all four datasets.
func Fig11(o Options) []Table {
	o = o.normalize()
	return appFigure(o, "fig11", "Application runtime (ms), dataset %s",
		"paper shape: TuFast fastest or tied; biggest wins on PageRank/Components/MIS (in-place updates); close on BFS/Triangle",
		o.Scale/2, // apps touch every edge repeatedly
		0, []labeled{{"TuFast", "tufast"}, {"TinySTM", "stm"}, {"Ligra", "ligra"}, {"Galois", "galois"}, {"Polymer", "polymer"}})
}

// Fig12 reproduces the distributed / out-of-core comparison: TuFast on
// the multi-core server vs the 16-node simulated PowerGraph and
// PowerLyra clusters and the GraphChi-like out-of-core engine.
func Fig12(o Options) []Table {
	o = o.normalize()
	nodes := 16
	if o.Short {
		nodes = 8
	}
	return appFigure(o, "fig12", "Application runtime (ms), dataset %s (distributed comparison)",
		"paper shape: TuFast 1-4 orders of magnitude faster; PowerLyra > PowerGraph; GraphChi slowest on traversal",
		o.Scale/8, // distributed simulation is deliberately slow
		nodes, []labeled{{"TuFast", "tufast"}, {"PowerGraph", "powergraph"}, {"PowerLyra", "powerlyra"}, {"GraphChi", "graphchi"}})
}

// appFigure times every application of appCols on each row's system,
// one table per dataset (the first only at Short). A row or cell that
// fails is left empty, with the error in the notes; an engine's counters
// are noted too.
func appFigure(o Options, id, title, shape string, scale float64, nodes int, rows []labeled) []Table {
	datasets := gen.Datasets()
	if o.Short {
		datasets = datasets[:1]
	}
	var tables []Table
	for _, d := range datasets {
		g := d.Generate(scale)
		// Components/Triangle/MIS run on the undirected view, per §VI-A
		// "we convert our graphs into undirected ones".
		gu := g.Symmetrized()
		t := &Table{ID: id, Title: fmt.Sprintf(title, d.Name), Header: []string{"system"}, Notes: []string{shape}}
		for _, c := range appCols {
			t.Header = append(t.Header, c.label)
		}
		for _, s := range rows {
			t.AddRow(appRow(t, s, g, gu, o.Threads, nodes)...)
		}
		tables = append(tables, *t)
	}
	return tables
}

// appRow times s's cells, noting failures and counters in t.
func appRow(t *Table, s labeled, g, gu *graph.CSR, threads, nodes int) []any {
	cells := []any{s.label}
	r, err := Open(s.id, g, gu, threads, nodes)
	if err != nil {
		t.Notes = append(t.Notes, fmt.Sprintf("%s failed, its row is empty: %v", s.label, err))
		for range appCols {
			cells = append(cells, "")
		}
		return cells
	}
	for _, c := range appCols {
		var cell any
		run, err := r.Prepare(c.app, 0)
		if err == nil {
			cell = timeIt(func() { _, err = run() })
		}
		if err != nil {
			cell = ""
			t.Notes = append(t.Notes, fmt.Sprintf("%s %s failed, its cell is empty: %v", s.label, c.label, err))
		}
		cells = append(cells, cell)
	}
	if c := r.Counters(); c != "" {
		t.Notes = append(t.Notes, s.label+": "+c)
	}
	if err := r.Close(); err != nil {
		t.Notes = append(t.Notes, fmt.Sprintf("%s failed to close: %v", s.label, err))
	}
	return cells
}
