package bench

import (
	"fmt"

	"tufast/internal/core"
	"tufast/internal/graph/gen"
	"tufast/internal/obs"
)

// throughputCols is Fig. 13/14's column order.
var throughputCols = []labeled{
	{"TuFast", "tufast"}, {"2PL", "2pl"}, {"OCC", "occ"},
	{"STM", "stm"}, {"HSync", "hsync"}, {"H-TO", "hto"},
}

// figThroughput runs the §VI-B scheduler comparison for one workload on
// all datasets.
func figThroughput(o Options, kind Workload, id string) []Table {
	o = o.normalize()
	datasets := gen.Datasets()
	if o.Short {
		datasets = datasets[:2]
	}
	txns := 40_000
	if o.Short {
		txns = 6_000
	}
	t := &Table{
		ID:     id,
		Title:  fmt.Sprintf("Scheduler throughput (txn/s), workload %s", kind),
		Header: []string{"dataset"},
		Notes: []string{
			"paper shape: TuFast fastest (RM 5.0-8.3x, RW 2.0-39.5x over best other); hybrids beat homogeneous; HTM-based beat non-HTM",
		},
	}
	for _, s := range throughputCols {
		t.Header = append(t.Header, s.label)
	}
	for _, d := range datasets {
		g := d.Generate(o.Scale / 2)
		n := g.NumVertices()
		row := []any{d.Name}
		for _, s := range throughputCols {
			sp, base := newWorkloadSpace(n)
			row = append(row, runWorkload(g, sp, newScheduler(s.id, sp, n), kind, base, txns, o.Threads, 0))
		}
		t.AddRow(row...)
	}
	return []Table{*t}
}

// Fig13 is the RM (read-mostly) scheduler throughput comparison.
func Fig13(o Options) []Table { return figThroughput(o, RM, "fig13") }

// Fig14 is the RW (read-write) scheduler throughput comparison.
func Fig14(o Options) []Table { return figThroughput(o, RW, "fig14") }

// Fig15 reproduces the mode breakdown: committed transactions and their
// operation workload per routing class (H, O, O+, O2L, L) for both
// workloads on the twitter stand-in.
func Fig15(o Options) []Table {
	o = o.normalize()
	ds, _ := gen.DatasetByName("twitter-mpi")
	g := ds.Generate(o.Scale / 2)
	n := g.NumVertices()
	txns := 40_000
	if o.Short {
		txns = 6_000
	}
	var tables []Table
	for _, kind := range []Workload{RM, RW} {
		sp, base := newWorkloadSpace(n)
		tf := newTuFast(sp, n, core.Config{})
		runWorkload(g, sp, tf, kind, base, txns, o.Threads, 0)
		snap := tf.Metrics().Snapshot()
		t := &Table{
			ID:     "fig15",
			Title:  fmt.Sprintf("TuFast mode breakdown, workload %s", kind),
			Header: []string{"class", "transactions", "operations", "aborts", "conflict", "capacity", "explicit", "locked", "deadlock"},
			Notes: []string{
				"paper shape: H dominates transaction count; O/O+ carry a large share of operations; L is tiny in count but holds the giant vertices",
				"abort columns from the observability snapshot: per-class retried attempts by reason",
			},
		}
		for c := obs.ModeH; c <= obs.ModeL; c++ {
			m := snap.Modes[c.String()]
			t.AddRow(c.String(), m.Commits, m.Reads+m.Writes, m.AbortTotal(),
				m.Aborts["conflict"], m.Aborts["capacity"], m.Aborts["explicit"],
				m.Aborts["locked"], m.Aborts["deadlock"])
		}
		tables = append(tables, *t)
	}
	return tables
}
