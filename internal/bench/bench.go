// Package bench regenerates every table and figure of the paper's
// evaluation (§III preliminaries and §VI experiments). Each Fig*/Table*
// function is a self-contained experiment returning printable tables;
// cmd/tufast-bench exposes them by id and bench_test.go wraps them in
// testing.B benchmarks.
//
// Absolute numbers differ from the paper (the substrate is an emulator on
// different hardware); the claims each experiment checks are the *shapes*
// recorded in EXPERIMENTS.md.
package bench

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
)

// Options tunes all experiments.
type Options struct {
	// Scale multiplies dataset sizes (1.0 = default laptop scale).
	Scale float64
	// Threads is the worker parallelism (default GOMAXPROCS).
	Threads int
	// Short shrinks every experiment for use inside go test -bench.
	Short bool
}

func (o Options) normalize() Options {
	if o.Scale <= 0 {
		o.Scale = 1
	}
	if o.Threads <= 0 {
		// The paper runs 40 hardware threads; on small machines we still
		// want concurrency (and its conflicts), so never default below 8
		// workers — goroutines interleave preemptively even on one core.
		o.Threads = runtime.GOMAXPROCS(0)
		if o.Threads < 8 {
			o.Threads = 8
		}
	}
	if o.Short {
		o.Scale /= 8
	}
	return o
}

// Table is one printable result table.
type Table struct {
	ID     string // e.g. "fig13"
	Title  string
	Header []string
	Rows   [][]string
	// Notes carry the expected paper shape for EXPERIMENTS.md.
	Notes []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = fmt.Sprintf("%.4g", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "\n== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}

// CSV renders the table as comma-separated values.
func (t *Table) CSV(w io.Writer) {
	fmt.Fprintln(w, strings.Join(t.Header, ","))
	for _, r := range t.Rows {
		fmt.Fprintln(w, strings.Join(r, ","))
	}
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// Experiment is a registered paper experiment.
type Experiment struct {
	ID    string
	Title string
	Run   func(Options) []Table
}

// Experiments returns all experiments in paper order.
func Experiments() []Experiment {
	return []Experiment{
		{"fig4", "HTM abort probability vs transaction size", Fig4},
		{"fig5", "Degree distribution of the twitter stand-in (log-log)", Fig5},
		{"fig6", "Contention probability heat map by degree buckets", Fig6},
		{"fig7", "2PL / OCC / TO throughput vs contention rate", Fig7},
		{"table2", "Dataset statistics (synthetic stand-ins)", Table2},
		{"fig11", "Applications: TuFast vs single-node systems", Fig11},
		{"fig12", "Applications: TuFast vs distributed / out-of-core systems", Fig12},
		{"fig13", "Scheduler throughput, workload RM", Fig13},
		{"fig14", "Scheduler throughput, workload RW", Fig14},
		{"fig15", "Mode breakdown (H / O / O+ / O2L / L)", Fig15},
		{"fig16", "Parameter sensitivity: static period and H retries", Fig16},
		{"fig17", "Adaptive vs static period over PageRank progress", Fig17},
		{"ablation", "Design ablations (subscription, early abort, chopping)", Ablation},
		{"lowskew", "Extension: behaviour on a skew-free road-like grid", LowSkew},
	}
}

// ByID returns the experiment with the given id.
func ByID(id string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// IDs lists all experiment ids.
func IDs() []string {
	var ids []string
	for _, e := range Experiments() {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return ids
}
