// Command tufast-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	tufast-bench [flags] <experiment-id>... | all
//
// Experiment ids: fig4 fig5 fig6 fig7 table2 fig11 fig12 fig13 fig14
// fig15 fig16 fig17 ablation.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"tufast/internal/bench"
)

func main() {
	var (
		scale   = flag.Float64("scale", 1.0, "dataset scale multiplier (1.0 = laptop default)")
		threads = flag.Int("threads", 0, "worker threads (0 = GOMAXPROCS)")
		short   = flag.Bool("short", false, "shrink experiments (quick smoke run)")
		csv     = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		list    = flag.Bool("list", false, "list experiment ids and exit")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: tufast-bench [flags] <experiment>... | all\n\nexperiments:\n")
		for _, e := range bench.Experiments() {
			fmt.Fprintf(os.Stderr, "  %-8s %s\n", e.ID, e.Title)
		}
		fmt.Fprintf(os.Stderr, "\nflags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(bench.IDs(), " "))
		return
	}
	args := flag.Args()
	if len(args) == 0 {
		flag.Usage()
		os.Exit(2)
	}

	opts := bench.Options{Scale: *scale, Threads: *threads, Short: *short}
	var ids []string
	if len(args) == 1 && args[0] == "all" {
		for _, e := range bench.Experiments() {
			ids = append(ids, e.ID)
		}
	} else {
		ids = args
	}
	for _, id := range ids {
		e, ok := bench.ByID(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "tufast-bench: unknown experiment %q (try -list)\n", id)
			os.Exit(2)
		}
		for _, t := range e.Run(opts) {
			if *csv {
				t.CSV(os.Stdout)
			} else {
				t.Fprint(os.Stdout)
			}
		}
	}
}
