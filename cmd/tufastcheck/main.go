// Command tufastcheck statically verifies user code against the TuFast
// transaction contract and the serving plane's concurrency contract:
// the rules the runtime cannot check at run time but serializability
// and the serving plane's mutex ordering depend on. (L mode's vertex
// locks need no static rule: a worker waits without bound only for a
// vertex above every lock it holds, so no wait cycle forms.)
//
//	tufastcheck [-json] [-enable a,b] [-strict-ignores] [packages...]
//
// Packages default to ./... and use the usual pattern syntax ("...":
// recursive). The exit status is 0 when no findings survive, 1 when at
// least one diagnostic (or, under -strict-ignores, one stale
// suppression) was reported, and 2 on load or usage errors.
//
// Analyzers (all enabled by default, select with -enable):
//
//	nakedaccess    direct VertexArray/Space access inside a transaction
//	txescape       the Tx handle outlives its attempt
//	retryunsafe    non-idempotent operation in a retryable TxFunc
//	ownermismatch  owner vertex and Addr index disagree
//	lockorder      mutex nesting violating //tufast:lockorder ranks, or cyclic
//	epochcapture   epoch read outside the critical section that bumped it
//	hookpurity     blocking operation inside a stream hook
//	unlockpath     Lock with a return/panic path missing its Unlock
//	atomicmix      sync/atomic and plain access to the same location
//
// Suppress a finding with a trailing or preceding comment:
//
//	//tufast:ignore retryunsafe approximate metric, duplicates fine
//
// -strict-ignores additionally fails (exit 1) on stale directives —
// //tufast:ignore comments that suppressed nothing — so suppressions
// cannot outlive the finding they were reviewed for. Staleness is only
// sound against the full suite, so -strict-ignores rejects -enable.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"tufast/internal/analysis"
	"tufast/internal/analysis/checkers"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tufastcheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit diagnostics as JSON")
	enable := fs.String("enable", "", "comma-separated analyzer names to run (default: all)")
	strictIgnores := fs.Bool("strict-ignores", false, "fail on //tufast:ignore directives that suppress nothing")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: tufastcheck [-json] [-enable a,b] [-strict-ignores] [packages...]\n\nanalyzers:\n")
		for _, a := range checkers.Analyzers() {
			fmt.Fprintf(stderr, "  %-14s %s\n", a.Name, a.Doc)
		}
		fmt.Fprintf(stderr, "\nexit status: 0 no findings, 1 findings (or stale ignores under -strict-ignores), 2 load or usage error\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *strictIgnores && *enable != "" {
		// With a subset of analyzers running, a directive naming a
		// disabled analyzer would be reported stale spuriously.
		fmt.Fprintln(stderr, "tufastcheck: -strict-ignores requires the full suite; drop -enable")
		return 2
	}

	analyzers, err := selectAnalyzers(*enable)
	if err != nil {
		fmt.Fprintln(stderr, "tufastcheck:", err)
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "tufastcheck:", err)
		return 2
	}
	loader, err := analysis.NewLoader(cwd)
	if err != nil {
		fmt.Fprintln(stderr, "tufastcheck:", err)
		return 2
	}
	dirs, err := loader.Expand(cwd, patterns)
	if err != nil {
		fmt.Fprintln(stderr, "tufastcheck:", err)
		return 2
	}
	pkgs, err := loader.Load(dirs)
	if err != nil {
		fmt.Fprintln(stderr, "tufastcheck:", err)
		return 2
	}

	diags, stale := analysis.RunChecked(pkgs, analyzers)
	if !*strictIgnores {
		stale = nil
	}
	if *jsonOut {
		type jsonDiag struct {
			Analyzer string `json:"analyzer"`
			File     string `json:"file"`
			Line     int    `json:"line"`
			Column   int    `json:"column"`
			Message  string `json:"message"`
		}
		out := make([]jsonDiag, 0, len(diags)+len(stale))
		for _, d := range diags {
			out = append(out, jsonDiag{d.Analyzer, d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message})
		}
		for _, s := range stale {
			out = append(out, jsonDiag{"staleignore", s.Pos.Filename, s.Pos.Line, s.Pos.Column,
				strings.TrimPrefix(s.String(), s.Pos.String()+": ")})
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(stderr, "tufastcheck:", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
		for _, s := range stale {
			fmt.Fprintln(stdout, s)
		}
	}
	if len(diags)+len(stale) > 0 {
		if !*jsonOut {
			fmt.Fprintf(stderr, "tufastcheck: %d finding(s)\n", len(diags)+len(stale))
		}
		return 1
	}
	return 0
}

// selectAnalyzers resolves the -enable list (empty = all).
func selectAnalyzers(enable string) ([]*analysis.Analyzer, error) {
	all := checkers.Analyzers()
	if enable == "" {
		return all, nil
	}
	byName := map[string]*analysis.Analyzer{}
	for _, a := range all {
		byName[a.Name] = a
	}
	var picked []*analysis.Analyzer
	for _, name := range strings.Split(enable, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q", name)
		}
		picked = append(picked, a)
	}
	if len(picked) == 0 {
		return nil, fmt.Errorf("-enable selected no analyzers")
	}
	return picked, nil
}
