// Command testsummary reads a `go test -json` stream on stdin, prints
// one line per package as it finishes, and ends with every failing
// test grouped by package under the output it produced — so a gate
// that runs the whole suite once still fails with the failing test's
// own diagnostics rather than a bare package-level FAIL. It exits 1
// when anything failed or no package reported at all (the pipe's exit
// status is the summariser's, so it carries `go test`'s verdict).
//
//	go test -race -short -json ./... | go run ./cmd/testsummary
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// event is the subset of test2json's record the summary needs.
// Build output (go ≥ 1.24) arrives under ImportPath, and the failing
// package's own event names it in FailedBuild.
type event struct {
	Action      string
	Package     string
	ImportPath  string
	Test        string
	Output      string
	Elapsed     float64
	FailedBuild string
}

type testKey struct{ pkg, test string }

func summarize(r io.Reader, w io.Writer) bool {
	output := map[testKey][]string{} // pending output; dropped when its test passes
	failedTests := map[string][]string{}
	failedBuild := map[string]string{}
	var failedPkgs []string
	reported := 0

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		var ev event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			fmt.Fprintln(w, sc.Text()) // not test2json: pass it through
			continue
		}
		pkg := ev.Package
		if pkg == "" {
			pkg = ev.ImportPath
		}
		k := testKey{pkg, ev.Test}
		switch ev.Action {
		case "output", "build-output":
			output[k] = append(output[k], ev.Output)
		case "pass", "skip":
			delete(output, k)
			if ev.Test == "" {
				reported++
				fmt.Fprintf(w, "%-5s %s (%.1fs)\n", ev.Action, pkg, ev.Elapsed)
			}
		case "fail":
			if ev.Test != "" {
				failedTests[pkg] = append(failedTests[pkg], ev.Test)
				break
			}
			reported++
			failedPkgs = append(failedPkgs, pkg)
			failedBuild[pkg] = ev.FailedBuild
			fmt.Fprintf(w, "FAIL  %s (%.1fs)\n", pkg, ev.Elapsed)
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(w, "testsummary: read:", err)
		return false
	}
	if reported == 0 {
		fmt.Fprintln(w, "testsummary: no package reported a result")
		return false
	}
	if len(failedPkgs) == 0 {
		return true
	}

	sort.Strings(failedPkgs)
	fmt.Fprintf(w, "\n%d package(s) failed:\n", len(failedPkgs))
	for _, pkg := range failedPkgs {
		fmt.Fprintf(w, "\n=== %s\n", pkg)
		keys := []testKey{{failedBuild[pkg], ""}}
		for _, t := range failedTests[pkg] {
			keys = append(keys, testKey{pkg, t})
		}
		if len(failedTests[pkg]) == 0 {
			// No test took the blame (build failure, panic, TestMain):
			// whatever output is still pending belongs to the failure.
			for k := range output {
				if k.pkg == pkg {
					keys = append(keys, k)
				}
			}
			sort.Slice(keys[1:], func(i, j int) bool { return keys[1+i].test < keys[1+j].test })
		}
		for _, k := range keys {
			if k.test != "" {
				fmt.Fprintf(w, "--- %s\n", k.test)
			}
			for _, line := range output[k] {
				fmt.Fprint(w, "    ", line)
			}
		}
	}
	return false
}

func main() {
	if !summarize(os.Stdin, os.Stdout) {
		os.Exit(1)
	}
}
