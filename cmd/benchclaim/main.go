// Command benchclaim runs the repo's claim protocol: it builds a parent
// and a change from git exports in a temporary directory, runs N
// alternated parent/change pairs of `benchmark/run.sh --workload W
// --seed i` for each workload, and prints, as markdown, the claimed
// metric's quartiles, the pairs the change won (a tie counts for
// neither side), the gap between the medians against the parent's
// interquartile range, one unseen seed's direction, and a verdict for
// every end-to-end metric against its bound in BENCHMARK.json. The raw
// per-seed values, the per-layer metrics each run reported, the
// environment and both commit hashes go to the JSON file -out names
// (BENCH_pr<N>.json at the repo root, by convention); workloads already
// in that file for the same two trees are kept, so the claim and the
// must-not-move workloads can run with different pair counts.
//
//	go run ./cmd/benchclaim -workloads serve_write -claim recover_s -pairs 10 -unseen 97 -out BENCH_pr7.json
//	go run ./cmd/benchclaim -workloads serve_mixed,lib_skew,lib_flat -pairs 3 -out BENCH_pr7.json
//
// -parent defaults to HEAD and -change to the working tree: the tracked
// files as they stand, index and edits both (git stash create), so a
// new file joins the change only once it is git added. The exports are
// removed on exit; set TMPDIR to choose where they go. With -print it
// runs nothing: it judges the runs already in -out again, against
// BENCHMARK.json as it stands, and prints their tables.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricSpec is one metric BENCHMARK.json declares.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec is the part of BENCHMARK.json the runner reads.
type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
}

// run is one benchmark process's result.
type run struct {
	Seed      int                `json:"seed"`
	Side      string             `json:"side"` // "parent" or "change"
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	// Layers is every other metric the run printed (its table's
	// "reported, not bounded" rows).
	Layers  map[string]float64 `json:"layers,omitempty"`
	Seconds float64            `json:"seconds"`
}

// workloadResult is one workload's pairs and verdicts.
type workloadResult struct {
	Pairs      int    `json:"pairs"`
	Seeds      []int  `json:"seeds"`
	UnseenSeed int    `json:"unseen_seed,omitempty"`
	BenchEnv   string `json:"bench_env"`
	// Fillers are the end-to-end metrics the workload does not measure
	// (the benchmark prints them "not measured here"): no verdict.
	Fillers []string           `json:"fillers,omitempty"`
	Runs    []run              `json:"runs"`
	Claim   *claimResult       `json:"claim,omitempty"`
	Bounds  map[string]bounded `json:"bounds"`
}

// claimResult is the claim table with the metric it is on and the
// unseen seed's values.
type claimResult struct {
	Metric string `json:"metric"`
	claim
	UnseenParent float64 `json:"unseen_parent,omitempty"`
	UnseenChange float64 `json:"unseen_change,omitempty"`
	UnseenAgrees bool    `json:"unseen_agrees,omitempty"`
}

// side is one exported tree. A working tree's commit is a fresh one on
// every call (git stash create stamps it), so runs are matched by Tree.
type side struct {
	Rev    string `json:"rev"`
	Commit string `json:"commit"`
	Tree   string `json:"tree"`
	dir    string
}

// report is the JSON file's content.
type report struct {
	Parent    side                       `json:"parent"`
	Change    side                       `json:"change"`
	Env       map[string]string          `json:"env"`
	Date      string                     `json:"date"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

// options are the command line's.
type options struct {
	workloads            []string
	claimed              string
	pairs, seed0, unseen int
	parentRev, changeRev string
	out                  string
	printOnly            bool
}

func main() {
	var o options
	workloads := flag.String("workloads", "", "comma-separated workload ids (required unless -print)")
	flag.StringVar(&o.claimed, "claim", "", "the end-to-end metric the change claims to improve; empty: must-not-move verdicts only")
	flag.IntVar(&o.pairs, "pairs", 10, "alternated parent/change pairs per workload")
	flag.IntVar(&o.seed0, "seed", 1, "first seed; pair i runs seed+i")
	flag.IntVar(&o.unseen, "unseen", 0, "one more pair on this seed after the others, for the claim's direction; 0: none")
	flag.StringVar(&o.parentRev, "parent", "HEAD", "the parent revision")
	flag.StringVar(&o.changeRev, "change", "", "the change revision; empty: the working tree's tracked files")
	flag.StringVar(&o.out, "out", "", "the JSON file to write, relative to the repo root unless absolute (required)")
	flag.BoolVar(&o.printOnly, "print", false, "run nothing: judge the runs already in -out again and print their tables")
	flag.Parse()
	if *workloads != "" {
		o.workloads = strings.Split(*workloads, ",")
	}
	if o.out == "" || !o.printOnly && len(o.workloads) == 0 || o.pairs < 1 || o.unseen >= o.seed0 && o.unseen < o.seed0+o.pairs {
		fmt.Fprintln(os.Stderr, "benchclaim: -out is required, and -workloads unless -print; -pairs must be at least 1, and -unseen a seed no pair runs")
		flag.Usage()
		os.Exit(2)
	}
	if err := mainErr(o); err != nil {
		fmt.Fprintln(os.Stderr, "benchclaim:", err)
		os.Exit(1)
	}
}

func mainErr(o options) error {
	root, err := git("", "rev-parse", "--show-toplevel")
	if err != nil {
		return err
	}
	var spec benchSpec
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	dirs := map[string]string{}
	for _, m := range spec.EndToEnd {
		dirs[m.Name] = m.Better
	}
	if _, ok := dirs[o.claimed]; o.claimed != "" && !ok {
		return fmt.Errorf("-claim %s is not an end-to-end metric of BENCHMARK.json", o.claimed)
	}
	path := o.out
	if !filepath.IsAbs(path) {
		path = filepath.Join(root, o.out)
	}
	if o.printOnly {
		return reprint(path, spec)
	}

	parentRev, changeRev := o.parentRev, o.changeRev
	parent := side{Rev: parentRev}
	if parent.Commit, err = git(root, "rev-parse", parentRev+"^{commit}"); err != nil {
		return err
	}
	change := side{Rev: changeRev}
	if changeRev == "" {
		change.Rev = "worktree"
		if change.Commit, err = git(root, "stash", "create"); err != nil {
			return err
		}
		if change.Commit == "" { // nothing differs from HEAD
			change.Commit, err = git(root, "rev-parse", "HEAD")
		}
	} else {
		change.Commit, err = git(root, "rev-parse", changeRev+"^{commit}")
	}
	if err != nil {
		return err
	}
	for _, s := range []*side{&parent, &change} {
		if s.Tree, err = git(root, "rev-parse", s.Commit+"^{tree}"); err != nil {
			return err
		}
	}

	tmp, err := os.MkdirTemp("", "benchclaim-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	for _, s := range []*side{&parent, &change} {
		s.dir = filepath.Join(tmp, s.Commit[:12])
		if s == &change && change.Commit == parent.Commit {
			s.dir += "-change"
		}
		fmt.Fprintf(os.Stderr, "benchclaim: exporting and building %s (%s) in %s\n", s.Rev, s.Commit[:12], s.dir)
		if err := export(root, s.Commit, s.dir); err != nil {
			return err
		}
	}

	rep := report{Parent: parent, Change: change, Env: environment(), Date: time.Now().UTC().Format(time.RFC3339),
		Workloads: map[string]*workloadResult{}}
	if old, err := os.ReadFile(path); err == nil {
		var prev report
		if json.Unmarshal(old, &prev) == nil && prev.Parent.Tree == parent.Tree && prev.Change.Tree == change.Tree {
			rep.Workloads = prev.Workloads
		}
	}
	for _, w := range o.workloads {
		res, err := runWorkload(w, parent, change, o.pairs, o.seed0, o.unseen)
		if err != nil {
			return err
		}
		judge(res, spec.EndToEnd, o.claimed)
		rep.Workloads[w] = res
		printWorkload(os.Stdout, w, res, parent, change, spec.EndToEnd)
		if err := writeReport(path, rep); err != nil {
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "benchclaim: wrote %s\n", path)
	return nil
}

// reprint judges the workloads in the report at path again, against
// BENCHMARK.json as it stands, prints their tables and writes the
// verdicts back.
func reprint(path string, spec benchSpec) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var rep report
	if err := json.Unmarshal(raw, &rep); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	names := make([]string, 0, len(rep.Workloads))
	for w := range rep.Workloads {
		names = append(names, w)
	}
	sort.Strings(names)
	for _, w := range names {
		res := rep.Workloads[w]
		claimed := ""
		if res.Claim != nil {
			claimed = res.Claim.Metric
		}
		judge(res, spec.EndToEnd, claimed)
		printWorkload(os.Stdout, w, res, rep.Parent, rep.Change, spec.EndToEnd)
	}
	return writeReport(path, rep)
}

// git runs git in dir (the current directory when empty) and returns its
// trimmed standard output.
func git(dir string, args ...string) (string, error) {
	cmd := exec.Command("git", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	outb, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("git %s: %v: %s", strings.Join(args, " "), err, strings.TrimSpace(stderr.String()))
	}
	return strings.TrimSpace(string(outb)), nil
}

// export writes commit's tree to dir with git archive and builds the
// benchmark there the way benchmark/run.sh does, so the first run's
// build is a cache hit.
func export(root, commit, dir string) error {
	if err := os.MkdirAll(filepath.Join(dir, ".bench_build", "tmp"), 0o755); err != nil {
		return err
	}
	archive := exec.Command("git", "archive", "--format=tar", commit)
	archive.Dir = root
	untar := exec.Command("tar", "-x", "-C", dir)
	pipe, err := archive.StdoutPipe()
	if err != nil {
		return err
	}
	untar.Stdin = pipe
	if err := untar.Start(); err != nil {
		return err
	}
	if err := archive.Run(); err != nil {
		return fmt.Errorf("git archive %s: %w", commit, err)
	}
	if err := untar.Wait(); err != nil {
		return fmt.Errorf("untar %s: %w", commit, err)
	}
	build := exec.Command("go", "build", "-o", filepath.Join(dir, ".bench_build", "benchmark"), "./benchmark")
	build.Dir = dir
	build.Env = append(os.Environ(),
		"GOCACHE="+filepath.Join(dir, ".bench_build", "gocache"),
		"GOTMPDIR="+filepath.Join(dir, ".bench_build", "tmp"))
	if outb, err := build.CombinedOutput(); err != nil {
		return fmt.Errorf("build %s: %v\n%s", commit, err, outb)
	}
	return nil
}

// runWorkload runs the pairs, alternating which side goes first, then
// the unseen seed's pair.
func runWorkload(w string, parent, change side, pairs, seed0, unseen int) (*workloadResult, error) {
	res := &workloadResult{Pairs: pairs, UnseenSeed: unseen}
	seeds := make([]int, 0, pairs+1)
	for i := 0; i < pairs; i++ {
		seeds = append(seeds, seed0+i)
		res.Seeds = append(res.Seeds, seed0+i)
	}
	if unseen != 0 {
		seeds = append(seeds, unseen)
	}
	for i, seed := range seeds {
		order := []side{parent, change}
		if i%2 == 1 {
			order[0], order[1] = change, parent
		}
		for _, s := range order {
			r, env, fillers, err := runOnce(s, w, seed)
			if err != nil {
				return nil, err
			}
			res.Fillers = fillers
			if s.dir == change.dir {
				r.Side = "change"
				res.BenchEnv = env
			} else {
				r.Side = "parent"
			}
			res.Runs = append(res.Runs, r)
			fmt.Fprintf(os.Stderr, "benchclaim: %s seed %d %s: correct=%v failed=%d in %.0fs\n",
				w, seed, r.Side, r.Correct, r.Failed, r.Seconds)
		}
	}
	return res, nil
}

// runOnce runs benchmark/run.sh in s's export and parses what it
// printed: the JSON line of end-to-end metrics, the table's other rows,
// its environment line and the metrics it marks as not measured.
func runOnce(s side, w string, seed int) (run, string, []string, error) {
	r := run{Seed: seed, Metrics: map[string]float64{}, Layers: map[string]float64{}}
	cmd := exec.Command("bash", "benchmark/run.sh", "--workload", w, "--seed", strconv.Itoa(seed))
	cmd.Dir = s.dir
	t0 := time.Now()
	outb, err := cmd.CombinedOutput()
	r.Seconds = time.Since(t0).Seconds()
	if err != nil {
		return r, "", nil, fmt.Errorf("%s seed %d on %s: %v\n%s", w, seed, s.Commit[:12], err, tail(outb, 20))
	}
	var env string
	var fillers []string
	var final []byte
	inLayers := false
	sc := bufio.NewScanner(bytes.NewReader(outb))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "== "):
			env = strings.TrimPrefix(line, "== ")
		case strings.HasPrefix(line, "{"):
			final = []byte(line)
		case strings.Contains(line, "not measured here"):
			fillers = append(fillers, strings.Fields(line)[0])
		case strings.HasPrefix(line, "   -- reported"):
			inLayers = true
		case strings.HasPrefix(line, "   -- "):
			inLayers = false
		case inLayers:
			f := strings.Fields(line)
			if len(f) >= 2 {
				if v, err := strconv.ParseFloat(f[1], 64); err == nil {
					r.Layers[f[0]] = v
				}
			}
		}
	}
	if final == nil {
		return r, "", nil, fmt.Errorf("%s seed %d on %s printed no result line\n%s", w, seed, s.Commit[:12], tail(outb, 20))
	}
	var parsed struct {
		Correct   bool  `json:"correct"`
		Attempted int64 `json:"attempted"`
		Failed    int64 `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(final, &parsed); err != nil {
		return r, "", nil, fmt.Errorf("%s seed %d: result line: %w", w, seed, err)
	}
	r.Correct, r.Attempted, r.Failed = parsed.Correct, parsed.Attempted, parsed.Failed
	for name, m := range parsed.Metrics {
		r.Metrics[name] = m.Value
	}
	return r, env, fillers, nil
}

// tail is the last n lines of b.
func tail(b []byte, n int) string {
	lines := strings.Split(strings.TrimRight(string(b), "\n"), "\n")
	return strings.Join(lines[max(0, len(lines)-n):], "\n")
}

// values returns one metric's values by side, in pair order, and the
// unseen seed's pair, with whether it ran.
func values(res *workloadResult, metric string) (parent, change []float64, unseenP, unseenC float64, unseenRan bool) {
	seen := map[int]bool{}
	for _, s := range res.Seeds {
		seen[s] = true
	}
	for _, r := range res.Runs {
		v, ok := r.Metrics[metric]
		if !ok {
			continue
		}
		switch {
		case !seen[r.Seed] && r.Side == "parent":
			unseenP, unseenRan = v, true
		case !seen[r.Seed]:
			unseenC = v
		case r.Side == "parent":
			parent = append(parent, v)
		default:
			change = append(change, v)
		}
	}
	return parent, change, unseenP, unseenC, unseenRan
}

// judge fills the claim and the bounds from the runs.
func judge(res *workloadResult, endToEnd []metricSpec, claimed string) {
	res.Bounds = map[string]bounded{}
	for _, m := range endToEnd {
		p, c, _, _, _ := values(res, m.Name)
		if len(p) == 0 || len(c) == 0 || slices.Contains(res.Fillers, m.Name) {
			continue
		}
		res.Bounds[m.Name] = judgeBound(p, c, m.Better, m.Bound)
		if m.Name != claimed {
			continue
		}
		cr := &claimResult{Metric: m.Name, claim: judgeClaim(p, c, m.Better)}
		var ran bool
		_, _, cr.UnseenParent, cr.UnseenChange, ran = values(res, m.Name)
		cr.UnseenAgrees = ran && better(cr.UnseenChange, cr.UnseenParent, m.Better)
		res.Claim = cr
	}
}

// printWorkload prints a workload's claim table and must-not-move
// verdicts as markdown.
func printWorkload(w io.Writer, name string, res *workloadResult, parent, change side, endToEnd []metricSpec) {
	fmt.Fprintf(w, "\n### `%s`: %d alternated pairs, seeds %d–%d\n\n", name, res.Pairs, res.Seeds[0], res.Seeds[len(res.Seeds)-1])
	fmt.Fprintf(w, "Parent `%s` (%s), change `%s` (%s). %s\n", parent.Commit[:12], parent.Rev, change.Commit[:12], change.Rev, res.BenchEnv)
	if c := res.Claim; c != nil {
		fmt.Fprintf(w, "\n| `%s` | q1 | median | q3 |\n|---|---|---|---|\n", c.Metric)
		fmt.Fprintf(w, "| parent | %.4g | %.4g | %.4g |\n", c.ParentQ1, c.ParentMedian, c.ParentQ3)
		fmt.Fprintf(w, "| change | %.4g | %.4g | %.4g |\n\n", c.ChangeQ1, c.ChangeMedian, c.ChangeQ3)
		verdict := "holds"
		if !c.Holds {
			verdict = "does not hold"
		}
		fmt.Fprintf(w, "Median %s; the change wins %d of %d; the gap %.4g against the parent's IQR %.4g: the claim %s.",
			pct(c.Delta), c.Wins, c.Pairs, c.Gap, c.ParentIQR, verdict)
		if res.UnseenSeed != 0 {
			dir := "the same direction"
			if !c.UnseenAgrees {
				dir = "the other direction"
			}
			fmt.Fprintf(w, " Unseen seed %d: parent %.4g, change %.4g, %s.", res.UnseenSeed, c.UnseenParent, c.UnseenChange, dir)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "\n| metric | better | bound | parent median | change median | change | verdict |\n|---|---|---|---|---|---|---|\n")
	names := make([]string, 0, len(res.Bounds))
	for n := range res.Bounds {
		names = append(names, n)
	}
	sort.Strings(names)
	better := map[string]string{}
	for _, m := range endToEnd {
		better[m.Name] = m.Better
	}
	for _, n := range names {
		b := res.Bounds[n]
		verdict := "in bound"
		switch {
		case !b.OK:
			verdict = "**out of bound**"
		case b.Unresolved:
			verdict = fmt.Sprintf("unresolved (parent spread %.0f%%)", 100*b.ParentSpread)
		}
		fmt.Fprintf(w, "| `%s` | %s | %.0f%% | %.4g | %.4g | %s | %s |\n", n, better[n], 100*b.Bound, b.ParentMedian, b.ChangeMedian, pct(b.Delta), verdict)
	}
	var failed, attempted [2]int64
	correct := [2]bool{true, true}
	for _, r := range res.Runs {
		i := 0
		if r.Side == "change" {
			i = 1
		}
		failed[i] += r.Failed
		attempted[i] += r.Attempted
		correct[i] = correct[i] && r.Correct
	}
	fmt.Fprintf(w, "\nFailed ops: parent %d of %d, change %d of %d. Oracles: parent %s, change %s.\n",
		failed[0], attempted[0], failed[1], attempted[1], okWord(correct[0]), okWord(correct[1]))
}

func okWord(ok bool) string {
	if ok {
		return "ok"
	}
	return "FAILED"
}

// environment is the fingerprint of the machine the runs shared.
func environment() map[string]string {
	env := map[string]string{
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"num_cpu":    strconv.Itoa(runtime.NumCPU()),
		"gomaxprocs": os.Getenv("GOMAXPROCS"),
		"gogc":       os.Getenv("GOGC"),
	}
	if v, err := exec.Command("go", "env", "GOVERSION").Output(); err == nil {
		env["go"] = strings.TrimSpace(string(v))
	}
	if v, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		env["kernel"] = strings.TrimSpace(string(v))
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				env["cpu"] = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	return env
}

// writeReport writes rep to path atomically enough for a tool: a temp
// file renamed over the old one.
func writeReport(path string, rep report) error {
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
