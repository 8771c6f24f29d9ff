// Command benchmark is the repository's one repeatable benchmark: four
// long workloads, every metric an order statistic over rounds or a median
// over at least a hundred samples, and a per-layer table measured from
// outside the program — by timing calls into public functions, by HTTP
// against an in-process server, and by reading the counters the program
// exports.
//
//	go run ./benchmark                      every workload, seed 1
//	go run ./benchmark -workload lib_skew   one workload
//	go run ./benchmark -workload serve_write -trace
//	go run ./benchmark -selfcheck 5         two interleaved sets of 5 runs
//
// Each workload runs in a fresh child process of this binary, so one
// workload's heap, goroutines and page cache state never reach the next
// and its memory readings are its own. See README.md for the names.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// runSeconds is BENCHMARK.json's run_seconds: about how long a main
// phase lasts on the reference box with the round and op counts of the
// workload table. Those counts are fixed; no clock ends a phase.
const runSeconds = 20

// resultMarker prefixes the child's result line on its stdout.
const resultMarker = "BENCHMARK-CHILD-RESULT "

// outDir receives traces and selfcheck output; it is git-ignored.
const outDir = "benchmark/out"

// runCtx is what a workload runs with and reports into.
type runCtx struct {
	w       workload
	seed    uint64
	threads int // T = min(nproc, 4): runtime threads and client connections
	smoke   bool
	tr      *tracer
	start   time.Time

	attempted atomic.Int64
	failed    atomic.Int64

	liveMB []float64 // heap that survived the collection at each round's end

	mu      sync.Mutex
	m       map[string]float64   // every measurement under its own name
	series  map[string][]float64 // what a median was taken over, for the report
	oracles []string             // failed oracles
	sizes   map[string]int
}

// op counts one operation the workload attempted; any non-2xx answer,
// job status other than done, algorithm error or failed oracle is a
// failure.
func (c *runCtx) op(ok bool) {
	c.attempted.Add(1)
	if !ok {
		c.failed.Add(1)
	}
}

func (c *runCtx) set(name string, v float64) {
	c.mu.Lock()
	c.m[name] = v
	c.mu.Unlock()
}

// setOver records v, a statistic over the rounds xs, under name and
// keeps xs for the report, so a reader sees what it was taken over.
func (c *runCtx) setOver(name string, v float64, xs []float64) {
	c.set(name, v)
	c.mu.Lock()
	c.series[name] = xs
	c.mu.Unlock()
}

func (c *runCtx) setMedian(name string, xs []float64) { c.setOver(name, median(xs), xs) }

func (c *runCtx) get(name string) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m[name]
}

// oracle records one correctness check made outside the timed regions.
func (c *runCtx) oracle(name string, err error) {
	c.op(err == nil)
	if err != nil {
		c.mu.Lock()
		c.oracles = append(c.oracles, name+": "+err.Error())
		c.mu.Unlock()
	}
}

// roundDone closes a round at a point where the round's state is still
// alive: it forces a collection, so the next round starts from the same
// heap, and records what survived. live_heap_mb is the median over
// rounds of that reading.
func (c *runCtx) roundDone() {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	c.liveMB = append(c.liveMB, float64(m.HeapAlloc)/(1<<20))
}

// scheduleKept applies the generator-lateness rule to one paced stream
// and reports whether its samples stand. A generator that fell behind is
// the host's doing, not a failed operation of the program, and every
// number a paced stream feeds is a per-layer diagnostic: the stream's
// samples are dropped, with a line on stderr, and the run goes on. A
// smoke run is a handful of ticks taken beside other test binaries on
// the same cores, so there the rule is not judged.
func (c *runCtx) scheduleKept(stream string, lateMS []float64, rate int) bool {
	if c.smoke {
		return true
	}
	if err := checkLate(lateMS, rate); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s %s: %v; its paced samples are dropped\n", c.w.ID, stream, err)
		return false
	}
	return true
}

// setupDone closes the set-up interval: everything from workload start
// to the first timed operation, warm-up included.
func (c *runCtx) setupDone() { c.set("setup_s", time.Since(c.start).Seconds()) }

// childResult is what a workload's child process hands its parent.
type childResult struct {
	Workload  string             `json:"workload"`
	Env       fingerprint        `json:"env"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Oracles   []string           `json:"failed_oracles,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
	// Series holds, for a metric that is a median over rounds, the
	// per-round values.
	Series map[string][]float64 `json:"series,omitempty"`
}

// options are the command's flags.
type options struct {
	workload  string
	seed      uint64
	seconds   int
	trace     bool
	smoke     bool
	child     bool
	selfcheck int
	manifest  bool
}

func parseFlags(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "run one workload (default: all four)")
	fs.Uint64Var(&o.seed, "seed", 1, "seed every generated input derives from")
	fs.IntVar(&o.seconds, "seconds", runSeconds, "the acceptance driver passes run_seconds; work is fixed by the workload table, so no other value is accepted")
	fs.BoolVar(&o.trace, "trace", false, "also run traced: spans, probes, layer replay and the per-layer metrics")
	fs.BoolVar(&o.smoke, "smoke", false, "sizes / 50 and 2 rounds, for go test")
	fs.BoolVar(&o.child, "child", false, "internal: run the workload in this process")
	fs.IntVar(&o.selfcheck, "selfcheck", 0, "run two interleaved sets of N full runs and compare their medians")
	fs.BoolVar(&o.manifest, "manifest", false, "print BENCHMARK.json as generated from the tables")
	// The acceptance driver passes "--trace 0|1"; a bare -trace stays a
	// switch. Fold the two-word form into -trace=<bool> before parsing.
	var norm []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			norm = append(norm, "-trace="+args[i+1])
			i++
			continue
		}
		norm = append(norm, a)
	}
	if err := fs.Parse(norm); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if o.seconds != runSeconds {
		return o, fmt.Errorf("-seconds %d: the workloads hold fixed work sized for run_seconds = %d", o.seconds, runSeconds)
	}
	return o, nil
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	switch {
	case o.manifest:
		buf, err := manifest()
		if err != nil {
			return err
		}
		_, err = os.Stdout.Write(buf)
		return err
	case o.child:
		return runChild(o)
	case o.selfcheck > 0:
		return runSelfcheck(o)
	}
	ids := []string{o.workload}
	if o.workload == "" {
		ids = ids[:0]
		for _, w := range workloads {
			ids = append(ids, w.ID)
		}
	}
	for _, id := range ids {
		if _, ok := workloadByID(id); !ok {
			return fmt.Errorf("unknown workload %q", id)
		}
		res, err := runWorkload(o, id)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		printReport(res, o.trace)
		if !res.Correct || res.Failed > 0 {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %d of %d operations failed, oracles %s\n",
				id, res.Failed, res.Attempted, oracleSummary(res))
		}
		// The last line of a workload's output is the acceptance driver's
		// result object; a completed run exits 0 and lets it speak.
		fmt.Println(driverLine(res, o.trace))
	}
	return nil
}

// runWorkload runs one workload in a child process. A traced run is
// two children: an untraced one for the reference headline, then the
// traced one; trace.headline_ratio is the second's headline time over
// the first's. Two runs of the same code differ by a few percent here,
// so the ratio cannot resolve an overhead of that size; the traced
// child also reports trace.overhead_frac, the calibrated cost of its
// spans as a share of its run.
func runWorkload(o options, id string) (*childResult, error) {
	o.workload = id
	if !o.trace {
		return spawnChild(o)
	}
	ref := o
	ref.trace = false
	plain, err := spawnChild(ref)
	if err != nil {
		return nil, err
	}
	traced, err := spawnChild(o)
	if err != nil {
		return nil, err
	}
	if base := headlineSeconds(plain); base > 0 {
		traced.Metrics["trace.headline_ratio"] = headlineSeconds(traced) / base
	}
	return traced, nil
}

// spawnChild re-executes this binary with -child and reads its result.
// Everything else the child prints (the trace tables) is passed on.
func spawnChild(o options) (*childResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-child", "-workload", o.workload,
		"-seed", fmt.Sprint(o.seed), fmt.Sprintf("-trace=%t", o.trace), fmt.Sprintf("-smoke=%t", o.smoke)}
	cmd := exec.Command(exe, args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		os.Stdout.Write(out.Bytes())
		return nil, fmt.Errorf("child: %w", err)
	}
	var res *childResult
	sc := bufio.NewScanner(&out)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, resultMarker); ok {
			res = new(childResult)
			if err := json.Unmarshal([]byte(rest), res); err != nil {
				return nil, fmt.Errorf("child result: %w", err)
			}
			continue
		}
		fmt.Println(line)
	}
	if res == nil {
		return nil, fmt.Errorf("child printed no result")
	}
	return res, nil
}

// newRunCtx sizes one workload run from the flags.
func newRunCtx(o options) (*runCtx, error) {
	w, ok := workloadByID(o.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	c := &runCtx{
		w: w, seed: o.seed, smoke: o.smoke,
		threads: min(runtime.NumCPU(), 4),
		m:       make(map[string]float64),
		series:  make(map[string][]float64),
		sizes:   make(map[string]int),
	}
	if o.smoke {
		c.w = w.smoke()
	}
	if o.trace {
		c.tr = newTracer()
	}
	return c, nil
}

// runChild runs one workload in this process and prints its result.
func runChild(o options) error {
	c, err := newRunCtx(o)
	if err != nil {
		return err
	}
	runtime.GOMAXPROCS(c.threads)
	c.start = time.Now()
	if err := c.w.run(c); err != nil {
		return err
	}
	if c.tr != nil {
		path, err := c.tr.write(outDir, c.w.ID)
		if err != nil {
			return err
		}
		fmt.Printf("trace: %d spans written to %s; self time by span name:\n", len(c.tr.spans), path)
		self := c.tr.selfTimes()
		names := make([]string, 0, len(self))
		for n := range self {
			names = append(names, n)
		}
		sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
		for _, n := range names {
			fmt.Printf("   %-32s %10.1f ms\n", n, float64(self[n])/1e6)
		}
		c.set("trace.overhead_frac", c.tr.cost().Seconds()/time.Since(c.start).Seconds())
	}
	c.set("peak_rss_mb", peakRSSMB())
	c.setMedian("live_heap_mb", c.liveMB)
	res := childResult{
		Workload:  c.w.ID,
		Env:       fingerprintOf(c, o),
		Correct:   len(c.oracles) == 0,
		Attempted: c.attempted.Load(),
		Failed:    c.failed.Load(),
		Oracles:   c.oracles,
		Metrics:   c.m,
		Series:    c.series,
	}
	buf, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(resultMarker + string(buf))
	return nil
}

// peakRSSMB reads this process's resident-set high-water mark.
func peakRSSMB() float64 {
	buf, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// cpuSeconds is this process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// headlineOf returns the end-to-end metric that times workload id's
// fixed main-phase work.
func headlineOf(id string) metric {
	w, _ := workloadByID(id)
	for _, m := range endToEnd {
		if m.Name == w.Headline {
			return m
		}
	}
	return metric{}
}

// headlineSeconds is the time res's workload took per unit of its
// fixed main-phase work.
func headlineSeconds(res *childResult) float64 {
	head := headlineOf(res.Workload)
	return fill(metric{Unit: "s"}, head, res.Metrics[head.Name])
}

// endToEndValues returns every end-to-end metric of res: measured where
// the workload measures it, the filler elsewhere.
func endToEndValues(res *childResult) map[string]float64 {
	head := headlineOf(res.Workload)
	out := make(map[string]float64, len(endToEnd))
	for _, m := range endToEnd {
		if m.measuredOn(res.Workload) {
			out[m.Name] = res.Metrics[m.Name]
		} else {
			out[m.Name] = fill(m, head, res.Metrics[head.Name])
		}
	}
	return out
}

// driverLine renders the acceptance driver's result object: every
// end-to-end metric without -trace, every per-layer metric with it.
func driverLine(res *childResult, traced bool) string {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]val)
	if traced {
		for _, m := range perLayer {
			metrics[m.Name] = val{res.Metrics[m.Name], m.Unit}
		}
	} else {
		values := endToEndValues(res)
		for _, m := range endToEnd {
			metrics[m.Name] = val{values[m.Name], m.Unit}
		}
	}
	buf, _ := json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int64          `json:"attempted"`
		Failed    int64          `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	return string(buf)
}

// printReport prints every metric by name with its unit: the
// end-to-end metrics the workload measures (and, marked, the fillers of
// those it does not), then every other measurement the run took.
func printReport(res *childResult, traced bool) {
	w, _ := workloadByID(res.Workload)
	fmt.Printf("== %s  (%s)\n", res.Workload, res.Env)
	fmt.Printf("   attempted %d, failed %d, oracles %s\n", res.Attempted, res.Failed, oracleSummary(res))
	values := endToEndValues(res)
	units := make(map[string]string)
	for _, m := range endToEnd {
		units[m.Name] = m.Unit
		note := fmt.Sprintf("bound %.2f", m.Bound)
		if !m.measuredOn(w.ID) {
			note = "not measured here: " + w.Headline + " again, never claimed on"
		}
		fmt.Printf("   %-34s %16.6g %-5s %s\n", m.Name, values[m.Name], m.Unit, note)
	}
	if traced {
		fmt.Println("   -- reported, not bounded; per layer (traced run)")
	} else {
		fmt.Println("   -- reported, not bounded")
	}
	for _, m := range perLayer {
		units[m.Name] = m.Unit
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		if _, e2e := values[n]; !e2e {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("   %-34s %16.6g %s\n", n, res.Metrics[n], units[n])
	}
	fmt.Println("   -- per round")
	names = names[:0]
	for n := range res.Series {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("   %-34s", n)
		for _, v := range res.Series[n] {
			fmt.Printf(" %.4g", v)
		}
		fmt.Println()
	}
}

func oracleSummary(res *childResult) string {
	if res.Correct {
		return "ok"
	}
	return "FAILED: " + strings.Join(res.Oracles, "; ")
}
