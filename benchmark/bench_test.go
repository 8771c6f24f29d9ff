package main

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestManifestMatchesTables keeps BENCHMARK.json and the tables it is
// generated from in step.
func TestManifestMatchesTables(t *testing.T) {
	want, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("BENCHMARK.json differs from the tables; regenerate with `go run ./benchmark -manifest > BENCHMARK.json`")
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	once := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		once(w.ID)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.ID, len(w.Why))
		}
		headline := false
		for _, m := range endToEnd {
			headline = headline || (m.Name == w.Headline && m.measuredOn(w.ID))
		}
		if !headline {
			t.Errorf("%s: headline %q is not an end-to-end metric it measures", w.ID, w.Headline)
		}
	}
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > endToEnd[0].Bound || endToEnd[0].Bound > 0.25 {
			t.Errorf("%s: bound %v; the contract allows none above 0.25 and gives setup_s the largest", m.Name, m.Bound)
		}
		for _, id := range m.On {
			if _, ok := workloadByID(id); !ok {
				t.Errorf("%s is measured on unknown workload %q", m.Name, id)
			}
		}
	}
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
		once(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("metric %+v: bad unit or direction", m)
		}
	}
}

// TestFill: a pair a workload does not measure reads as the workload's
// headline in the metric's unit, and worsens when the headline does.
func TestFill(t *testing.T) {
	suite := metric{Name: "suite_p50_s", Unit: "s", Better: "lower"}
	rate := metric{Name: "write_ops_per_s", Unit: "1/s", Better: "higher"}
	ms := metric{Name: "job_p50_ms", Unit: "ms", Better: "lower"}
	if got := fill(ms, suite, 4); got != 4000 {
		t.Errorf("a 4 s headline as ms = %v", got)
	}
	if got := fill(rate, suite, 4); got != 0.25 {
		t.Errorf("a 4 s headline as a rate = %v", got)
	}
	if got := fill(suite, rate, 250_000); got != 4e-6 {
		t.Errorf("a 250k/s headline as seconds = %v", got)
	}
	if fill(ms, rate, 200_000) <= fill(ms, rate, 250_000) {
		t.Error("a slower rate did not read as a longer time")
	}
	res := &childResult{Workload: "serve_write", Metrics: map[string]float64{
		"setup_s": 1, "live_heap_mb": 500, "write_ops_per_s": 250_000, "recover_s": 0.5}}
	got := endToEndValues(res)
	if len(got) != len(endToEnd) {
		t.Fatalf("%d of %d end-to-end metrics on serve_write", len(got), len(endToEnd))
	}
	for name, v := range got {
		if v <= 0 {
			t.Errorf("serve_write: %s = %v, want a positive number", name, v)
		}
	}
	if got["recover_s"] != 0.5 || got["suite_p50_s"] != 4e-6 {
		t.Errorf("measured recover_s %v, filler suite_p50_s %v", got["recover_s"], got["suite_p50_s"])
	}
}

// TestDriverFlags: the acceptance driver's spelling parses, and a run
// length the fixed-work tables were not sized for is refused.
func TestDriverFlags(t *testing.T) {
	o, err := parseFlags(strings.Fields("--workload serve_write --seed 7 --seconds 20 --trace 1"))
	if err != nil || o.workload != "serve_write" || o.seed != 7 || !o.trace {
		t.Errorf("driver flags parsed to %+v, %v", o, err)
	}
	if o, err = parseFlags(strings.Fields("--workload lib_flat --seed 1 --seconds 20 --trace 0")); err != nil || o.trace {
		t.Errorf("--trace 0 parsed to %+v, %v", o, err)
	}
	if _, err := parseFlags(strings.Fields("--workload lib_flat --seconds 60")); err == nil {
		t.Error("--seconds 60 was accepted; the tables hold work for run_seconds only")
	}
}

// TestGenerationDeterministic: equal seeds give byte-identical inputs,
// different seeds different ones.
func TestGenerationDeterministic(t *testing.T) {
	for _, w := range workloads {
		w = w.smoke()
		bodies := func(seed uint64) []byte {
			g := genGraph(w, seed)
			var buf bytes.Buffer
			for _, a := range arcList(g) {
				fmt.Fprintf(&buf, "%d>%d ", a.U, a.V)
			}
			for _, b := range genBatches(g, seed, 4, 32) {
				buf.Write(b.body)
			}
			return buf.Bytes()
		}
		if !bytes.Equal(bodies(7), bodies(7)) {
			t.Errorf("%s: seed 7 generated two different inputs", w.ID)
		}
		if bytes.Equal(bodies(7), bodies(8)) {
			t.Errorf("%s: seeds 7 and 8 generated the same input", w.ID)
		}
	}
}

func TestStatsHelpers(t *testing.T) {
	// Round-median: an outlier sample moves its round's statistic, an
	// outlier round moves nothing.
	rounds := [][]float64{{1, 2, 3}, {2, 3, 400}, {100, 200, 300}}
	if got := roundMedian(rounds, median); got != 3 {
		t.Errorf("roundMedian = %v, want 3", got)
	}
	// The highest percentile with ten samples beyond it.
	for _, tc := range []struct {
		n     int
		level float64
	}{{50, 0}, {100, 0.90}, {199, 0.90}, {200, 0.95}, {1000, 0.99}, {10000, 0.999}} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(i)
		}
		if level, _ := tailPercentile(xs); level != tc.level {
			t.Errorf("tailPercentile(n=%d) level %v, want %v", tc.n, level, tc.level)
		}
	}
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25].
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q2, q3 := quartiles(xs)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	if got := spread(xs); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
	// The fast-side quartile: five of eight rounds slowed by a neighbour
	// and one lucky round move it by little, the median by much.
	times := []float64{1.00, 1.01, 1.02, 1.3, 1.4, 1.5, 1.6, 0.7}
	if got := fastQuartile(times, false); got < 1.00 || got > 1.01 {
		t.Errorf("fastQuartile(times) = %v, want within the undisturbed rounds", got)
	}
	rates := []float64{300, 299, 298, 230, 220, 210, 200, 400}
	if got := fastQuartile(rates, true); got < 299 || got > 300 {
		t.Errorf("fastQuartile(rates) = %v, want within the undisturbed rounds", got)
	}
	if p := compareSets([]float64{10, 10, 10}, []float64{10.5, 10.5, 10.5}, 0.1); !p.Pass || math.Abs(p.Differ-0.05) > 1e-12 {
		t.Errorf("5%% apart under a 10%% bound: %+v", p)
	}
	if p := compareSets([]float64{10, 10, 10}, []float64{12, 12, 12}, 0.1); p.Pass {
		t.Error("20% apart passed a 10% bound")
	}
	if p := compareSets([]float64{10, 10, 10}, []float64{12, 12, 12}, 0); !p.Pass {
		t.Error("a metric without a bound failed")
	}
}

// TestPaceAccounting: the open-loop scheduler keeps its schedule while
// answers are slow, times a request from its due time, and reports a
// generator that fell behind.
func TestPaceAccounting(t *testing.T) {
	const rate, n = 200, 20 // 5 ms interval
	lat := make([]float64, n)
	var inFlight, maxInFlight atomic.Int32
	late := pace(rate, n, nil, func(i int, due time.Time) {
		now := inFlight.Add(1)
		for old := maxInFlight.Load(); now > old && !maxInFlight.CompareAndSwap(old, now); old = maxInFlight.Load() {
		}
		time.Sleep(20 * time.Millisecond) // four intervals
		inFlight.Add(-1)
		lat[i] = sinceMS(due)
	})
	// A closed loop never has two requests in flight; an open loop whose
	// answers take four intervals must.
	if maxInFlight.Load() < 2 {
		t.Errorf("open loop waited for answers: at most %d in flight", maxInFlight.Load())
	}
	if len(late) != n {
		t.Fatalf("%d lateness samples, want %d", len(late), n)
	}
	for i, l := range lat {
		if l < 20 {
			t.Errorf("request %d: %.1f ms from due time, below its 20 ms service time", i, l)
		}
	}
	if err := checkLate([]float64{0.1, 0.2, 0.1}, rate); err != nil {
		t.Errorf("punctual generator rejected: %v", err)
	}
	stall := make([]float64, 100) // 3 sends in 100 hit by one stall
	stall[10], stall[11], stall[12] = 9, 8, 7
	if err := checkLate(stall, rate); err != nil {
		t.Errorf("one stall invalidated the schedule: %v", err)
	}
	if err := checkLate([]float64{0.1, 9, 8, 0.1}, rate); err == nil {
		t.Error("a generator 9 ms late on half its 5 ms intervals passed")
	}
	stop := make(chan struct{})
	close(stop)
	if got := pace(1, 5, stop, func(int, time.Time) {}); len(got) != 0 {
		t.Errorf("a stopped schedule still fired %d requests", len(got))
	}
}

// TestInjected429 counts a refusal as a failed operation and keeps it
// out of the acknowledged sums.
func TestInjected429(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		http.Error(w, `{"error":"admission queue full"}`, http.StatusTooManyRequests)
	}))
	defer srv.Close()
	c, err := newRunCtx(options{workload: "serve_write", seed: 1, smoke: true})
	if err != nil {
		t.Fatal(err)
	}
	cl := newClient(strings.TrimPrefix(srv.URL, "http://"), 1)
	defer cl.close()
	var sum ackSum
	if postBatch(c, cl, batch{body: []byte(`{"ops":[{"u":1,"v":2}]}`)}, &sum, -1, 0) {
		t.Error("a 429 was counted as a success")
	}
	if c.attempted.Load() != 1 || c.failed.Load() != 1 {
		t.Errorf("attempted %d failed %d, want 1 1", c.attempted.Load(), c.failed.Load())
	}
	if sum.inserted != 0 || sum.lastEpoch != 0 {
		t.Errorf("a refused batch reached the ack sums: %+v", &sum)
	}
}

// TestSmoke runs every workload at one fiftieth of its size, the serve
// workloads traced so the probes, the layer replays and both tables
// run: no operation fails, every oracle (the ack-sum recovery oracle
// among them) passes, and every end-to-end name reads non-zero.
func TestSmoke(t *testing.T) {
	home, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil { // benchmark/out lands in the temp dir
		t.Fatal(err)
	}
	defer os.Chdir(home)
	for _, w := range workloads {
		o := options{workload: w.ID, seed: 3, smoke: true, trace: strings.HasPrefix(w.ID, "serve_")}
		c, err := newRunCtx(o)
		if err != nil {
			t.Fatal(err)
		}
		c.start = time.Now()
		if err := c.w.run(c); err != nil {
			t.Fatalf("%s: %v", w.ID, err)
		}
		if c.failed.Load() != 0 || len(c.oracles) != 0 {
			t.Errorf("%s: %d of %d operations failed, oracles %v", w.ID, c.failed.Load(), c.attempted.Load(), c.oracles)
		}
		c.set("live_heap_mb", median(c.liveMB))
		res := &childResult{Workload: w.ID, Metrics: c.m}
		for name, v := range endToEndValues(res) {
			if v <= 0 {
				t.Errorf("%s: %s = %v, want a positive number", w.ID, name, v)
			}
		}
		if w.ID == "serve_mixed" {
			for _, name := range []string{"write_p50_ms", "standing_write_p50_ms", "standing_read_p50_ms"} {
				if c.get(name) <= 0 {
					t.Errorf("%s: %s = %v, want a positive measurement", w.ID, name, c.get(name))
				}
			}
		}
		if o.trace {
			names := []string{"tufast.apply_batch_us", "wal.append_batch_us.interval", "server.http_rtt_us"}
			if w.ID == "serve_mixed" {
				names = []string{"tufast.apply_batch_hooked_us"}
			}
			for _, name := range append(names, "htm.tx_rw8_ns", "dyngraph.compact_ms") {
				if c.get(name) <= 0 {
					t.Errorf("%s traced: %s = %v, want a positive measurement", w.ID, name, c.get(name))
				}
			}
			if len(c.tr.spans) == 0 {
				t.Errorf("%s traced: no spans", w.ID)
			}
		}
	}
}

// TestSelfTimes: a span's self time excludes what its children cover,
// counting overlapping children once.
func TestSelfTimes(t *testing.T) {
	tr := &tracer{spans: []span{
		{Name: "phase", StartNS: 0, EndNS: 100, Parent: -1},
		{Name: "call", StartNS: 10, EndNS: 50, Parent: 0},
		{Name: "call", StartNS: 30, EndNS: 70, Parent: 0}, // overlaps the first
		{Name: "inner", StartNS: 35, EndNS: 45, Parent: 2},
	}}
	self := tr.selfTimes()
	if self["phase"] != 40 || self["call"] != 40+30 || self["inner"] != 10 {
		t.Errorf("self times %v, want phase 40, call 70, inner 10", self)
	}
}
