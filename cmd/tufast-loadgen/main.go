// Command tufast-loadgen drives a tufastd daemon with a closed-loop
// mixed read/write workload and reports latency percentiles: the
// operator's tool for aiming load at a daemon, local or remote.
// Repeatable serving measurements live in benchmark/ (workloads
// serve_write and serve_mixed), not here.
//
// Usage:
//
//	tufast-loadgen -addr 127.0.0.1:8080 -clients 8 -duration 10s
//	tufast-loadgen -inprocess -duration 2s -rps 50
//
// Each client loops: with probability -write-frac it POSTs a mutation
// batch to /v1/edges, otherwise it submits an analytics job and polls
// it to a terminal state (a cache hit completes inline). With -rps 0
// the loop is closed (next request only after the previous finishes);
// a positive -rps paces clients to the target aggregate rate.
// -standing submits the reads as standing queries instead.
//
// -inprocess starts a daemon in this process over a generated graph —
// the self-contained mode `make loadgen-smoke` uses.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"tufast"
	"tufast/internal/server"
)

type options struct {
	addr      string
	inprocess bool
	genN      int
	genDeg    int
	seed      uint64
	clients   int
	duration  time.Duration
	rps       float64
	writeFrac float64
	delFrac   float64
	batch     int
	algos     []string
	timeoutMS int64
	queue     int
	workers   int
	standing  bool
}

// url builds an endpoint URL on the daemon's default graph, e.g.
// o.url("/edges") is http://<addr>/v1/edges.
func (o options) url(path string) string {
	return "http://" + o.addr + "/v1" + path
}

func main() {
	var o options
	var algoList string
	flag.StringVar(&o.addr, "addr", "", "target daemon address (host:port); empty requires -inprocess")
	flag.BoolVar(&o.inprocess, "inprocess", false, "start a tufastd server in-process over a generated graph")
	flag.IntVar(&o.genN, "gen-n", 20_000, "in-process graph: vertex count")
	flag.IntVar(&o.genDeg, "gen-deg", 8, "in-process graph: average degree")
	flag.Uint64Var(&o.seed, "seed", 1, "workload and graph seed")
	flag.IntVar(&o.clients, "clients", 8, "concurrent closed-loop clients")
	flag.DurationVar(&o.duration, "duration", 10*time.Second, "run length")
	flag.Float64Var(&o.rps, "rps", 0, "target aggregate request rate (0 = closed loop, as fast as responses return)")
	flag.Float64Var(&o.writeFrac, "write-frac", 0.2, "fraction of requests that are mutation batches")
	flag.Float64Var(&o.delFrac, "del-frac", 0.3, "fraction of mutation ops that are deletes")
	flag.IntVar(&o.batch, "batch", 64, "edge ops per mutation batch")
	flag.StringVar(&algoList, "algos", "degree,pagerank,cc,sssp", "comma-separated analytics mix, cycled per read")
	flag.Int64Var(&o.timeoutMS, "job-timeout-ms", 10_000, "per-job deadline sent with each submission")
	flag.IntVar(&o.queue, "queue", 64, "in-process server: admission queue depth")
	flag.IntVar(&o.workers, "job-workers", 2, "in-process server: concurrent analytics jobs")
	flag.BoolVar(&o.standing, "standing", false, "submit analytics jobs as standing queries (restricts -algos to pagerank,cc)")
	flag.Parse()
	o.algos = strings.Split(algoList, ",")
	if o.standing {
		o.algos = standingAlgos(o.algos)
	}

	var srv *server.Server
	if o.inprocess {
		var err error
		srv, err = startInProcess(o)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tufast-loadgen:", err)
			os.Exit(1)
		}
		o.addr = srv.Addr()
		fmt.Printf("loadgen: in-process tufastd on %s\n", o.addr)
	}
	if o.addr == "" {
		fmt.Fprintln(os.Stderr, "tufast-loadgen: need -addr or -inprocess")
		os.Exit(2)
	}

	run(o).print()

	if srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "tufast-loadgen: shutdown:", err)
		}
	}
}

// standingAlgos filters an algo mix down to the delta-maintainable
// pair standing queries support.
func standingAlgos(algos []string) []string {
	var out []string
	for _, a := range algos {
		if a == "pagerank" || a == "cc" {
			out = append(out, a)
		}
	}
	if len(out) == 0 {
		out = []string{"pagerank", "cc"}
	}
	return out
}

// startInProcess builds an ephemeral generated-graph daemon in this
// process, with routing thresholds low enough that laptop graphs still
// spread mutations across H/O/L.
func startInProcess(o options) (*server.Server, error) {
	g := tufast.GeneratePowerLaw(o.genN, o.genN*o.genDeg, 2.1, o.seed).Undirect()
	budget := int(float64(o.batch*o.clients) * (o.duration.Seconds() + 1) * 200)
	if budget < 1_000_000 {
		budget = 1_000_000
	}
	// Eight standing slots at up to four vertex arrays each, matching
	// tufastd's sizing.
	standingWords := 8 * 4 * (g.NumVertices() + 8)
	sys := tufast.NewSystem(g, tufast.Options{
		SpaceWords: tufast.DynSpaceWords(g, budget) + standingWords,
		HMaxHint:   64,
		OMaxHint:   256,
	})
	srv := server.New(tufast.NewDynGraph(sys), server.Config{
		Addr:       "127.0.0.1:0",
		QueueDepth: o.queue,
		JobWorkers: o.workers,
	})
	if err := srv.Start(); err != nil {
		return nil, err
	}
	return srv, nil
}

// report aggregates the run.
type report struct {
	mu       sync.Mutex
	duration time.Duration

	readsDone, cacheHits, standingHits, rejected, deadlines, canceled, failed int
	writes, writeOps                                                          int
	httpErrors                                                                int

	readLat  []time.Duration
	writeLat []time.Duration
}

func (r *report) record(read bool, lat time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if read {
		r.readLat = append(r.readLat, lat)
	} else {
		r.writeLat = append(r.writeLat, lat)
	}
}

func pct(lat []time.Duration, q float64) time.Duration {
	if len(lat) == 0 {
		return 0
	}
	i := int(q * float64(len(lat)))
	if i >= len(lat) {
		i = len(lat) - 1
	}
	return lat[i]
}

func (r *report) print() {
	sort.Slice(r.readLat, func(i, j int) bool { return r.readLat[i] < r.readLat[j] })
	sort.Slice(r.writeLat, func(i, j int) bool { return r.writeLat[i] < r.writeLat[j] })
	secs := r.duration.Seconds()
	fmt.Printf("loadgen: %v run\n", r.duration.Round(time.Millisecond))
	fmt.Printf("reads:  %d jobs done (%.1f/s), %d cache hits, %d standing hits, %d rejected(429), %d deadline, %d canceled, %d failed\n",
		r.readsDone, float64(r.readsDone)/secs, r.cacheHits, r.standingHits, r.rejected, r.deadlines, r.canceled, r.failed)
	fmt.Printf("        latency p50=%v p90=%v p99=%v max=%v\n",
		pct(r.readLat, 0.50).Round(time.Microsecond), pct(r.readLat, 0.90).Round(time.Microsecond),
		pct(r.readLat, 0.99).Round(time.Microsecond), pct(r.readLat, 1).Round(time.Microsecond))
	fmt.Printf("writes: %d batches, %d edge ops (%.0f ops/s)\n",
		r.writes, r.writeOps, float64(r.writeOps)/secs)
	fmt.Printf("        latency p50=%v p90=%v p99=%v max=%v\n",
		pct(r.writeLat, 0.50).Round(time.Microsecond), pct(r.writeLat, 0.90).Round(time.Microsecond),
		pct(r.writeLat, 0.99).Round(time.Microsecond), pct(r.writeLat, 1).Round(time.Microsecond))
	if r.httpErrors > 0 {
		fmt.Printf("errors: %d unexpected HTTP failures\n", r.httpErrors)
	}
}

func run(o options) *report {
	rep := &report{}
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: o.clients}}
	var n int // vertex count, fetched once so ops stay in range
	var info struct {
		Vertices int `json:"vertices"`
	}
	if err := fetchJSON(client, o.url("/graph"), &info); err != nil || info.Vertices == 0 {
		fmt.Fprintln(os.Stderr, "tufast-loadgen: cannot reach daemon:", err)
		os.Exit(1)
	}
	n = info.Vertices

	deadline := time.Now().Add(o.duration)
	var interval time.Duration
	if o.rps > 0 {
		interval = time.Duration(float64(o.clients) / o.rps * float64(time.Second))
	}
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < o.clients; c++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(o.seed) + int64(id)*7919))
			algoIdx := id
			for time.Now().Before(deadline) {
				iterStart := time.Now()
				if rng.Float64() < o.writeFrac {
					doWrite(o, client, rng, n, rep)
				} else {
					doRead(o, client, rng, n, rep, o.algos[algoIdx%len(o.algos)])
					algoIdx++
				}
				if interval > 0 {
					if sleep := interval - time.Since(iterStart); sleep > 0 {
						time.Sleep(sleep)
					}
				}
			}
		}(c)
	}
	wg.Wait()
	rep.duration = time.Since(start)
	return rep
}

func doWrite(o options, client *http.Client, rng *rand.Rand, n int, rep *report) {
	type op struct {
		U   uint32 `json:"u"`
		V   uint32 `json:"v"`
		Del bool   `json:"del,omitempty"`
	}
	ops := make([]op, o.batch)
	for i := range ops {
		ops[i] = op{
			U:   uint32(rng.Intn(n)),
			V:   uint32(rng.Intn(n)),
			Del: rng.Float64() < o.delFrac,
		}
	}
	body, _ := json.Marshal(struct {
		Ops []op `json:"ops"`
	}{ops})
	start := time.Now()
	resp, err := client.Post(o.url("/edges"), "application/json", bytes.NewReader(body))
	if err != nil {
		rep.mu.Lock()
		rep.httpErrors++
		rep.mu.Unlock()
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	rep.mu.Lock()
	switch resp.StatusCode {
	case http.StatusOK:
		rep.writes++
		rep.writeOps += len(ops)
	case http.StatusTooManyRequests:
		// Mutation quota exhausted — a designed answer, not a failure.
		rep.rejected++
	default:
		rep.httpErrors++
	}
	rep.mu.Unlock()
	switch resp.StatusCode {
	case http.StatusOK:
		rep.record(false, time.Since(start))
	case http.StatusTooManyRequests:
		time.Sleep(10 * time.Millisecond) // honor backpressure
	}
}

func doRead(o options, client *http.Client, rng *rand.Rand, n int, rep *report, algo string) {
	req := map[string]any{"algo": algo, "timeout_ms": o.timeoutMS}
	if algo == "sssp" {
		req["source"] = rng.Intn(n)
	}
	if o.standing {
		req["standing"] = true
	}
	body, _ := json.Marshal(req)
	start := time.Now()
	resp, err := client.Post(o.url("/jobs"), "application/json", bytes.NewReader(body))
	if err != nil {
		rep.mu.Lock()
		rep.httpErrors++
		rep.mu.Unlock()
		return
	}
	var view struct {
		JobID    string `json:"job_id"`
		Status   string `json:"status"`
		Cached   bool   `json:"cached"`
		Standing bool   `json:"standing"`
	}
	dec := json.NewDecoder(resp.Body)
	decErr := dec.Decode(&view)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
		rep.mu.Lock()
		rep.rejected++
		rep.mu.Unlock()
		time.Sleep(10 * time.Millisecond) // honor backpressure
		return
	case resp.StatusCode == http.StatusOK && (view.Cached || view.Standing):
		rep.mu.Lock()
		rep.readsDone++
		if view.Standing {
			rep.standingHits++
		} else {
			rep.cacheHits++
		}
		rep.mu.Unlock()
		rep.record(true, time.Since(start))
		return
	case resp.StatusCode != http.StatusAccepted || decErr != nil:
		rep.mu.Lock()
		rep.httpErrors++
		rep.mu.Unlock()
		return
	}

	// Poll to a terminal state (closed loop: this request isn't done
	// until the job is).
	pollDeadline := time.Now().Add(time.Duration(2*o.timeoutMS) * time.Millisecond)
	for time.Now().Before(pollDeadline) {
		var st struct {
			Status string `json:"status"`
		}
		if err := fetchJSON(client, o.url("/jobs/"+view.JobID), &st); err != nil {
			rep.mu.Lock()
			rep.httpErrors++
			rep.mu.Unlock()
			return
		}
		switch st.Status {
		case server.StatusDone:
			rep.mu.Lock()
			rep.readsDone++
			rep.mu.Unlock()
			rep.record(true, time.Since(start))
			return
		case server.StatusDeadline:
			rep.mu.Lock()
			rep.deadlines++
			rep.mu.Unlock()
			return
		case server.StatusCanceled:
			rep.mu.Lock()
			rep.canceled++
			rep.mu.Unlock()
			return
		case server.StatusFailed:
			rep.mu.Lock()
			rep.failed++
			rep.mu.Unlock()
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	rep.mu.Lock()
	rep.httpErrors++ // poll timed out without a terminal state
	rep.mu.Unlock()
}

func fetchJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
