package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"tufast"
	"tufast/internal/obs"
)

// newTestDyn builds a small undirected graph with a runtime sized for
// streaming mutations and routing thresholds that spread the H/O/L mix
// at laptop scale.
func newTestDyn(t *testing.T, n, deg int) *tufast.DynGraph {
	t.Helper()
	g := tufast.GenerateUniform(n, deg, 42).Undirect()
	sys := tufast.NewSystem(g, tufast.Options{
		Threads:    4,
		SpaceWords: tufast.DynSpaceWords(g, 200_000),
		HMaxHint:   64,
		OMaxHint:   256,
	})
	return tufast.NewDynGraph(sys)
}

// startServer starts a server on a loopback port and registers a
// cleanup shutdown.
func startServer(t *testing.T, d *tufast.DynGraph, cfg Config) *Server {
	t.Helper()
	cfg.Addr = "127.0.0.1:0"
	s := New(d, cfg)
	if err := s.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s
}

func postJSON(t *testing.T, client *http.Client, url string, body any) (int, map[string]any, http.Header) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var out map[string]any
	_ = json.NewDecoder(resp.Body).Decode(&out)
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, out, resp.Header
}

func getJSON(t *testing.T, client *http.Client, url string) (int, map[string]any) {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	var out map[string]any
	_ = json.NewDecoder(resp.Body).Decode(&out)
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, out
}

// pollJob polls a job to a terminal state.
func pollJob(t *testing.T, client *http.Client, base, id string) map[string]any {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		code, view := getJSON(t, client, base+"/v1/jobs/"+id)
		if code != http.StatusOK {
			t.Fatalf("job %s: status %d", id, code)
		}
		if st, _ := view["status"].(string); terminal(st) {
			return view
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached a terminal state", id)
	return nil
}

// waitStatus polls until the job reports the wanted status.
func waitStatus(t *testing.T, client *http.Client, base, id, want string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		_, view := getJSON(t, client, base+"/v1/jobs/"+id)
		if st, _ := view["status"].(string); st == want {
			return
		}
		time.Sleep(1 * time.Millisecond)
	}
	t.Fatalf("job %s never reached status %q", id, want)
}

// waitGoroutines waits for the goroutine count to return to (near) the
// baseline, dumping stacks on failure.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		runtime.GC()
		if runtime.NumGoroutine() <= baseline+3 {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutine leak: %d running, baseline %d\n%s",
		runtime.NumGoroutine(), baseline, buf[:n])
}

// fetchMetrics decodes the /metrics document.
func fetchMetrics(t *testing.T, client *http.Client, base string) obs.Snapshot {
	t.Helper()
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	var snap obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("decode metrics: %v", err)
	}
	return snap
}

func serverMetrics(t *testing.T, client *http.Client, base string) *obs.ServerSnapshot {
	t.Helper()
	snap := fetchMetrics(t, client, base)
	if snap.Server == nil {
		t.Fatal("metrics snapshot has no server section")
	}
	return snap.Server
}

// TestMetricsCarryHTM: /metrics serves the emulated-HTM counts beside the
// outcomes they belong to. A standing job runs on its graph's own System
// (an ordinary one builds a System of its own), so after one the default
// graph's System has started hardware transactions; once a second graph
// has run one too, the served counts are its and the default graph's
// merged.
func TestMetricsCarryHTM(t *testing.T) {
	s := startServer(t, standingTestDyn(t, 500, 4), Config{JobWorkers: 1, QueueDepth: 8})
	base := "http://" + s.Addr()
	client := &http.Client{}
	defer client.CloseIdleConnections()
	// runJob runs a standing pagerank on the named graph to completion.
	runJob := func(graph string) {
		t.Helper()
		route := base + "/v1/graphs/" + graph + "/jobs"
		code, view, _ := postJSON(t, client, route, map[string]any{"algo": "pagerank", "standing": true, "timeout_ms": 60_000})
		if code != http.StatusAccepted {
			t.Fatalf("submit on %s: %d %v", graph, code, view)
		}
		id, _ := view["job_id"].(string)
		waitTenantStatus(t, client, base, graph, id, StatusDone)
	}

	runJob("default")
	if h := fetchMetrics(t, client, base).HTM; h.Starts == 0 || h.Commits == 0 {
		t.Fatalf("htm after one job = %+v, want hardware transactions started and committed", h)
	}

	code, out, _ := doJSON(t, client, http.MethodPut, base+"/v1/graphs/beta", map[string]any{"vertices": 200, "undirected": true})
	if code != http.StatusCreated {
		t.Fatalf("PUT graph beta: %d %v", code, out)
	}
	if code, _ := postTenantBatch(t, client, base, "beta", distinctBatch(rand.New(rand.NewSource(1)), 200, 60)); code != http.StatusOK {
		t.Fatalf("batch on beta: %d", code)
	}
	runJob("beta")
	served := fetchMetrics(t, client, base).HTM
	insts := s.instances()
	if len(insts) != 2 {
		t.Fatalf("%d graphs, want default and beta", len(insts))
	}
	var sum obs.Snapshot
	for _, g := range insts {
		own := g.sys.MetricsSnapshot().HTM
		if own.Starts == 0 {
			t.Errorf("graph %s started no hardware transaction", g.name)
		}
		sum = sum.Merge(g.sys.MetricsSnapshot())
	}
	if !reflect.DeepEqual(served, sum.HTM) {
		t.Fatalf("served htm %+v, the graphs' Systems merged %+v", served, sum.HTM)
	}
}

// TestServeConcurrentMixed is the end-to-end serving test: concurrent
// mutation batches and analytics jobs against one daemon, all under
// the race detector. Mutations must commit while jobs run, jobs must
// all reach terminal states, and the serving metrics must account for
// the traffic.
func TestServeConcurrentMixed(t *testing.T) {
	n, jobsEach := 2_000, 6
	if testing.Short() {
		n, jobsEach = 600, 3 // race-detected analytics dominate; keep -short fast
	}
	d := newTestDyn(t, n, 6)
	s := startServer(t, d, Config{JobWorkers: 2, JobThreads: 2, QueueDepth: 64})
	base := "http://" + s.Addr()
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}}
	defer client.CloseIdleConnections()

	const mutators, batches, batchOps = 3, 8, 50
	const readers = 3
	algos := []string{"degree", "pagerank", "cc", "sssp"}

	var wg sync.WaitGroup
	errs := make(chan string, mutators*batches+readers*jobsEach)
	for m := 0; m < mutators; m++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(id) * 131))
			for b := 0; b < batches; b++ {
				ops := make([]map[string]any, batchOps)
				for i := range ops {
					ops[i] = map[string]any{
						"u": rng.Intn(n), "v": rng.Intn(n),
						"del": rng.Float64() < 0.25,
					}
				}
				code, body, _ := postJSON(t, client, base+"/v1/edges", map[string]any{"ops": ops})
				if code != http.StatusOK {
					errs <- fmt.Sprintf("mutator %d: batch got %d: %v", id, code, body)
					return
				}
			}
		}(m)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for j := 0; j < jobsEach; j++ {
				req := map[string]any{"algo": algos[(id+j)%len(algos)], "timeout_ms": 20_000}
				code, view, _ := postJSON(t, client, base+"/v1/jobs", req)
				switch code {
				case http.StatusOK: // cache hit, done inline
					if cached, _ := view["cached"].(bool); !cached {
						errs <- fmt.Sprintf("reader %d: 200 without cached flag: %v", id, view)
					}
				case http.StatusAccepted:
					idStr, _ := view["job_id"].(string)
					final := pollJob(t, client, base, idStr)
					if st := final["status"]; st != StatusDone {
						errs <- fmt.Sprintf("reader %d: job %s finished %v: %v", id, idStr, st, final["error"])
					}
				default:
					errs <- fmt.Sprintf("reader %d: submit got %d: %v", id, code, view)
				}
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}

	sm := serverMetrics(t, client, base)
	if sm.MutationBatches != mutators*batches {
		t.Errorf("mutation batches = %d, want %d", sm.MutationBatches, mutators*batches)
	}
	if sm.MutationOps != mutators*batches*batchOps {
		t.Errorf("mutation ops = %d, want %d", sm.MutationOps, mutators*batches*batchOps)
	}
	if sm.Admitted == 0 {
		t.Error("no jobs admitted")
	}
	if got := sm.Completed + sm.CacheHits; got < uint64(readers*jobsEach) {
		t.Errorf("completed+cached = %d, want ≥ %d", got, readers*jobsEach)
	}
	if sm.Epoch == 0 {
		t.Error("mutation epoch never moved")
	}
	if sm.JobLatency.Count() == 0 {
		t.Error("job latency histogram empty")
	}
}

// TestServeBatchRouting checks that every batch applies owned, with or
// without a standing query registered: the graph's TM records no commit
// for a batch either way. The batch after registration deletes absent
// edges, so it changes nothing and no repair follows whose drain could
// add commits of its own; an effective batch after it must still reach
// the standing query.
func TestServeBatchRouting(t *testing.T) {
	const n = 300
	d := standingTestDyn(t, n, 4)
	// No GC pass: its transactions would land in the same commit counter.
	s := startServer(t, d, Config{JobWorkers: 1, QueueDepth: 8, GCInterval: -1})
	base := "http://" + s.Addr()
	client := &http.Client{}
	defer client.CloseIdleConnections()
	commits := func() uint64 { return s.MetricsSnapshot().Totals().Commits }
	batch := func(ops []map[string]any) {
		t.Helper()
		if code, body, _ := postJSON(t, client, base+"/v1/edges", map[string]any{"ops": ops}); code != http.StatusOK {
			t.Fatalf("batch: %d %v", code, body)
		}
	}
	rng := rand.New(rand.NewSource(3))
	randomOps := func(k int) []map[string]any {
		ops := make([]map[string]any, k)
		for i := range ops {
			ops[i] = map[string]any{"u": rng.Intn(n), "v": rng.Intn(n), "del": rng.Intn(4) == 0}
		}
		return ops
	}

	c0 := commits()
	for range 4 {
		batch(randomOps(40))
	}
	if c := commits(); c != c0 {
		t.Errorf("batches recorded %d TM commits, want 0", c-c0)
	}
	if sm := serverMetrics(t, client, base); sm.MutationBatches != 4 || sm.Epoch != 4 {
		t.Fatalf("after 4 batches: %d batches at epoch %d", sm.MutationBatches, sm.Epoch)
	}

	if code, view := submitStanding(t, client, base, "pagerank", nil); code != http.StatusAccepted {
		t.Fatalf("standing submit: %d %v", code, view)
	}
	waitStandingStable(t, client, base, 1)
	var noops []map[string]any
	for u := 0; u < n && len(noops) < 20; u++ {
		if v := (u + n/2) % n; !d.HasEdgeNow(uint32(u), uint32(v)) {
			noops = append(noops, map[string]any{"u": u, "v": v, "del": true})
		}
	}
	c1 := commits()
	batch(noops)
	if c := commits(); c != c1 {
		t.Errorf("with a standing query registered, a batch of %d ops recorded %d TM commits, want 0", len(noops), c-c1)
	}
	batch(randomOps(40))
	waitStandingStable(t, client, base, 1)
	sm := serverMetrics(t, client, base)
	if sm.MutationBatches != 6 || sm.Epoch != 5 {
		t.Fatalf("after 6 batches: %d batches at epoch %d, want 6 at 5", sm.MutationBatches, sm.Epoch)
	}
	if code, view := submitStanding(t, client, base, "pagerank", nil); code != http.StatusOK || uint64(view["epoch"].(float64)) != sm.Epoch {
		t.Errorf("standing read after the last batch: %d at epoch %v, want 200 at %d", code, view["epoch"], sm.Epoch)
	}
}

// TestCacheEpochInvalidation pins the epoch-tagged cache behavior: a
// repeated query between mutations is served from cache; an effective
// mutation batch bumps the epoch and invalidates it.
func TestCacheEpochInvalidation(t *testing.T) {
	d := newTestDyn(t, 500, 4)
	s := startServer(t, d, Config{JobWorkers: 1, QueueDepth: 8})
	base := "http://" + s.Addr()
	client := &http.Client{}
	defer client.CloseIdleConnections()

	submit := func() (int, map[string]any) {
		code, view, _ := postJSON(t, client, base+"/v1/jobs",
			map[string]any{"algo": "degree", "timeout_ms": 10_000})
		return code, view
	}

	code, view := submit()
	if code != http.StatusAccepted {
		t.Fatalf("first submit: %d %v", code, view)
	}
	id, _ := view["job_id"].(string)
	final := pollJob(t, client, base, id)
	if final["status"] != StatusDone {
		t.Fatalf("first job: %v", final)
	}

	code, view = submit()
	if code != http.StatusOK {
		t.Fatalf("repeat submit: got %d %v, want 200 cache hit", code, view)
	}
	if cached, _ := view["cached"].(bool); !cached {
		t.Fatalf("repeat submit not served from cache: %v", view)
	}

	// An effective insert (an edge not currently live) must bump the
	// epoch and invalidate the cache.
	u, v := findNonEdge(t, d)
	_, g0 := getJSON(t, client, base+"/v1/graph")
	code, body, _ := postJSON(t, client, base+"/v1/edges",
		map[string]any{"ops": []map[string]any{{"u": u, "v": v}}})
	if code != http.StatusOK {
		t.Fatalf("mutation: %d %v", code, body)
	}
	if ins, _ := body["inserted"].(float64); ins != 1 {
		t.Fatalf("mutation was a no-op: %v", body)
	}
	_, g1 := getJSON(t, client, base+"/v1/graph")
	if g1["epoch"].(float64) <= g0["epoch"].(float64) {
		t.Fatalf("epoch did not advance: %v -> %v", g0["epoch"], g1["epoch"])
	}

	code, view = submit()
	if code != http.StatusAccepted {
		t.Fatalf("post-mutation submit: got %d %v, want 202 (cache invalidated)", code, view)
	}
	pollJob(t, client, base, view["job_id"].(string))

	sm := serverMetrics(t, client, base)
	if sm.CacheHits != 1 {
		t.Errorf("cache hits = %d, want 1", sm.CacheHits)
	}
}

// findNonEdge returns a vertex pair with no live edge.
func findNonEdge(t *testing.T, d *tufast.DynGraph) (uint32, uint32) {
	t.Helper()
	n := uint32(d.NumVertices())
	for u := uint32(0); u < n; u++ {
		for v := u + 1; v < n; v++ {
			if !d.HasEdgeNow(u, v) {
				return u, v
			}
		}
	}
	t.Fatal("graph is complete")
	return 0, 0
}

// TestQueueFullSheds429 saturates a one-worker, one-slot queue and
// checks backpressure: the overflow submission gets 429 with
// Retry-After, repeated rejections do not grow goroutines, and the
// held jobs complete once released.
func TestQueueFullSheds429(t *testing.T) {
	gate := make(chan struct{})
	d := newTestDyn(t, 300, 4)
	s := startServer(t, d, Config{
		JobWorkers: 1, QueueDepth: 1,
		jobGate: func(ctx context.Context, _ *Job) {
			select {
			case <-gate:
			case <-ctx.Done():
			}
		},
	})
	base := "http://" + s.Addr()
	client := &http.Client{}
	defer client.CloseIdleConnections()

	submit := func(algo string) (int, map[string]any, http.Header) {
		return postJSON(t, client, base+"/v1/jobs",
			map[string]any{"algo": algo, "timeout_ms": 30_000})
	}

	// Job A occupies the single worker (blocked in the gate)...
	code, a, _ := submit("degree")
	if code != http.StatusAccepted {
		t.Fatalf("job A: %d %v", code, a)
	}
	waitStatus(t, client, base, a["job_id"].(string), StatusRunning)
	// ...job B fills the single queue slot (different params so the
	// cache cannot serve it)...
	code, b, _ := submit("cc")
	if code != http.StatusAccepted {
		t.Fatalf("job B: %d %v", code, b)
	}

	// ...and every further submission is shed with 429 + Retry-After,
	// without goroutine growth.
	runtime.GC()
	baseline := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		code, body, hdr := submit("pagerank")
		if code != http.StatusTooManyRequests {
			t.Fatalf("saturated submit %d: got %d %v, want 429", i, code, body)
		}
		if hdr.Get("Retry-After") == "" {
			t.Fatal("429 without Retry-After header")
		}
	}
	client.CloseIdleConnections()
	if grown := runtime.NumGoroutine() - baseline; grown > 5 {
		t.Errorf("goroutines grew by %d under saturation", grown)
	}

	close(gate)
	if final := pollJob(t, client, base, a["job_id"].(string)); final["status"] != StatusDone {
		t.Errorf("job A after release: %v", final)
	}
	if final := pollJob(t, client, base, b["job_id"].(string)); final["status"] != StatusDone {
		t.Errorf("job B after release: %v", final)
	}

	sm := serverMetrics(t, client, base)
	if sm.Rejected != 20 {
		t.Errorf("rejected = %d, want 20", sm.Rejected)
	}
	if sm.QueueCap != 1 {
		t.Errorf("queue cap = %d, want 1", sm.QueueCap)
	}
}

// TestJobDeadlineExceeded pins deadline propagation: a job whose
// deadline fires mid-run surfaces context.DeadlineExceeded and is
// classified as deadline_exceeded, feeding the matching counter.
func TestJobDeadlineExceeded(t *testing.T) {
	d := newTestDyn(t, 300, 4)
	s := startServer(t, d, Config{
		JobWorkers: 1, QueueDepth: 4,
		// Hold every job until its deadline context fires, so the
		// outcome is deterministic regardless of machine speed.
		jobGate: func(ctx context.Context, _ *Job) { <-ctx.Done() },
	})
	base := "http://" + s.Addr()
	client := &http.Client{}
	defer client.CloseIdleConnections()

	code, view, _ := postJSON(t, client, base+"/v1/jobs",
		map[string]any{"algo": "pagerank", "timeout_ms": 50})
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %v", code, view)
	}
	final := pollJob(t, client, base, view["job_id"].(string))
	if final["status"] != StatusDeadline {
		t.Fatalf("status = %v, want %s (%v)", final["status"], StatusDeadline, final["error"])
	}
	if errStr, _ := final["error"].(string); !strings.Contains(errStr, context.DeadlineExceeded.Error()) {
		t.Errorf("error %q does not surface context.DeadlineExceeded", errStr)
	}
	sm := serverMetrics(t, client, base)
	if sm.DeadlineExceeded == 0 {
		t.Error("deadline_exceeded counter did not move")
	}
}

// TestJobBodyLimit pins the bound on a job request's body: 1 MiB is
// refused with 413 instead of being decoded, and a normal request
// after it is still admitted.
func TestJobBodyLimit(t *testing.T) {
	d := newTestDyn(t, 200, 3)
	s := startServer(t, d, Config{JobWorkers: 1, QueueDepth: 4})
	base := "http://" + s.Addr()
	client := &http.Client{}
	defer client.CloseIdleConnections()

	code, body, _ := postJSON(t, client, base+"/v1/jobs",
		map[string]any{"algo": "degree", "pad": strings.Repeat("x", 1<<20)})
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("1 MiB job request: %d %v, want 413", code, body)
	}
	code, view, _ := postJSON(t, client, base+"/v1/jobs",
		map[string]any{"algo": "degree", "timeout_ms": 60_000})
	if code != http.StatusAccepted {
		t.Fatalf("normal job request: %d %v, want 202", code, view)
	}
}

// TestDrainClean pins graceful shutdown: admission flips to 503,
// in-flight jobs are finished or cancelled within the grace period,
// and no goroutine survives the drain.
func TestDrainClean(t *testing.T) {
	runtime.GC()
	baseline := runtime.NumGoroutine()

	gate := make(chan struct{})
	d := newTestDyn(t, 300, 4)
	cfg := Config{
		Addr:       "127.0.0.1:0",
		JobWorkers: 1, QueueDepth: 4,
		DrainGrace: 200 * time.Millisecond,
		jobGate: func(ctx context.Context, _ *Job) {
			select {
			case <-gate:
			case <-ctx.Done():
			}
		},
	}
	s := New(d, cfg)
	if err := s.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	base := "http://" + s.Addr()
	client := &http.Client{}

	// One running job (held at the gate) and one queued job.
	code, a, _ := postJSON(t, client, base+"/v1/jobs", map[string]any{"algo": "degree", "timeout_ms": 60_000})
	if code != http.StatusAccepted {
		t.Fatalf("job A: %d %v", code, a)
	}
	waitStatus(t, client, base, a["job_id"].(string), StatusRunning)
	code, b, _ := postJSON(t, client, base+"/v1/jobs", map[string]any{"algo": "cc", "timeout_ms": 60_000})
	if code != http.StatusAccepted {
		t.Fatalf("job B: %d %v", code, b)
	}

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(ctx)
	}()

	// While draining (before the HTTP listener closes), new work is
	// refused and health reports draining.
	waitDraining := time.Now().Add(5 * time.Second)
	for !s.draining.Load() && time.Now().Before(waitDraining) {
		time.Sleep(time.Millisecond)
	}
	if code, _, _ := postJSON(t, client, base+"/v1/jobs", map[string]any{"algo": "degree"}); code != http.StatusServiceUnavailable {
		t.Errorf("submit while draining: got %d, want 503", code)
	}
	if code, _, _ := postJSON(t, client, base+"/v1/edges",
		map[string]any{"ops": []map[string]any{{"u": 0, "v": 1}}}); code != http.StatusServiceUnavailable {
		t.Errorf("mutation while draining: got %d, want 503", code)
	}
	if code, _ := getJSON(t, client, base+"/healthz"); code != http.StatusServiceUnavailable {
		t.Errorf("healthz while draining: got %d, want 503", code)
	}

	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	// The grace period (200ms) elapsed with the gate held, so both
	// jobs must have been cancelled — visible as terminal states.
	for _, j := range []map[string]any{a, b} {
		job := s.def.jobs.get(j["job_id"].(string))
		if job == nil {
			t.Fatal("job vanished during drain")
		}
		if v := job.view(); v.Status != StatusCanceled {
			t.Errorf("job %s after drain: %q, want %s", v.JobID, v.Status, StatusCanceled)
		}
	}
	if sm := s.MetricsSnapshot().Server; sm.Canceled != 2 {
		t.Errorf("canceled = %d, want 2", sm.Canceled)
	}

	client.CloseIdleConnections()
	waitGoroutines(t, baseline)
}

// TestJobTableRetention pins the bounded-retention contract: terminal
// jobs beyond the MaxJobs bound are evicted oldest-first, so sustained
// submission cannot grow a long-running daemon's job table without
// limit; evicted ids answer as unknown (404 at the handler).
func TestJobTableRetention(t *testing.T) {
	var tbl jobTable
	var ids []string
	for i := 0; i < 8; i++ {
		j := tbl.add(JobRequest{Algo: "degree"})
		ids = append(ids, j.ID)
		tbl.retire(j.ID, 3)
	}
	for i, id := range ids {
		got := tbl.get(id)
		if i < 5 && got != nil {
			t.Errorf("job %s (finished #%d) survived retention with keep=3", id, i)
		}
		if i >= 5 && got == nil {
			t.Errorf("job %s (finished #%d) evicted despite being within keep=3", id, i)
		}
	}
}

// TestNormalizeCanonicalizesCacheKey pins that normalize zeroes the
// parameters the selected algo ignores, so equivalent requests share
// one cache slot (a stray damping on a cc request must not split the
// cache).
func TestNormalizeCanonicalizesCacheKey(t *testing.T) {
	cfg := Config{}.withDefaults()
	key := func(req JobRequest) string {
		t.Helper()
		if err := req.normalize(cfg, 100); err != nil {
			t.Fatalf("normalize %+v: %v", req, err)
		}
		return req.cacheKey()
	}
	if a, b := key(JobRequest{Algo: "cc"}), key(JobRequest{Algo: "cc", Damping: 0.5, Eps: 1, Source: 7}); a != b {
		t.Errorf("cc keys differ: %q vs %q", a, b)
	}
	if a, b := key(JobRequest{Algo: "sssp", Source: 3}), key(JobRequest{Algo: "sssp", Source: 3, Damping: 0.5}); a != b {
		t.Errorf("sssp keys differ: %q vs %q", a, b)
	}
	if a, b := key(JobRequest{Algo: "pagerank"}), key(JobRequest{Algo: "pagerank", Source: 9}); a != b {
		t.Errorf("pagerank keys differ: %q vs %q", a, b)
	}
	// Parameters the algo does use still distinguish keys.
	if a, b := key(JobRequest{Algo: "sssp", Source: 3}), key(JobRequest{Algo: "sssp", Source: 4}); a == b {
		t.Errorf("distinct sssp sources share key %q", a)
	}
}

// TestViewEpochOnlyWhenTerminal pins that a job view exposes its epoch
// only once the job is terminal: j.epoch is assigned at completion, so
// reporting it earlier would surface a misleading 0 (a valid epoch).
func TestViewEpochOnlyWhenTerminal(t *testing.T) {
	j := &Job{ID: "j-1", Req: JobRequest{Algo: "degree"}}
	for _, st := range []string{StatusQueued, StatusRunning} {
		j.state.Store(&jobState{status: st})
		if v := j.view(); v.Epoch != nil {
			t.Errorf("status %s: view exposes epoch %d", st, *v.Epoch)
		}
	}
	for _, st := range []string{StatusDone, StatusFailed, StatusDeadline, StatusCanceled} {
		j.state.Store(&jobState{status: st})
		if v := j.view(); v.Epoch == nil {
			t.Errorf("status %s: view hides epoch", st)
		}
	}
}

// TestOlderEpochResultKeepsNewerCached pins the epoch cache's rule that
// only newer state is published: job A compacts at epoch e and is held
// there while a mutation moves the graph to e+1 and job B completes at
// e+1. A's result, finished last but computed at e, must be dropped
// rather than evict B's, so resubmitting B is still a cache hit.
func TestOlderEpochResultKeepsNewerCached(t *testing.T) {
	d := newTestDyn(t, 300, 4)
	e0 := d.Epoch()
	entered, release := make(chan struct{}, 1), make(chan struct{})
	cfg := Config{JobWorkers: 2, QueueDepth: 4, GCInterval: -1}
	cfg.compactGate = func(epoch uint64) {
		if epoch == e0 {
			entered <- struct{}{}
			<-release
		}
	}
	s := startServer(t, d, cfg)
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }
	t.Cleanup(unblock) // runs before startServer's shutdown
	base := "http://" + s.Addr()
	client := &http.Client{}
	defer client.CloseIdleConnections()
	submit := func(algo string) (int, map[string]any) {
		code, view, _ := postJSON(t, client, base+"/v1/jobs", map[string]any{"algo": algo, "timeout_ms": 30_000})
		return code, view
	}

	code, a := submit("degree")
	if code != http.StatusAccepted {
		t.Fatalf("job A: %d %v", code, a)
	}
	<-entered // A holds its view at e0
	u, v := findNonEdge(t, d)
	if code, body, _ := postJSON(t, client, base+"/v1/edges",
		map[string]any{"ops": []map[string]any{{"u": u, "v": v}}}); code != http.StatusOK || body["inserted"] != 1.0 {
		t.Fatalf("mutation: %d %v", code, body)
	}
	code, b := submit("cc")
	if code != http.StatusAccepted {
		t.Fatalf("job B: %d %v", code, b)
	}
	if final := pollJob(t, client, base, b["job_id"].(string)); final["status"] != StatusDone || final["epoch"] != float64(e0+1) {
		t.Fatalf("job B: %v, want done at epoch %d", final, e0+1)
	}
	unblock()
	if final := pollJob(t, client, base, a["job_id"].(string)); final["status"] != StatusDone || final["epoch"] != float64(e0) {
		t.Fatalf("job A: %v, want done at epoch %d", final, e0)
	}

	code, view := submit("cc")
	if cached, _ := view["cached"].(bool); code != http.StatusOK || !cached {
		t.Fatalf("resubmitted B: %d %v, want 200 cached (the older result evicted the newer)", code, view)
	}
}

// TestInflightQuotaExactUnderConcurrentAdmission pins that the in-flight
// quota is a bound, not a hint: with the pool held, 32 simultaneous
// submissions to a graph allowed two jobs admit exactly two.
func TestInflightQuotaExactUnderConcurrentAdmission(t *testing.T) {
	gate := make(chan struct{})
	s := startServer(t, newTestDyn(t, 200, 4), Config{
		JobWorkers: 2, QueueDepth: 64,
		jobGate: func(ctx context.Context, _ *Job) {
			select {
			case <-gate:
			case <-ctx.Done():
			}
		},
	})
	t.Cleanup(func() { close(gate) }) // runs before startServer's shutdown
	base := "http://" + s.Addr()
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 32}}
	defer client.CloseIdleConnections()
	putGraph(t, client, base, "capped", map[string]any{
		"vertices": 50, "undirected": true,
		"quotas": map[string]any{"max_inflight_jobs": 2},
	})

	const submitters = 32
	codes := make(chan int, submitters)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < submitters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			resp, err := client.Post(base+"/v1/graphs/capped/jobs", "application/json",
				strings.NewReader(`{"algo":"degree","timeout_ms":30000}`))
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			codes <- resp.StatusCode
		}()
	}
	close(start)
	wg.Wait()
	close(codes)
	accepted := 0
	for code := range codes {
		switch code {
		case http.StatusAccepted:
			accepted++
		case http.StatusTooManyRequests:
		default:
			t.Errorf("submission answered %d, want 202 or 429", code)
		}
	}
	if accepted != 2 {
		t.Errorf("%d of %d submissions admitted under max_inflight_jobs 2", accepted, submitters)
	}
}

// TestShutdownRacingSubmitters runs Shutdown while 16 clients keep
// submitting: no submission may reach the queue after it closes (a send
// on a closed channel panics the process), every job answered 202 ends
// in a terminal status, and no goroutine outlives the server.
func TestShutdownRacingSubmitters(t *testing.T) {
	runtime.GC()
	baseline := runtime.NumGoroutine()
	s := New(newTestDyn(t, 300, 4), Config{
		Addr: "127.0.0.1:0", JobWorkers: 2, JobThreads: 2, QueueDepth: 8,
		DrainGrace: 100 * time.Millisecond, MaxJobs: 1 << 16,
	})
	if err := s.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	base := "http://" + s.Addr()
	// One connection per request: a kept-alive transport dials spares
	// that may never carry a request, and the listener's graceful
	// shutdown waits five seconds for each such connection.
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}

	const submitters = 16
	var (
		mu       sync.Mutex
		accepted []string
		wg       sync.WaitGroup
	)
	for i := 0; i < submitters; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for k := 0; ; k++ {
				body := fmt.Sprintf(`{"algo":"degree","top_k":%d}`, 1+(id*7+k)%100)
				resp, err := client.Post(base+"/v1/jobs", "application/json", strings.NewReader(body))
				if err != nil {
					return // the listener is gone
				}
				var v jobView
				_ = json.NewDecoder(resp.Body).Decode(&v)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusAccepted:
					mu.Lock()
					accepted = append(accepted, v.JobID)
					mu.Unlock()
				case http.StatusOK, http.StatusTooManyRequests:
				default:
					return // draining
				}
			}
		}(i)
	}
	admitted := func() int {
		mu.Lock()
		defer mu.Unlock()
		return len(accepted)
	}
	for deadline := time.Now().Add(10 * time.Second); admitted() < 8 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	wg.Wait()

	for _, id := range accepted {
		j := s.def.jobs.get(id)
		if j == nil {
			t.Fatalf("accepted job %s vanished", id)
		}
		if st := j.view().Status; !terminal(st) {
			t.Errorf("accepted job %s is %q after shutdown", id, st)
		}
	}
	client.CloseIdleConnections()
	waitGoroutines(t, baseline)
}
