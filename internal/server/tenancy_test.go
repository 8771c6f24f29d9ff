package server

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"tufast"
	"tufast/internal/dyngraph"
	"tufast/internal/graph"
	"tufast/internal/obs"
)

// The tenancy suite: named graphs must be oracle-exact isolated (one
// tenant's mutations never touch another's topology or epoch), quotas
// must shed a noisy tenant with 429s while its neighbors stay
// unaffected, and a multi-graph daemon must survive a kill with every
// graph recovering independently through the crash-matrix harness.

// doJSON issues method+body and decodes the JSON response.
func doJSON(t *testing.T, client *http.Client, method, url string, body any) (int, map[string]any, http.Header) {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		rd = bytes.NewReader(raw)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatalf("request: %v", err)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	out := make(map[string]any)
	_ = json.NewDecoder(resp.Body).Decode(&out)
	return resp.StatusCode, out, resp.Header
}

// putGraph creates a named graph and fails the test on anything but
// 201.
func putGraph(t *testing.T, client *http.Client, base, name string, spec map[string]any) {
	t.Helper()
	code, out, _ := doJSON(t, client, http.MethodPut, base+"/v1/graphs/"+name, spec)
	if code != http.StatusCreated {
		t.Fatalf("PUT graph %q: %d %v", name, code, out)
	}
}

// postTenantBatch posts one mutation batch on a named graph's route,
// returning the HTTP status and (on 200) the ack epoch.
func postTenantBatch(t *testing.T, client *http.Client, base, name string, ops []edgeOp) (int, uint64) {
	t.Helper()
	code, out, _ := postJSON(t, client, base+"/v1/graphs/"+name+"/edges", edgeBatch{Ops: ops})
	var epoch uint64
	if e, ok := out["epoch"].(float64); ok {
		epoch = uint64(e)
	}
	return code, epoch
}

// waitTenantStatus polls a named graph's job until it reports the
// wanted status.
func waitTenantStatus(t *testing.T, client *http.Client, base, name, id, want string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		_, view := getJSON(t, client, base+"/v1/graphs/"+name+"/jobs/"+id)
		if st, _ := view["status"].(string); st == want {
			return
		}
		time.Sleep(1 * time.Millisecond)
	}
	t.Fatalf("graph %s job %s never reached status %q", name, id, want)
}

// graphMetrics fetches one graph's section of the /metrics document.
func graphMetrics(t *testing.T, client *http.Client, base, name string) *obs.ServerSnapshot {
	t.Helper()
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	var snap struct {
		Graphs map[string]*obs.ServerSnapshot `json:"graphs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("decode metrics: %v", err)
	}
	sv := snap.Graphs[name]
	if sv == nil {
		t.Fatalf("metrics: no section for graph %q", name)
	}
	return sv
}

// assertTenantTopology checks g's live topology equals base plus the
// acked batches replayed in commit order — the same oracle the crash
// matrix uses, per tenant.
func assertTenantTopology(t *testing.T, g *graphInstance, base *tufast.Graph, acked []ackedBatch) {
	t.Helper()
	sort.Slice(acked, func(i, j int) bool { return acked[i].epoch < acked[j].epoch })
	st := &dyngraph.Stream{N: base.NumVertices(), Undirected: base.Undirected()}
	for u := uint32(0); int(u) < base.NumVertices(); u++ {
		for _, v := range base.Neighbors(u) {
			if v >= u {
				st.Base = append(st.Base, graph.Edge{U: u, V: v})
			}
		}
	}
	tick := uint64(1)
	for _, b := range acked {
		for _, op := range b.ops {
			st.Ops = append(st.Ops, dyngraph.Op{Time: tick, U: op.U, V: op.V, Del: op.Del})
			tick++
		}
	}
	want, err := graph.Build(st.N, st.ReplayEdges(), graph.BuildOptions{Symmetrize: base.Undirected()})
	if err != nil {
		t.Fatalf("oracle build: %v", err)
	}
	view := g.dyn.View()
	defer view.Close()
	got, err := view.Compact()
	if err != nil {
		t.Fatalf("compact %q: %v", g.name, err)
	}
	for u := uint32(0); int(u) < want.NumVertices(); u++ {
		gn, wn := got.Neighbors(u), want.Neighbors(u)
		if len(gn) != len(wn) {
			t.Fatalf("graph %q vertex %d: degree %d, oracle %d", g.name, u, len(gn), len(wn))
		}
		for i := range gn {
			if gn[i] != wn[i] {
				t.Fatalf("graph %q vertex %d neighbor %d: got %d, oracle %d", g.name, u, i, gn[i], wn[i])
			}
		}
	}
}

// emptyTenantBase mirrors the spec {"vertices": n, "undirected": true}.
func emptyTenantBase(t *testing.T, n int) *tufast.Graph {
	t.Helper()
	g, err := tufast.BuildGraph(n, nil, true)
	if err != nil {
		t.Fatalf("empty base: %v", err)
	}
	return g
}

// TestTenancyIsolationOracle runs two tenants' mutation planes
// concurrently and checks complete isolation: each tenant's topology
// is oracle-exact over its own acked batches alone, epochs advance
// independently, and job IDs do not leak across graphs.
func TestTenancyIsolationOracle(t *testing.T) {
	const n = 120
	s := startServer(t, newTestDyn(t, 200, 4), Config{})
	base := "http://" + s.Addr()
	client := &http.Client{}
	defer client.CloseIdleConnections()

	for _, name := range []string{"alpha", "beta"} {
		putGraph(t, client, base, name, map[string]any{"vertices": n, "undirected": true})
	}

	const rounds = 25
	acked := map[string][]ackedBatch{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, name := range []string{"alpha", "beta"} {
		wg.Add(1)
		go func(name string, seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < rounds; i++ {
				ops := distinctBatch(rng, n, 30)
				code, epoch := postTenantBatch(t, client, base, name, ops)
				if code != http.StatusOK {
					t.Errorf("graph %q batch %d: status %d", name, i, code)
					return
				}
				mu.Lock()
				acked[name] = append(acked[name], ackedBatch{epoch: epoch, ops: ops})
				mu.Unlock()
			}
		}(name, int64(len(name)*7919))
	}
	wg.Wait()
	if t.Failed() {
		t.Fatal("tenant mutation round failed")
	}

	for _, name := range []string{"alpha", "beta"} {
		g := s.lookupGraph(name)
		if g == nil {
			t.Fatalf("graph %q vanished", name)
		}
		assertTenantTopology(t, g, emptyTenantBase(t, n), acked[name])
	}
	// The default graph never saw a batch: its epoch must still be 0.
	if e := s.def.dyn.Epoch(); e != 0 {
		t.Errorf("default graph epoch moved to %d under tenant traffic", e)
	}

	// Jobs are tenant-scoped: a job admitted on alpha is invisible to
	// beta and to the legacy (default) route.
	code, job, _ := postJSON(t, client, base+"/v1/graphs/alpha/jobs", map[string]any{"algo": "degree"})
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("alpha job: %d %v", code, job)
	}
	if id, ok := job["job_id"].(string); ok {
		waitTenantStatus(t, client, base, "alpha", id, StatusDone)
		if c, _ := getJSON(t, client, base+"/v1/graphs/beta/jobs/"+id); c != http.StatusNotFound {
			t.Errorf("beta sees alpha's job: %d", c)
		}
		if c, _ := getJSON(t, client, base+"/v1/jobs/"+id); c != http.StatusNotFound {
			t.Errorf("default graph sees alpha's job: %d", c)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestTenancyQuotaNoisyNeighbor saturates a quota'd tenant and checks
// the quotas shed it — 429 with a per-tenant Retry-After on both the
// job and mutation planes — while an unquota'd victim on the same
// daemon is served throughout, and only the noisy tenant's
// quota_rejected counter moves.
func TestTenancyQuotaNoisyNeighbor(t *testing.T) {
	gate := make(chan struct{})
	s := startServer(t, newTestDyn(t, 200, 4), Config{
		JobWorkers: 2, QueueDepth: 16,
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

	putGraph(t, client, base, "noisy", map[string]any{
		"vertices": 80, "undirected": true,
		"quotas": map[string]any{
			"max_inflight_jobs":   1,
			"mutation_batch_rate": 0.5, // one token, sub-second refill far away
		},
	})
	putGraph(t, client, base, "victim", map[string]any{"vertices": 80, "undirected": true})

	// Job plane: the first noisy job takes its whole in-flight quota…
	code, j1, _ := postJSON(t, client, base+"/v1/graphs/noisy/jobs",
		map[string]any{"algo": "degree", "timeout_ms": 30_000})
	if code != http.StatusAccepted {
		t.Fatalf("noisy job 1: %d %v", code, j1)
	}
	// …so every further submission sheds 429 + Retry-After without
	// consuming shared-queue capacity.
	for i, algo := range []string{"cc", "pagerank", "cc", "pagerank"} {
		code, body, hdr := postJSON(t, client, base+"/v1/graphs/noisy/jobs",
			map[string]any{"algo": algo, "timeout_ms": 30_000, "top_k": i + 1})
		if code != http.StatusTooManyRequests {
			t.Fatalf("noisy job %d: got %d %v, want 429", i+2, code, body)
		}
		if hdr.Get("Retry-After") == "" {
			t.Fatal("quota 429 without Retry-After")
		}
	}
	// The victim is untouched: its submissions admit normally.
	var victimJobs []string
	for i, algo := range []string{"degree", "cc", "pagerank"} {
		code, body, _ := postJSON(t, client, base+"/v1/graphs/victim/jobs",
			map[string]any{"algo": algo, "timeout_ms": 30_000})
		if code != http.StatusAccepted {
			t.Fatalf("victim job %d: got %d %v, want 202", i+1, code, body)
		}
		victimJobs = append(victimJobs, body["job_id"].(string))
	}

	// Mutation plane: noisy's single token spends on the first batch,
	// the second sheds with a Retry-After telling it when to come back.
	ops := []edgeOp{{U: 1, V: 2}}
	if code, _ := postTenantBatch(t, client, base, "noisy", ops); code != http.StatusOK {
		t.Fatalf("noisy batch 1: %d", code)
	}
	code, body, hdr := postJSON(t, client, base+"/v1/graphs/noisy/edges", edgeBatch{Ops: []edgeOp{{U: 2, V: 3}}})
	if code != http.StatusTooManyRequests {
		t.Fatalf("noisy batch 2: got %d %v, want 429", code, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("rate-quota 429 without Retry-After")
	}
	// Victim batches flow freely the whole time.
	for i := 0; i < 5; i++ {
		if code, _ := postTenantBatch(t, client, base, "victim", []edgeOp{{U: uint32(i), V: uint32(i + 10)}}); code != http.StatusOK {
			t.Fatalf("victim batch %d: %d", i, code)
		}
	}

	close(gate)
	for _, id := range victimJobs {
		waitTenantStatus(t, client, base, "victim", id, StatusDone)
	}
	waitTenantStatus(t, client, base, "noisy", j1["job_id"].(string), StatusDone)

	if nm := graphMetrics(t, client, base, "noisy"); nm.QuotaRejected < 5 {
		t.Errorf("noisy quota_rejected = %d, want ≥ 5 (4 jobs + 1 batch)", nm.QuotaRejected)
	}
	if vm := graphMetrics(t, client, base, "victim"); vm.QuotaRejected != 0 {
		t.Errorf("victim quota_rejected = %d, want 0", vm.QuotaRejected)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestTenancyCrashRecoveryThreeGraphs kills a daemon hosting three
// named durable graphs (plus the default) mid-flight and checks each
// recovers independently: oracle-exact topology per tenant, epochs
// resuming exactly after each tenant's last ack, and a partial-create
// directory (no GRAPH.json — the crash window before the spec landed)
// swept rather than served.
func TestTenancyCrashRecoveryThreeGraphs(t *testing.T) {
	dir := t.TempDir()
	const n = 150
	names := []string{"tenant-a", "tenant-b", "tenant-c"}

	s := startDurableServer(t, dir, DurabilityConfig{})
	base := "http://" + s.Addr()
	client := &http.Client{}
	defer client.CloseIdleConnections()

	for _, name := range names {
		putGraph(t, client, base, name, map[string]any{"vertices": n, "undirected": true})
	}

	rng := rand.New(rand.NewSource(99))
	acked := map[string][]ackedBatch{}
	var defAcked []ackedBatch
	for round := 0; round < 12; round++ {
		for _, name := range names {
			ops := distinctBatch(rng, n, 20)
			code, epoch := postTenantBatch(t, client, base, name, ops)
			if code != http.StatusOK {
				t.Fatalf("graph %q round %d: status %d", name, round, code)
			}
			acked[name] = append(acked[name], ackedBatch{epoch: epoch, ops: ops})
		}
		// The default graph rides the legacy route, as a PR 9 client.
		ops := distinctBatch(rng, 200, 20)
		code, epoch := postBatch(t, client, base, ops)
		if code != http.StatusOK {
			t.Fatalf("default round %d: status %d", round, code)
		}
		defAcked = append(defAcked, ackedBatch{epoch: epoch, ops: ops})
	}
	// Mid-life checkpoint on one tenant so its recovery exercises
	// checkpoint-plus-tail, not pure replay.
	if code, out, _ := doJSON(t, client, http.MethodPost, base+"/v1/graphs/tenant-b/checkpoint", nil); code != http.StatusOK {
		t.Fatalf("tenant-b checkpoint: %d %v", code, out)
	}

	// A create that died before its spec landed: directory exists,
	// GRAPH.json absent. Recovery must sweep it.
	if err := os.MkdirAll(filepath.Join(dir, "graphs", "half-born"), 0o755); err != nil {
		t.Fatal(err)
	}

	lastEpoch := map[string]uint64{}
	for _, name := range names {
		lastEpoch[name] = s.lookupGraph(name).dyn.Epoch()
	}
	crashServer(s)

	s2 := startDurableServer(t, dir, DurabilityConfig{})
	defer shutdownServer(t, s2)
	base2 := "http://" + s2.Addr()

	if got := s2.NamedGraphs(); len(got) != len(names) {
		t.Fatalf("recovered graphs %v, want %v", got, names)
	}
	if s2.lookupGraph("half-born") != nil {
		t.Error("partial-create directory was recovered as a graph")
	}
	if _, err := os.Stat(filepath.Join(dir, "graphs", "half-born")); !os.IsNotExist(err) {
		t.Errorf("partial-create directory not swept: %v", err)
	}

	for _, name := range names {
		g := s2.lookupGraph(name)
		if g == nil {
			t.Fatalf("graph %q did not recover", name)
		}
		if e := g.dyn.Epoch(); e != lastEpoch[name] {
			t.Errorf("graph %q epoch %d after recovery, want %d", name, e, lastEpoch[name])
		}
		assertTenantTopology(t, g, emptyTenantBase(t, n), acked[name])
	}
	assertRecoveredTopology(t, s2, defAcked)

	// Epochs stay monotonic across the restart: one more acked batch
	// per tenant, each bumping exactly past its own recovery point.
	for _, name := range names {
		code, epoch := postTenantBatch(t, client, base2, name, distinctBatch(rng, n, 5))
		if code != http.StatusOK {
			t.Fatalf("post-recovery batch on %q: %d", name, code)
		}
		if epoch <= lastEpoch[name] {
			t.Errorf("graph %q post-recovery epoch %d, want > %d", name, epoch, lastEpoch[name])
		}
	}

	// DELETE removes the tenant durably: gone from the registry now,
	// gone from disk, and still gone after another reboot.
	if code, out, _ := doJSON(t, client, http.MethodDelete, base2+"/v1/graphs/tenant-b", nil); code != http.StatusOK {
		t.Fatalf("delete tenant-b: %d %v", code, out)
	}
	if c, _ := getJSON(t, client, base2+"/v1/graphs/tenant-b/graph"); c != http.StatusNotFound {
		t.Errorf("deleted graph still served: %d", c)
	}
	if _, err := os.Stat(filepath.Join(dir, "graphs", "tenant-b")); !os.IsNotExist(err) {
		t.Errorf("deleted graph's directory survives: %v", err)
	}
	shutdownServer(t, s2)

	s3 := startDurableServer(t, dir, DurabilityConfig{})
	defer shutdownServer(t, s3)
	if got := s3.NamedGraphs(); len(got) != 2 {
		t.Fatalf("after delete+reboot: graphs %v, want [tenant-a tenant-c]", got)
	}
	for _, name := range []string{"tenant-a", "tenant-c"} {
		if s3.lookupGraph(name) == nil {
			t.Errorf("graph %q lost across delete+reboot", name)
		}
	}
}

// TestGraphPutBodyLimit: a create body one byte over maxGraphSpecBody is
// refused with 413 before anything is reserved or written — no graph, no
// directory — and the name stays free: a body of exactly the limit
// creates it.
func TestGraphPutBodyLimit(t *testing.T) {
	dir := t.TempDir()
	s := startDurableServer(t, dir, DurabilityConfig{})
	defer shutdownServer(t, s)
	base := "http://" + s.Addr()
	client := &http.Client{}
	defer client.CloseIdleConnections()

	// A spec of size bytes: unknown fields are ignored, so a pad field
	// sizes it.
	spec := func(size int) map[string]any {
		empty, _ := json.Marshal(map[string]any{"vertices": 4, "pad": ""})
		return map[string]any{"vertices": 4, "pad": strings.Repeat("x", size-len(empty))}
	}
	url := base + "/v1/graphs/big"

	if code, out, _ := doJSON(t, client, http.MethodPut, url, spec(maxGraphSpecBody+1)); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("spec one byte over the limit: %d %v, want 413", code, out)
	}
	if s.lookupGraph("big") != nil {
		t.Fatal("the refused create registered a graph")
	}
	if _, err := os.Stat(filepath.Join(dir, "graphs", "big")); !os.IsNotExist(err) {
		t.Fatalf("the refused create left a directory: %v", err)
	}
	if code, out, _ := doJSON(t, client, http.MethodPut, url, spec(maxGraphSpecBody)); code != http.StatusCreated {
		t.Fatalf("spec of exactly the limit after the refusal: %d %v, want 201", code, out)
	}
	if g := s.lookupGraph("big"); g == nil || g.dyn.NumVertices() != 4 {
		t.Fatal("the create after the refusal did not register the graph")
	}
}
