package server

import (
	"math"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tufast"
	"tufast/algorithms"
	"tufast/internal/algo"
	"tufast/internal/wal"
)

// standingTestDyn is newTestDyn with space headroom for the standing
// queries' per-vertex arrays (3 for delta pagerank, 1 for cc, plus
// their work queues).
func standingTestDyn(t *testing.T, n, deg int) *tufast.DynGraph {
	t.Helper()
	g := tufast.GenerateUniform(n, deg, 42).Undirect()
	sys := tufast.NewSystem(g, tufast.Options{
		Threads:    4,
		SpaceWords: tufast.DynSpaceWords(g, 200_000) + 8*(n+8),
		HMaxHint:   64,
		OMaxHint:   256,
	})
	return tufast.NewDynGraph(sys)
}

// waitStandingStable polls GET /v1/standing until every registered
// query is ready, not repairing, and has an empty repair queue — the
// quiescent point where resident results are exact.
func waitStandingStable(t *testing.T, client *http.Client, base string, want int) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		code, body := getJSON(t, client, base+"/v1/standing")
		if code != http.StatusOK {
			t.Fatalf("GET /v1/standing: %d", code)
		}
		qs, _ := body["queries"].([]any)
		stable := 0
		for _, raw := range qs {
			q, _ := raw.(map[string]any)
			ready := q["status"] == "ready"
			repairing, _ := q["repairing"].(bool)
			pending, _ := q["pending"].(float64)
			if ready && !repairing && pending == 0 {
				stable++
			}
		}
		if len(qs) == want && stable == want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("standing queries never stabilized (want %d stable)", want)
}

// submitStanding posts a standing submission and returns the decoded
// response.
func submitStanding(t *testing.T, client *http.Client, base, algo string, extra map[string]any) (int, map[string]any) {
	t.Helper()
	req := map[string]any{"algo": algo, "standing": true, "timeout_ms": 60_000}
	for k, v := range extra {
		req[k] = v
	}
	code, view, _ := postJSON(t, client, base+"/v1/jobs", req)
	return code, view
}

// TestStandingEndToEndOracle is the standing-query acceptance test:
// register a standing pagerank and a standing cc, push a random
// mutation stream (inserts and deletes) through /v1/edges, wait for the
// repair plane to drain, and compare both resident results against
// from-scratch computations on the compacted final graph — the same
// oracle the non-standing analytics plane would produce. All under
// -race via the package's race-enabled test runs.
func TestStandingEndToEndOracle(t *testing.T) {
	const n, damping, eps = 400, 0.85, 1e-7
	d := standingTestDyn(t, n, 4)
	s := startServer(t, d, Config{JobWorkers: 2, QueueDepth: 16})
	base := "http://" + s.Addr()
	client := &http.Client{}
	defer client.CloseIdleConnections()

	// Register both standing queries through the normal job queue.
	for _, algo := range []string{"pagerank", "cc"} {
		extra := map[string]any{}
		if algo == "pagerank" {
			extra["eps"] = eps
		}
		code, view := submitStanding(t, client, base, algo, extra)
		if code != http.StatusAccepted {
			t.Fatalf("register standing %s: %d %v", algo, code, view)
		}
		final := pollJob(t, client, base, view["job_id"].(string))
		if final["status"] != StatusDone {
			t.Fatalf("standing %s registration: %v", algo, final)
		}
		if st, _ := final["standing"].(bool); !st {
			t.Errorf("registration job view lacks standing flag: %v", final)
		}
		if final["result"] == nil || final["epoch"] == nil {
			t.Errorf("registration job has no result/epoch: %v", final)
		}
	}

	// A repeat submission is a resident hit: 200, standing, inline.
	code, view := submitStanding(t, client, base, "cc", nil)
	if code != http.StatusOK {
		t.Fatalf("standing cc repeat: %d %v, want 200 inline", code, view)
	}
	if st, _ := view["standing"].(bool); !st || view["result"] == nil {
		t.Fatalf("standing hit malformed: %v", view)
	}

	// Random mutation stream with deletes: cc repairs delete batches
	// locally (bounded re-flood from the deletion frontier), pagerank
	// repairs exactly.
	rng := rand.New(rand.NewSource(7))
	for b := 0; b < 4; b++ {
		ops := make([]map[string]any, 40)
		for i := range ops {
			ops[i] = map[string]any{
				"u": rng.Intn(n), "v": rng.Intn(n),
				"del": rng.Float64() < 0.25,
			}
		}
		code, body, _ := postJSON(t, client, base+"/v1/edges", map[string]any{"ops": ops})
		if code != http.StatusOK {
			t.Fatalf("batch %d: %d %v", b, code, body)
		}
	}
	waitStandingStable(t, client, base, 2)

	// Oracle: from-scratch computations on the compacted final graph.
	g, epoch, err := s.def.snapshot()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	oracleSys := tufast.NewSystem(g, tufast.Options{Threads: 4})
	wantRanks, err := algorithms.PageRank(oracleSys, damping, eps)
	if err != nil {
		t.Fatalf("oracle pagerank: %v", err)
	}
	oracleSys2 := tufast.NewSystem(g, tufast.Options{Threads: 4})
	wantComp, err := algorithms.ConnectedComponents(oracleSys2)
	if err != nil {
		t.Fatalf("oracle cc: %v", err)
	}

	prReq := JobRequest{Algo: "pagerank", Eps: eps, Standing: true}
	if err := prReq.normalize(s.cfg, n); err != nil {
		t.Fatal(err)
	}
	ccReq := JobRequest{Algo: "cc", Standing: true}
	if err := ccReq.normalize(s.cfg, n); err != nil {
		t.Fatal(err)
	}
	prQ := s.def.standing.lookup(prReq.cacheKey())
	ccQ := s.def.standing.lookup(ccReq.cacheKey())
	if prQ == nil || ccQ == nil {
		t.Fatal("standing queries vanished from the registry")
	}

	gotRanks := prQ.comp.(*algorithms.DeltaPageRank).Ranks()
	worst, at := 0.0, -1
	for v := range wantRanks {
		if diff := math.Abs(gotRanks[v] - wantRanks[v]); diff > worst {
			worst, at = diff, v
		}
	}
	if worst > 1e-3 {
		t.Errorf("standing rank[%d] = %g, from-scratch says %g (|Δ| = %g)",
			at, gotRanks[at], wantRanks[at], worst)
	}
	gotComp := ccQ.comp.(*algorithms.IncrementalCC).Components()
	for v := range wantComp {
		if gotComp[v] != wantComp[v] {
			t.Fatalf("standing label[%d] = %d, from-scratch says %d", v, gotComp[v], wantComp[v])
		}
	}

	// The served views must carry the quiescent epoch and no repairing
	// flag — and agree with the oracle's summary.
	code, view = submitStanding(t, client, base, "cc", nil)
	if code != http.StatusOK {
		t.Fatalf("post-stream standing cc: %d %v", code, view)
	}
	if rep, _ := view["repairing"].(bool); rep {
		t.Errorf("quiescent standing read flagged repairing: %v", view)
	}
	if got := uint64(view["epoch"].(float64)); got != epoch {
		t.Errorf("standing read epoch = %d, graph at %d", got, epoch)
	}
	sizes := make(map[uint64]int)
	for _, c := range wantComp {
		sizes[c]++
	}
	res, _ := view["result"].(map[string]any)
	if got := int(res["components"].(float64)); got != len(sizes) {
		t.Errorf("standing cc components = %d, oracle %d", got, len(sizes))
	}

	// Counters: two resident queries, hits on the inline reads, repairs
	// per effective batch. Recomputes come only from the cc seed — the
	// delete batches above repair locally and must not add more.
	sm := serverMetrics(t, client, base)
	if sm.StandingQueries != 2 {
		t.Errorf("standing queries = %d, want 2", sm.StandingQueries)
	}
	if sm.StandingHits < 2 {
		t.Errorf("standing hits = %d, want ≥ 2", sm.StandingHits)
	}
	if sm.StandingRepairs == 0 {
		t.Error("no standing repairs recorded")
	}
	if sm.StandingRecomputes == 0 {
		t.Error("no cc seed recompute recorded")
	}
	if sm.RepairLag.Count() == 0 {
		t.Error("repair-lag histogram empty")
	}
}

// TestStandingReadAfterBatch pins the repair-lag read contract: a
// standing read issued immediately after an effective mutation batch
// always answers 200 with an internally consistent (result, epoch)
// pair — either already repaired to the batch's epoch, or the last
// stable result at an older epoch with the repairing flag raised.
// Never a torn mix, never an error, never a stale epoch passed off as
// current.
func TestStandingReadAfterBatch(t *testing.T) {
	const n = 300
	d := standingTestDyn(t, n, 4)
	s := startServer(t, d, Config{JobWorkers: 1, QueueDepth: 8})
	base := "http://" + s.Addr()
	client := &http.Client{}
	defer client.CloseIdleConnections()

	code, view := submitStanding(t, client, base, "cc", nil)
	if code != http.StatusAccepted {
		t.Fatalf("register: %d %v", code, view)
	}
	if final := pollJob(t, client, base, view["job_id"].(string)); final["status"] != StatusDone {
		t.Fatalf("registration: %v", final)
	}

	u, v := findNonEdge(t, d)
	for i := 0; i < 16; i++ {
		// Alternate insert/delete of the same pair: every batch is
		// effective, so every batch bumps the epoch and dirties the
		// standing query.
		code, body, _ := postJSON(t, client, base+"/v1/edges",
			map[string]any{"ops": []map[string]any{{"u": u, "v": v, "del": i%2 == 1}}})
		if code != http.StatusOK {
			t.Fatalf("batch %d: %d %v", i, code, body)
		}
		batchEpoch := uint64(body["epoch"].(float64))

		code, read := submitStanding(t, client, base, "cc", nil)
		if code != http.StatusOK {
			t.Fatalf("read %d after batch: %d %v, want 200 resident hit", i, code, read)
		}
		readEpoch := uint64(read["epoch"].(float64))
		repairing, _ := read["repairing"].(bool)
		if readEpoch > batchEpoch {
			t.Fatalf("read %d: epoch %d from the future (batch committed %d)", i, readEpoch, batchEpoch)
		}
		if !repairing && readEpoch != batchEpoch {
			t.Fatalf("read %d: stale epoch %d served unflagged (batch at %d)", i, readEpoch, batchEpoch)
		}
		if read["result"] == nil {
			t.Fatalf("read %d: no result: %v", i, read)
		}
	}

	// After the stream quiesces the resident labels must match a
	// from-scratch computation (the alternation ends on a delete, so
	// the last repair exercised the local delete-repair path).
	waitStandingStable(t, client, base, 1)
	g, _, err := s.def.snapshot()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	want, err := algorithms.ConnectedComponents(tufast.NewSystem(g, tufast.Options{Threads: 4}))
	if err != nil {
		t.Fatalf("oracle cc: %v", err)
	}
	req := JobRequest{Algo: "cc", Standing: true}
	if err := req.normalize(s.cfg, n); err != nil {
		t.Fatal(err)
	}
	got := s.def.standing.lookup(req.cacheKey()).comp.(*algorithms.IncrementalCC).Components()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("label[%d] = %d, oracle %d", i, got[i], want[i])
		}
	}
}

// TestStandingValidation pins the standing-mode request contract:
// unsupported algorithms are rejected at normalize time and the
// registration limit sheds with 429.
func TestStandingValidation(t *testing.T) {
	d := standingTestDyn(t, 200, 4)
	s := startServer(t, d, Config{JobWorkers: 1, QueueDepth: 8, MaxStanding: 1})
	base := "http://" + s.Addr()
	client := &http.Client{}
	defer client.CloseIdleConnections()

	for _, algo := range []string{"sssp", "degree"} {
		if code, view := submitStanding(t, client, base, algo, nil); code != http.StatusBadRequest {
			t.Errorf("standing %s: %d %v, want 400", algo, code, view)
		}
	}

	code, view := submitStanding(t, client, base, "cc", nil)
	if code != http.StatusAccepted {
		t.Fatalf("register: %d %v", code, view)
	}
	if final := pollJob(t, client, base, view["job_id"].(string)); final["status"] != StatusDone {
		t.Fatalf("registration: %v", final)
	}
	// The slot is taken: a different standing computation is shed, but
	// the registered one still answers inline.
	if code, view := submitStanding(t, client, base, "pagerank", nil); code != http.StatusTooManyRequests {
		t.Errorf("over-limit standing pagerank: %d %v, want 429", code, view)
	}
	if code, _ := submitStanding(t, client, base, "cc", nil); code != http.StatusOK {
		t.Errorf("registered query read after limit: %d, want 200", code)
	}
}

// TestConcurrentBatchEpochsDistinct is the regression test for the
// epoch-reporting bug: the mutation response used to re-read the
// graph's epoch after releasing the topology lock, so a batch racing
// with others could report a later batch's epoch as its own. Each
// effective batch must report the distinct value its own bump produced.
func TestConcurrentBatchEpochsDistinct(t *testing.T) {
	const k = 8
	d := newTestDyn(t, 200, 3)
	s := startServer(t, d, Config{JobWorkers: 1, QueueDepth: 8})
	base := "http://" + s.Addr()
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: k}}
	defer client.CloseIdleConnections()

	// k disjoint non-edges, so every single-op batch is effective no
	// matter the commit order.
	var pairs [][2]uint32
	n := uint32(d.NumVertices())
	for u := uint32(0); u+1 < n && len(pairs) < k; u += 2 {
		if !d.HasEdgeNow(u, u+1) {
			pairs = append(pairs, [2]uint32{u, u + 1})
		}
	}
	if len(pairs) < k {
		t.Fatalf("found only %d disjoint non-edges", len(pairs))
	}

	epochs := make([]uint64, k)
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, body, _ := postJSON(t, client, base+"/v1/edges",
				map[string]any{"ops": []map[string]any{{"u": pairs[i][0], "v": pairs[i][1]}}})
			if code != http.StatusOK {
				t.Errorf("batch %d: %d %v", i, code, body)
				return
			}
			if ins, _ := body["inserted"].(float64); ins != 1 {
				t.Errorf("batch %d not effective: %v", i, body)
			}
			epochs[i] = uint64(body["epoch"].(float64))
		}(i)
	}
	wg.Wait()

	seen := make(map[uint64]bool)
	for i, e := range epochs {
		if e == 0 || e > k {
			t.Errorf("batch %d: epoch %d outside [1,%d]", i, e, k)
		}
		if seen[e] {
			t.Errorf("epoch %d reported by two concurrent batches", e)
		}
		seen[e] = true
	}
	if got := d.Epoch(); got != k {
		t.Errorf("final epoch = %d, want %d", got, k)
	}
}

// TestJobTableRetireBoundedBacking is the regression test for the
// retention leak: retire used to evict by front-slicing t.done, which
// pinned every evicted id string in the ever-growing backing array.
// Under sustained submission the done queue's backing storage must stay
// proportional to the retention bound.
func TestJobTableRetireBoundedBacking(t *testing.T) {
	var tbl jobTable
	const keep, rounds = 8, 5000
	for i := 0; i < rounds; i++ {
		j := tbl.add(JobRequest{Algo: "degree"})
		tbl.retire(j.ID, keep)
	}
	if live := len(tbl.done) - tbl.head; live != keep {
		t.Errorf("live done window = %d, want %d", live, keep)
	}
	if len(tbl.jobs) != keep {
		t.Errorf("retained jobs = %d, want %d", len(tbl.jobs), keep)
	}
	// The compaction bound: the backing array holds at most ~2× the live
	// window plus append slack, never O(rounds).
	if cap(tbl.done) > 8*(keep+1) {
		t.Errorf("done backing capacity = %d after %d retires, want O(keep)=O(%d)",
			cap(tbl.done), rounds, keep)
	}
	// Evicted slots beyond the live window are zeroed, not pinned.
	for i := 0; i < tbl.head; i++ {
		if tbl.done[i] != "" {
			t.Fatalf("evicted slot %d still pins id %q", i, tbl.done[i])
		}
	}
}

// TestTopByMatchesSort pins the bounded-heap top-k selection against
// the straightforward sort-everything reference, including duplicate
// scores (ties break toward the lower vertex id) and k ≥ n.
func TestTopByMatchesSort(t *testing.T) {
	ref := func(n, k int, score func(int) float64) []rankedVertex {
		all := make([]rankedVertex, n)
		for v := range all {
			all[v] = rankedVertex{V: uint32(v), Score: score(v)}
		}
		sort.Slice(all, func(i, j int) bool {
			if all[i].Score != all[j].Score {
				return all[i].Score > all[j].Score
			}
			return all[i].V < all[j].V
		})
		if k > n {
			k = n
		}
		if k < 0 {
			k = 0
		}
		return all[:k]
	}

	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{0, 1, 2, 7, 100, 1000} {
		for _, k := range []int{0, 1, 3, 10, 100, 150} {
			// Coarse scores force plenty of ties.
			scores := make([]float64, n)
			for v := range scores {
				scores[v] = math.Floor(rng.Float64()*10) / 10
			}
			score := func(v int) float64 { return scores[v] }
			got := topBy(n, k, score)
			want := ref(n, k, score)
			if len(got) != len(want) {
				t.Fatalf("n=%d k=%d: got %d entries, want %d", n, k, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("n=%d k=%d entry %d: got %+v, want %+v\n got: %v\nwant: %v",
						n, k, i, got[i], want[i], got, want)
				}
			}
		}
	}
	if out := topBy(5, 0, func(int) float64 { return 0 }); len(out) != 0 {
		t.Errorf("topBy k=0 returned %v", out)
	}
}

// TestStandingListEndpoint pins GET /v1/standing: registered queries
// are listed sorted by key with their repair state.
func TestStandingListEndpoint(t *testing.T) {
	d := standingTestDyn(t, 200, 4)
	s := startServer(t, d, Config{JobWorkers: 1, QueueDepth: 8})
	base := "http://" + s.Addr()
	client := &http.Client{}
	defer client.CloseIdleConnections()

	code, body := getJSON(t, client, base+"/v1/standing")
	if code != http.StatusOK {
		t.Fatalf("empty list: %d", code)
	}
	if qs, _ := body["queries"].([]any); len(qs) != 0 {
		t.Fatalf("fresh server lists %v", qs)
	}

	code, view := submitStanding(t, client, base, "cc", nil)
	if code != http.StatusAccepted {
		t.Fatalf("register: %d %v", code, view)
	}
	pollJob(t, client, base, view["job_id"].(string))
	waitStandingStable(t, client, base, 1)

	_, body = getJSON(t, client, base+"/v1/standing")
	qs, _ := body["queries"].([]any)
	if len(qs) != 1 {
		t.Fatalf("listed %d queries, want 1", len(qs))
	}
	q, _ := qs[0].(map[string]any)
	if q["algo"] != "cc" || q["status"] != "ready" {
		t.Errorf("listed view: %v", q)
	}
	if key, _ := q["key"].(string); key == "" {
		t.Errorf("listed view lacks key: %v", q)
	}
}

// TestStandingSeedBesideParkedBatch pins that registering a standing
// query excludes no batch: registrations that arrive while a batch is
// parked inside the mutation bracket finish their first repair without
// waiting for it, and that first answer is exact at its tagged epoch —
// the topology before the batch. Once the batch commits, both queries
// repair to its epoch. The batch bridges two rings into one component
// through a new hub, so a result on the wrong side of it shows in both
// oracles.
func TestStandingSeedBesideParkedBatch(t *testing.T) {
	const ring, n, eps = 100, 2 * 100, 1e-7
	g := twoRings(t, ring)
	d := tufast.NewDynGraph(tufast.NewSystem(g, tufast.Options{
		Threads:    4,
		SpaceWords: tufast.DynSpaceWords(g, 10_000) + 8*(n+8),
	}))
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	var releaseOnce sync.Once
	unpark := func() { releaseOnce.Do(func() { close(release) }) }
	cfg := Config{JobWorkers: 2, QueueDepth: 8, GCInterval: -1}
	cfg.mutGate = func() {
		entered <- struct{}{}
		<-release
	}
	s := startServer(t, d, cfg)
	defer unpark() // a failure while parked must not stall Shutdown
	base := "http://" + s.Addr()
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}
	defer client.CloseIdleConnections()

	batchEpoch := make(chan uint64, 1)
	go func() {
		code, body, _ := postJSON(t, client, base+"/v1/edges", map[string]any{"ops": bridgeOps(ring)})
		if code != http.StatusOK {
			t.Errorf("batch: %d %v", code, body)
			batchEpoch <- 0
			return
		}
		batchEpoch <- uint64(body["epoch"].(float64))
	}()
	select {
	case <-entered: // the batch is parked inside its bracket
	case <-time.After(10 * time.Second):
		t.Fatal("batch never entered the mutation bracket")
	}

	// check compares both resident results with from-scratch ones on
	// snap's topology.
	check := func(when string, snap *tufast.Graph, queries map[string]*standingQuery) {
		t.Helper()
		wantRanks := algo.SeqPageRank(snap.CSR(), 0.85, 1e-10)
		wantComp, err := algorithms.ConnectedComponents(tufast.NewSystem(snap, tufast.Options{Threads: 4}))
		if err != nil {
			t.Fatalf("oracle cc: %v", err)
		}
		gotRanks := queries["pagerank"].comp.(*algorithms.DeltaPageRank).Ranks()
		for v := range wantRanks {
			if diff := math.Abs(gotRanks[v] - wantRanks[v]); diff > 1e-3*wantRanks[v] {
				t.Fatalf("%s: standing rank[%d] = %g, from-scratch says %g", when, v, gotRanks[v], wantRanks[v])
			}
		}
		gotComp := queries["cc"].comp.(*algorithms.IncrementalCC).Components()
		for v := range wantComp {
			if gotComp[v] != wantComp[v] {
				t.Fatalf("%s: standing label[%d] = %d, from-scratch says %d", when, v, gotComp[v], wantComp[v])
			}
		}
	}

	queries := map[string]*standingQuery{}
	for _, algo := range []string{"pagerank", "cc"} {
		req, extra := JobRequest{Algo: algo, Standing: true}, map[string]any{}
		if algo == "pagerank" {
			req.Eps, extra["eps"] = eps, eps
		}
		code, view := submitStanding(t, client, base, algo, extra)
		if code != http.StatusAccepted {
			t.Fatalf("register standing %s: %d %v", algo, code, view)
		}
		final := pollJob(t, client, base, view["job_id"].(string))
		if final["status"] != StatusDone {
			t.Fatalf("standing %s registration beside a parked batch: %v", algo, final)
		}
		// The registration's result is the query's first publish.
		if got := uint64(final["epoch"].(float64)); got != 0 {
			t.Fatalf("standing %s first published at epoch %d with the only batch parked", algo, got)
		}
		if err := req.normalize(s.cfg, n); err != nil {
			t.Fatal(err)
		}
		queries[algo] = s.def.standing.lookup(req.cacheKey())
	}
	check("first answer, batch parked", g, queries)

	unpark()
	epoch := <-batchEpoch
	waitStandingStable(t, client, base, 2)
	snap, snapEpoch, err := s.def.snapshot()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	if epoch != 1 || snapEpoch != epoch {
		t.Fatalf("batch committed epoch %d, graph at %d; want both 1", epoch, snapEpoch)
	}
	for algo, q := range queries {
		if st := q.state.Load(); st.epoch != epoch {
			t.Errorf("standing %s at epoch %d after the batch committed %d", algo, st.epoch, epoch)
		}
	}
	check("after the batch", snap, queries)
	if c := queries["cc"].comp.(*algorithms.IncrementalCC).Components(); c[0] != c[ring] {
		t.Fatal("the batch did not bridge the two rings: the oracle is not exercising it")
	}
}

// twoRings is two undirected rings of ring vertices each, 0..ring-1 and
// ring..2·ring-1.
func twoRings(t *testing.T, ring int) *tufast.Graph {
	t.Helper()
	var edges []tufast.EdgePair
	for i := 0; i < ring; i++ {
		edges = append(edges,
			tufast.EdgePair{U: uint32(i), V: uint32((i + 1) % ring)},
			tufast.EdgePair{U: uint32(ring + i), V: uint32(ring + (i+1)%ring)})
	}
	g, err := tufast.BuildGraph(2*ring, edges, true)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// bridgeOps joins twoRings' rings through vertex 0, which gains an arc
// to every other vertex of the second ring.
func bridgeOps(ring int) []map[string]any {
	ops := make([]map[string]any, 0, ring/2)
	for v := ring; v < 2*ring; v += 2 {
		ops = append(ops, map[string]any{"u": 0, "v": v})
	}
	return ops
}

// TestStandingRepairWaitsForDelivery pins the guard in repairOnce: a
// batch publishes its epoch before the mutation plane hands it to the
// standing queries, so a repair can pin a view holding a batch its
// computation has not heard of yet. That repair must stand down rather
// than publish a result tagged with the batch's epoch. Here the batch
// is parked in its WAL fsync — applied and published, not delivered —
// when the query's worker is woken; once it is released the query
// repairs to it.
func TestStandingRepairWaitsForDelivery(t *testing.T) {
	const ring = 100
	g := twoRings(t, ring)
	var park atomic.Bool
	parked := make(chan struct{}, 1)
	release := make(chan struct{})
	var releaseOnce sync.Once
	unpark := func() { releaseOnce.Do(func() { close(release) }) }
	hooks := &wal.Hooks{SyncErr: func() error {
		if park.Load() {
			parked <- struct{}{}
			<-release
		}
		return nil
	}}
	s := startDurableServerOn(t, t.TempDir(), DurabilityConfig{Sync: wal.SyncAlways, walHooks: hooks}, g, 4)
	t.Cleanup(func() { unpark(); shutdownServer(t, s) })
	base := "http://" + s.Addr()
	client := &http.Client{}
	defer client.CloseIdleConnections()

	code, view := submitStanding(t, client, base, "cc", nil)
	if code != http.StatusAccepted {
		t.Fatalf("register standing cc: %d %v", code, view)
	}
	if final := pollJob(t, client, base, view["job_id"].(string)); final["status"] != StatusDone {
		t.Fatalf("registration: %v", final)
	}
	req := JobRequest{Algo: "cc", Standing: true}
	if err := req.normalize(s.cfg, 2*ring); err != nil {
		t.Fatal(err)
	}
	q := s.def.standing.lookup(req.cacheKey())

	park.Store(true)
	batchEpoch := make(chan uint64, 1)
	go func() {
		code, body, _ := postJSON(t, client, base+"/v1/edges", map[string]any{"ops": bridgeOps(ring)})
		if code != http.StatusOK {
			t.Errorf("batch: %d %v", code, body)
			batchEpoch <- 0
			return
		}
		batchEpoch <- uint64(body["epoch"].(float64))
	}()
	select {
	case <-parked:
	case <-time.After(10 * time.Second):
		t.Fatal("batch never reached its WAL fsync")
	}
	if e := s.def.dyn.Epoch(); e != 1 {
		t.Fatalf("parked batch left the graph at epoch %d, want it published at 1", e)
	}
	// Wakeups whose repairs pin the parked batch's epoch. The buffer
	// holds one, so the third send waits for the worker to take the
	// second, which it does only once the first repair has returned.
	for range 3 {
		q.notify <- struct{}{}
	}
	if st := q.state.Load(); st.epoch != 0 {
		t.Fatalf("standing cc published epoch %d before the batch at that epoch reached Committed", st.epoch)
	}

	park.Store(false)
	unpark()
	if e := <-batchEpoch; e != 1 {
		t.Fatalf("batch answered epoch %d, want 1", e)
	}
	waitStandingStable(t, client, base, 1)
	if st := q.state.Load(); st.epoch != 1 {
		t.Fatalf("standing cc at epoch %d after the batch was delivered, want 1", st.epoch)
	}
	snap, _, err := s.def.snapshot()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	want, err := algorithms.ConnectedComponents(tufast.NewSystem(snap, tufast.Options{Threads: 4}))
	if err != nil {
		t.Fatalf("oracle cc: %v", err)
	}
	got := q.comp.(*algorithms.IncrementalCC).Components()
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("label[%d] = %d, from-scratch says %d", v, got[v], want[v])
		}
	}
	if want[0] != want[ring] {
		t.Fatal("the batch did not bridge the two rings: the oracle is not exercising it")
	}
}
