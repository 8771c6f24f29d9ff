// mvcc_regress_test.go — regressions for the three RWMutex-era bugs
// the MVCC snapshot refactor fixed: unguarded quiescent reads in
// GET /v1/graph, mutation batches queued behind a compacting snapshot,
// and standing cc falling back to full recomputes on deletes.
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tufast"
	"tufast/algorithms"
)

// TestGraphReadsUnderMutations hammers GET /v1/graph while mutation
// batches commit. The old handler walked the overlay chains with no
// lock (a data race the detector catches) and could pair a mid-batch
// arc count with a stale epoch; the pinned-view handler must return
// internally consistent pairs — every response carrying the same epoch
// must report the same live_arcs.
func TestGraphReadsUnderMutations(t *testing.T) {
	n := 1_000
	d := newTestDyn(t, n, 5)
	s := startServer(t, d, Config{JobWorkers: 1, QueueDepth: 8})
	base := "http://" + s.Addr()
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}}
	defer client.CloseIdleConnections()

	const mutators, batches, batchOps, readers = 3, 10, 60, 3
	var wg sync.WaitGroup
	errs := make(chan string, mutators+readers)
	for m := 0; m < mutators; m++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(id) * 271))
			for b := 0; b < batches; b++ {
				ops := make([]map[string]any, batchOps)
				for i := range ops {
					ops[i] = map[string]any{
						"u": rng.Intn(n), "v": rng.Intn(n),
						"del": rng.Float64() < 0.3,
					}
				}
				code, body, _ := postJSON(t, client, base+"/v1/edges", map[string]any{"ops": ops})
				if code != http.StatusOK {
					errs <- fmt.Sprintf("mutator %d: %d %v", id, code, body)
					return
				}
			}
		}(m)
	}
	mutDone := make(chan struct{})
	go func() { wg.Wait(); close(mutDone) }()

	var (
		mu        sync.Mutex
		arcsAt    = map[uint64]int{} // epoch → live_arcs, must be a function
		readerWG  sync.WaitGroup
		readCount atomic.Int64
	)
	for r := 0; r < readers; r++ {
		readerWG.Add(1)
		go func(id int) {
			defer readerWG.Done()
			for {
				select {
				case <-mutDone:
					return
				default:
				}
				code, body := getJSON(t, client, base+"/v1/graph")
				if code != http.StatusOK {
					errs <- fmt.Sprintf("reader %d: GET /v1/graph: %d", id, code)
					return
				}
				epoch := uint64(body["epoch"].(float64))
				arcs := int(body["live_arcs"].(float64))
				readCount.Add(1)
				mu.Lock()
				if prev, ok := arcsAt[epoch]; ok && prev != arcs {
					mu.Unlock()
					errs <- fmt.Sprintf("reader %d: epoch %d reported live_arcs %d and %d",
						id, epoch, prev, arcs)
					return
				}
				arcsAt[epoch] = arcs
				mu.Unlock()
			}
		}(r)
	}
	readerWG.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if readCount.Load() == 0 {
		t.Fatal("no graph reads completed during the mutation phase")
	}

	// Quiescent cross-check: the handler's pair matches a direct view.
	_, body := getJSON(t, client, base+"/v1/graph")
	v := d.View()
	defer v.Close()
	if got := uint64(body["epoch"].(float64)); got != v.Epoch() {
		t.Errorf("final epoch = %d, graph at %d", got, v.Epoch())
	}
	if got := int(body["live_arcs"].(float64)); got != v.Arcs() {
		t.Errorf("final live_arcs = %d, view says %d", got, v.Arcs())
	}

	// With a snapshot cached for the epoch the count comes from it: the
	// emptied arc count stays empty, and the answer is the same.
	if _, _, err := s.def.snapshot(); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	s.def.withCache(v.Epoch(), func(c *epochCache) { c.arcs = -1 })
	_, body = getJSON(t, client, base+"/v1/graph")
	if got := int(body["live_arcs"].(float64)); got != v.Arcs() {
		t.Errorf("live_arcs from the cached snapshot = %d, view says %d", got, v.Arcs())
	}
	scanned := true
	s.def.withCache(v.Epoch(), func(c *epochCache) { scanned = c.arcs >= 0 })
	if scanned {
		t.Error("live_arcs scanned the chains although a snapshot of the epoch was cached")
	}
}

// TestSnapshotDoesNotBlockMutations gates snapshot compaction through
// the test hook and proves the property the restructure bought: a
// mutation batch commits while a snapshot is compacting. The legacy
// path serialized them — snapshot held snapMu across Compact() under
// the exclusive topology lock, so every batch queued behind it.
func TestSnapshotDoesNotBlockMutations(t *testing.T) {
	d := newTestDyn(t, 500, 4)
	var gateCount atomic.Int64
	entered := make(chan uint64, 4)
	release := make(chan struct{})
	cfg := Config{JobWorkers: 2, QueueDepth: 8, GCInterval: -1}
	cfg.compactGate = func(epoch uint64) {
		gateCount.Add(1)
		entered <- epoch
		<-release
	}
	s := startServer(t, d, cfg)
	base := "http://" + s.Addr()
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}}
	defer client.CloseIdleConnections()

	// Job A enters compaction and parks on the gate.
	code, view, _ := postJSON(t, client, base+"/v1/jobs",
		map[string]any{"algo": "degree", "timeout_ms": 60_000})
	if code != http.StatusAccepted {
		t.Fatalf("submit A: %d %v", code, view)
	}
	jobA := view["job_id"].(string)
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("snapshot compaction never started")
	}

	// While compaction is parked, an effective mutation batch must
	// commit — the whole point of taking compaction out from under the
	// topology lock.
	u, v := findNonEdge(t, d)
	mutDone := make(chan struct{})
	go func() {
		defer close(mutDone)
		code, body, _ := postJSON(t, client, base+"/v1/edges",
			map[string]any{"ops": []map[string]any{{"u": u, "v": v}}})
		if code != http.StatusOK {
			t.Errorf("mutation during compaction: %d %v", code, body)
		}
	}()
	select {
	case <-mutDone:
	case <-time.After(10 * time.Second):
		t.Fatal("mutation batch blocked behind a compacting snapshot")
	}

	close(release)
	if final := pollJob(t, client, base, jobA); final["status"] != StatusDone {
		t.Fatalf("job A: %v", final)
	}
	if got := gateCount.Load(); got != 1 {
		t.Fatalf("compactions = %d, want 1", got)
	}
}

// TestSnapshotCoalesces pins the singleflight contract: concurrent
// same-epoch jobs with distinct cache keys share one compaction — the
// second waits on the builder's claim channel instead of compacting
// the same epoch again.
func TestSnapshotCoalesces(t *testing.T) {
	d := newTestDyn(t, 500, 4)
	var gateCount atomic.Int64
	release := make(chan struct{})
	cfg := Config{JobWorkers: 2, QueueDepth: 8, GCInterval: -1}
	cfg.compactGate = func(epoch uint64) {
		if gateCount.Add(1) == 1 {
			<-release // park only the first builder; later builds flow
		}
	}
	s := startServer(t, d, cfg)
	base := "http://" + s.Addr()
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}}
	defer client.CloseIdleConnections()

	// Two same-epoch jobs, distinct cache keys, both workers busy: the
	// second must wait on the first's claim channel, not compact again.
	ids := make([]string, 0, 2)
	for _, algo := range []string{"degree", "cc"} {
		code, view, _ := postJSON(t, client, base+"/v1/jobs",
			map[string]any{"algo": algo, "timeout_ms": 60_000})
		if code != http.StatusAccepted {
			t.Fatalf("submit %s: %d %v", algo, code, view)
		}
		ids = append(ids, view["job_id"].(string))
	}
	// Let both jobs reach the snapshot path while the builder is parked.
	time.Sleep(200 * time.Millisecond)
	close(release)
	for _, id := range ids {
		if final := pollJob(t, client, base, id); final["status"] != StatusDone {
			t.Fatalf("job %s: %v", id, final)
		}
	}
	if got := gateCount.Load(); got != 1 {
		t.Fatalf("compactions = %d, want 1 (same-epoch jobs must coalesce)", got)
	}
}

// pathDyn builds a path graph 0-1-2-…-(n-1): every interior edge is a
// bridge, so deleting one genuinely splits a component and the standing
// cc repair has to re-derive labels — no triangle shortcut applies.
func pathDyn(t *testing.T, n int) *tufast.DynGraph {
	t.Helper()
	edges := make([]tufast.EdgePair, 0, n-1)
	for i := 0; i < n-1; i++ {
		edges = append(edges, tufast.EdgePair{U: uint32(i), V: uint32(i + 1)})
	}
	g, err := tufast.BuildGraph(n, edges, true)
	if err != nil {
		t.Fatal(err)
	}
	sys := tufast.NewSystem(g, tufast.Options{
		Threads:    4,
		SpaceWords: tufast.DynSpaceWords(g, 50_000) + 8*(n+8),
		HMaxHint:   64,
		OMaxHint:   256,
	})
	return tufast.NewDynGraph(sys)
}

// TestStandingDeleteRepairNoRecompute pins the localized split-repair
// path: component-splitting deletes streamed against a standing cc —
// including a delete whose edge is re-inserted before its repair runs —
// must converge to oracle labels with exactly the one seed-time
// recompute on the books, the deletes all flowing through the
// localized delete-repair path instead.
func TestStandingDeleteRepairNoRecompute(t *testing.T) {
	const n = 200
	d := pathDyn(t, n)
	s := startServer(t, d, Config{JobWorkers: 2, QueueDepth: 16, GCInterval: -1})
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

	// Back-to-back batches so repairs overlap later deletes: three
	// bridge cuts, an intra-component insert, and a re-insert of the
	// first cut bridge — its logged delete may be repaired after the
	// edge is live again, exercising the skip path.
	batches := [][]map[string]any{
		{{"u": 49, "v": 50, "del": true}},
		{{"u": 99, "v": 100, "del": true}, {"u": 10, "v": 30}},
		{{"u": 149, "v": 150, "del": true}},
		{{"u": 49, "v": 50}},
	}
	for i, ops := range batches {
		code, body, _ := postJSON(t, client, base+"/v1/edges", map[string]any{"ops": ops})
		if code != http.StatusOK {
			t.Fatalf("batch %d: %d %v", i, code, body)
		}
	}
	waitStandingStable(t, client, base, 1)

	// Oracle labels on the compacted final graph.
	g, _, err := s.def.snapshot()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	oracleSys := tufast.NewSystem(g, tufast.Options{Threads: 4})
	want, err := algorithms.ConnectedComponents(oracleSys)
	if err != nil {
		t.Fatalf("oracle cc: %v", err)
	}

	ccReq := JobRequest{Algo: "cc", Standing: true}
	if err := ccReq.normalize(s.cfg, n); err != nil {
		t.Fatal(err)
	}
	q := s.def.standing.lookup(ccReq.cacheKey())
	if q == nil {
		t.Fatal("standing cc vanished from the registry")
	}
	got := q.comp.(*algorithms.IncrementalCC).Components()
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("label[%d] = %d, oracle says %d", v, got[v], want[v])
		}
	}
	// The final topology has exactly three components (cuts at 99 and
	// 149; the 49-50 bridge came back).
	sizes := map[uint64]bool{}
	for _, c := range got {
		sizes[c] = true
	}
	if len(sizes) != 3 {
		t.Fatalf("components = %d, want 3", len(sizes))
	}

	sm := serverMetrics(t, client, base)
	if sm.StandingRecomputes != 1 {
		t.Errorf("standing recomputes = %d, want exactly the seed's 1", sm.StandingRecomputes)
	}
	if sm.StandingDeleteRepairs < 3 {
		t.Errorf("delete repairs = %d, want ≥ 3 (one per logged delete)", sm.StandingDeleteRepairs)
	}
	if sm.StandingRepairs == 0 {
		t.Error("no standing repairs recorded")
	}
}

// TestSnapshotFoldMatchesFullCompaction runs a cc and an sssp job after
// each of a run of mutation batches, with a chain GC pass partway, and
// holds each job's summary — and the snapshot the epoch cache kept — to
// what a fresh full compaction of the same epoch gives. Each snapshot
// but the first and the one after the pass is folded from the one
// before, and once a build is done the cache holds its CSR alone.
func TestSnapshotFoldMatchesFullCompaction(t *testing.T) {
	d := newTestDyn(t, 500, 4)
	s := startServer(t, d, Config{JobWorkers: 1, QueueDepth: 8, GCInterval: -1})
	base := "http://" + s.Addr()
	client := &http.Client{}
	defer client.CloseIdleConnections()
	rng := rand.New(rand.NewSource(9))
	const rounds, gcRound = 8, 4
	for round := 0; round < rounds; round++ {
		ops := make([]map[string]any, 64)
		for i := range ops {
			ops[i] = map[string]any{"u": rng.Intn(10), "v": rng.Intn(40), "del": rng.Intn(2) == 0}
		}
		if code, body, _ := postJSON(t, client, base+"/v1/edges", map[string]any{"ops": ops}); code != http.StatusOK {
			t.Fatalf("round %d: batch: %d %v", round, code, body)
		}
		if round == gcRound {
			if n, err := d.GCCtx(context.Background(), 0); err != nil || n == 0 {
				t.Fatalf("GC pass rebuilt %d chains, err %v", n, err)
			}
		}
		view := d.View()
		full, err := view.Compact()
		view.Close()
		if err != nil {
			t.Fatal(err)
		}
		source := uint32(rng.Intn(500))
		comp, err := algorithms.ConnectedComponents(tufast.NewSystem(full, tufast.Options{Threads: 2}))
		if err != nil {
			t.Fatal(err)
		}
		dist, err := algorithms.ShortestPathsSPFA(tufast.NewSystem(full, tufast.Options{Threads: 2}), source)
		if err != nil {
			t.Fatal(err)
		}
		for _, job := range []struct {
			req  map[string]any
			want any
		}{
			{map[string]any{"algo": "cc", "timeout_ms": 30_000}, ccSummary(comp)},
			{map[string]any{"algo": "sssp", "source": source, "timeout_ms": 30_000}, ssspSummary(source, dist)},
		} {
			code, v, _ := postJSON(t, client, base+"/v1/jobs", job.req)
			if code != http.StatusAccepted {
				t.Fatalf("round %d: submit %v: %d %v", round, job.req, code, v)
			}
			final := pollJob(t, client, base, v["job_id"].(string))
			var want any
			buf, _ := json.Marshal(job.want)
			if err := json.Unmarshal(buf, &want); err != nil {
				t.Fatal(err)
			}
			if final["status"] != StatusDone || !reflect.DeepEqual(final["result"], want) {
				t.Fatalf("round %d: %v gave %v, want %v", round, job.req, final, want)
			}
		}
		g := s.def
		g.snapMu.Lock()
		c := g.cache
		g.snapMu.Unlock()
		if c.graph == nil || c.prev != nil {
			t.Fatalf("round %d: the cache holds graph %p and fold base %p, want its graph alone", round, c.graph, c.prev)
		}
		for u := uint32(0); u < 500; u++ {
			if !slices.Equal(c.graph.Neighbors(u), full.Neighbors(u)) {
				t.Fatalf("round %d: cached row %d = %v, full compaction %v", round, u, c.graph.Neighbors(u), full.Neighbors(u))
			}
		}
	}
	sm := serverMetrics(t, client, base)
	if full, folded := sm.SnapshotFull.Count(), sm.SnapshotFolded.Count(); full != 2 || folded != rounds-2 {
		t.Fatalf("snapshots: %d full, %d folded; want 2 (the first, the one after GC) and %d", full, folded, rounds-2)
	}
}
