package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"tufast"
	"tufast/internal/algo"
	"tufast/internal/server"
)

// maxStanding is the server's standing-query limit; the arena budgets
// four vertex arrays per slot, as tufastd does.
const maxStanding = 8

// jobView is the part of a job answer the harness reads.
type jobView struct {
	JobID     string          `json:"job_id"`
	Status    string          `json:"status"`
	Standing  bool            `json:"standing"`
	Repairing bool            `json:"repairing"`
	QueuedMS  int64           `json:"queued_ms"`
	RunMS     int64           `json:"run_ms"`
	Error     string          `json:"error"`
	Result    json.RawMessage `json:"result"`
}

// jobSample is one job as the client saw it and as the server accounted
// it; done is false for a job that failed, whose times mean nothing.
type jobSample struct {
	done                      bool
	clientMS, queuedMS, runMS float64
	// gapMS is what the client adds around the server's own accounting:
	// the submit round trip plus the last sleep-and-poll cycle, inside
	// which the job finished.
	gapMS float64
}

// runJob submits one job and polls it every millisecond until it is
// terminal. Anything but done is a failed operation.
func runJob(c *runCtx, cl *client, body string, parent int, req int64) (jobSample, jobView) {
	root := c.tr.begin("job", parent, req)
	defer c.tr.end(root)
	t0 := time.Now()
	var v jobView
	sp := c.tr.begin("http.post_jobs", root, req)
	status, err := cl.do("POST", "/v1/jobs", []byte(body), &v)
	c.tr.end(sp)
	if !succeeded(status, err) {
		c.op(false)
		return jobSample{}, v
	}
	submit := time.Since(t0)
	var cycle time.Time
	for v.Status == "queued" || v.Status == "running" {
		cycle = time.Now()
		time.Sleep(time.Millisecond)
		sp := c.tr.begin("http.get_job", root, req)
		v = jobView{JobID: v.JobID}
		status, err = cl.do("GET", "/v1/jobs/"+v.JobID, nil, &v)
		c.tr.end(sp)
		if !succeeded(status, err) {
			c.op(false)
			return jobSample{}, v
		}
	}
	c.op(v.Status == "done")
	gap := submit
	if !cycle.IsZero() {
		gap += time.Since(cycle)
	}
	return jobSample{
		done:     v.Status == "done",
		clientMS: float64(time.Since(t0)) / 1e6,
		queuedMS: float64(v.QueuedMS), runMS: float64(v.RunMS),
		gapMS: float64(gap) / 1e6,
	}, v
}

// jobBody alternates cc and sssp, varying top_k and source so that no
// two requests share a cache key.
func jobBody(j int, sources []uint32) string {
	if j%2 == 0 {
		return fmt.Sprintf(`{"algo":"cc","top_k":%d}`, 1+j%97)
	}
	return fmt.Sprintf(`{"algo":"sssp","source":%d,"top_k":%d}`, sources[j/2%len(sources)], 1+j%97)
}

// hubs returns the k vertices of highest degree. The sssp jobs start
// from them in turn: a third of an R-MAT graph's vertices are isolated
// and a search from one of those is no search, so sources drawn from the
// seed made a run's job mix, and with it every phase-H number, a matter
// of luck.
func hubs(g *tufast.Graph, k int) []uint32 {
	vs := make([]uint32, g.NumVertices())
	for i := range vs {
		vs[i] = uint32(i)
	}
	sort.Slice(vs, func(i, j int) bool {
		if di, dj := g.Degree(vs[i]), g.Degree(vs[j]); di != dj {
			return di > dj
		}
		return vs[i] < vs[j]
	})
	return vs[:min(k, len(vs))]
}

// minBeside is the fewest paced writes phase H must have answered
// before it may end.
const minBeside = 8

const standingBody = `{"algo":"pagerank","eps":1e-4,"standing":true}`

// mixedBed is the serve_mixed server and what the phases share.
type mixedBed struct {
	c   *runCtx
	dyn *tufast.DynGraph
	cl  *client
	sum ackSum
}

// runServeMixed is the serve_mixed workload: phase H, then phase S on
// the same server, each median resting on at least a hundred samples.
func runServeMixed(c *runCtx) error {
	w := c.w
	g := genGraph(w, c.seed)
	nv := g.NumVertices()
	// Phase H's writer runs until the jobs are done; budget up to half a
	// second per job, three times what was measured. Running out is an
	// invalid run, not a silent change of load.
	hMax := max(w.Jobs*w.PacedRate/2, w.PacedRate)
	warm := genBatches(g, c.seed, w.WarmBatches, w.BatchOps)
	hBatches := genBatches(g, c.seed+1, hMax, w.BatchOps)
	sBatches := genBatches(g, c.seed+2, w.StandingBatches, w.StandingOps)
	ops := (w.WarmBatches+hMax)*w.BatchOps + w.StandingBatches*w.StandingOps
	space := tufast.DynSpaceWords(g, ops*3/2) + maxStanding*4*(nv+8)
	c.sizes["vertices"], c.sizes["arcs"], c.sizes["max_degree"] = nv, g.NumEdges(), g.MaxDegree()
	c.sizes["jobs"], c.sizes["standing_batches"], c.sizes["standing_reads"] = w.Jobs, w.StandingBatches, w.StandingReads
	c.sizes["space_words"] = space

	dyn := tufast.NewDynGraph(tufast.NewSystem(g, tufast.Options{Threads: c.threads, SpaceWords: space}))
	usedBefore := dyn.System().Space().Used()
	srv := server.New(dyn, server.Config{
		Addr: "127.0.0.1:0", JobWorkers: 1, JobThreads: c.threads, MaxStanding: maxStanding,
	})
	if err := srv.Start(); err != nil {
		return err
	}
	b := &mixedBed{c: c, dyn: dyn, cl: newClient(srv.Addr(), c.threads)}
	defer b.cl.close()
	sources := hubs(g, 16)
	closedLoop(c, b.cl, warm, 2, &b.sum, "warmup", nil)
	for j := 0; j < w.WarmJobs; j++ {
		runJob(c, b.cl, jobBody(j, sources), -1, 0)
	}
	c.setupDone()
	cpu0 := cpuSeconds()
	late := b.phaseH(hBatches, sources)
	sLate, err := b.phaseS(sBatches)
	if err != nil {
		return err
	}
	late = append(late, sLate...)
	c.set("process.cpu_s", cpuSeconds()-cpu0)
	c.set("loadgen.late_p99_ms", percentile(late, 0.99))

	if err := b.oracles(); err != nil {
		return err
	}
	// live_heap_mb is read here, where the oracles have waited out the
	// standing repair: read right after phase S it held whatever view and
	// arrays the repair in flight had pinned (208.7-213.4 MB over six
	// runs, 207.5-208.0 MB here).
	c.roundDone()
	sv := srv.MetricsSnapshot().Server
	c.set("server.standing_repairs", float64(sv.StandingRepairs))
	c.set("server.standing_repair_lag_p50_ms", float64(sv.RepairLag.Quantile(0.5))/1e6)
	c.set("server.gc_passes", float64(sv.GCPasses))
	c.set("server.gc_chains", float64(sv.GCChains))
	c.set("server.cache_hits", float64(sv.CacheHits))
	c.set("server.rejected_429", float64(sv.Rejected+sv.QuotaRejected))
	if err := shutdown(srv); err != nil {
		return err
	}
	if c.tr != nil {
		probeGraph(c, g)
		probeRuntime(c, g)
		return probeJobPath(c, g, dyn, usedBefore, sBatches, space)
	}
	return nil
}

// phaseH runs Jobs closed-loop jobs, alternating cc and sssp, beside
// writes paced at PacedRate; every job pins a view, compacts it and
// builds a fresh System. It returns the write generator's lateness.
func (b *mixedBed) phaseH(batches []batch, sources []uint32) []float64 {
	c, w := b.c, b.c.w
	var (
		writeMS []float64
		late    []float64
		mu      sync.Mutex
		wg      sync.WaitGroup
	)
	stop := make(chan struct{})
	root := c.tr.begin("phase_h", -1, 0)
	wg.Add(1)
	go func() {
		defer wg.Done()
		late = pace(w.PacedRate, len(batches), stop, func(i int, due time.Time) {
			good := postBatch(c, b.cl, batches[i], &b.sum, root, int64(i+1))
			if ms := sinceMS(due); good {
				mu.Lock()
				writeMS = append(writeMS, ms)
				mu.Unlock()
			}
		})
	}()
	answered := func() int {
		mu.Lock()
		defer mu.Unlock()
		return len(writeMS)
	}
	// Jobs jobs; a smoke run's handful finish before the first write is
	// due, so it keeps going until a few writes ran beside them.
	var jobs []jobSample // the ones that ended done; a failed job is counted by runJob
	t0 := time.Now()
	for j := 0; j < w.Jobs || answered() < minBeside; j++ {
		if s, _ := runJob(c, b.cl, jobBody(w.WarmJobs+j, sources), root, int64(j+1)); s.done {
			jobs = append(jobs, s)
		}
	}
	elapsed := time.Since(t0).Seconds()
	close(stop)
	wg.Wait()
	c.tr.end(root)
	if !c.scheduleKept("phase H writes", late, w.PacedRate) {
		writeMS = nil
	}
	if len(late) >= len(batches) {
		c.oracle("phase_h.budget", fmt.Errorf("write schedule of %d batches ran out before the jobs finished", len(batches)))
	}

	c.set("jobs_per_s", float64(len(jobs))/elapsed)
	c.set("job_p50_ms", median(pluck(jobs, func(s jobSample) float64 { return s.clientMS })))
	c.set("write_p50_ms", median(writeMS))
	c.set("server.job_queued_ms", median(pluck(jobs, func(s jobSample) float64 { return s.queuedMS })))
	c.set("server.job_run_ms", median(pluck(jobs, func(s jobSample) float64 { return s.runMS })))
	c.set("server.job_poll_gap_ms", median(pluck(jobs, func(s jobSample) float64 { return s.gapMS })))
	return late
}

// phaseS registers a standing PageRank, waits for the first inline hit,
// then paces writes (whose transactions now run DeltaPageRank.OnEdge
// while the repair worker competes for the cores) beside paced standing
// reads. It returns both generators' lateness.
func (b *mixedBed) phaseS(batches []batch) ([]float64, error) {
	c, w := b.c, b.c.w
	root := c.tr.begin("phase_s", -1, 0)
	defer c.tr.end(root)
	t0 := time.Now()
	if _, v := runJob(c, b.cl, standingBody, root, 0); v.Status != "done" {
		return nil, fmt.Errorf("standing registration ended %q: %s", v.Status, v.Error)
	}
	for { // the first inline hit
		var v jobView
		status, err := b.cl.do("POST", "/v1/jobs", []byte(standingBody), &v)
		if !succeeded(status, err) {
			c.op(false)
			return nil, fmt.Errorf("standing read: status %d, err %v", status, err)
		}
		if status == 200 && v.Standing {
			break
		}
		time.Sleep(time.Millisecond)
	}
	c.op(true)
	c.set("server.standing_register_s", time.Since(t0).Seconds())

	writeMS := make([]float64, len(batches))
	readMS := make([]float64, w.StandingReads)
	var lateW, lateR []float64
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		lateW = pace(w.StandingRate, len(batches), nil, func(i int, due time.Time) {
			postBatch(c, b.cl, batches[i], &b.sum, root, int64(i+1))
			writeMS[i] = sinceMS(due)
		})
	}()
	go func() {
		defer wg.Done()
		lateR = pace(w.ReadRate, w.StandingReads, nil, func(i int, due time.Time) {
			var v jobView
			sp := c.tr.begin("http.post_standing", root, int64(i+1))
			status, err := b.cl.do("POST", "/v1/jobs", []byte(standingBody), &v)
			c.tr.end(sp)
			c.op(succeeded(status, err) && status == 200 && v.Status == "done")
			readMS[i] = sinceMS(due)
		})
	}()
	wg.Wait()
	if !c.scheduleKept("phase S writes", lateW, w.StandingRate) {
		writeMS = nil
	}
	if !c.scheduleKept("phase S reads", lateR, w.ReadRate) {
		readMS = nil
	}
	c.set("standing_read_p50_ms", median(readMS))
	c.set("standing_write_p50_ms", median(writeMS))
	return append(lateW, lateR...), nil
}

// oracles checks, at quiescence, the job kinds against the sequential
// references run on the compacted live graph, and the standing
// PageRank after its last repair.
func (b *mixedBed) oracles() error {
	c, cl := b.c, b.cl
	var pr jobView
	for i := 0; ; i++ {
		// Wait for the standing repair to catch up with the last batch.
		pr = jobView{} // the answer omits false fields; never decode over an old one
		status, err := cl.do("POST", "/v1/jobs", []byte(standingBody), &pr)
		if !succeeded(status, err) {
			return fmt.Errorf("standing read: status %d, err %v", status, err)
		}
		if !pr.Repairing {
			break
		}
		if i > 60000 {
			return fmt.Errorf("standing query still repairing after 60 s of quiet")
		}
		time.Sleep(time.Millisecond)
	}
	live, err := b.dyn.Compact()
	if err != nil {
		return err
	}
	csr := live.CSR()

	_, cc := runJob(c, cl, `{"algo":"cc","top_k":99}`, -1, 0)
	var ccRes struct{ Components, Largest int }
	sizes := make(map[uint64]int)
	largest := 0
	for _, l := range algo.SeqWCC(csr) {
		sizes[l]++
		largest = max(largest, sizes[l])
	}
	err = json.Unmarshal(cc.Result, &ccRes)
	if err == nil && (ccRes.Components != len(sizes) || ccRes.Largest != largest) {
		err = fmt.Errorf("got %d components, largest %d; want %d, %d", ccRes.Components, ccRes.Largest, len(sizes), largest)
	}
	c.oracle("cc", err)

	_, sp := runJob(c, cl, `{"algo":"sssp","source":0,"top_k":99}`, -1, 0)
	var spRes struct {
		Reached int
		MaxDist uint64 `json:"max_dist"`
	}
	reached, maxDist := 0, uint64(0)
	for _, d := range algo.SeqSSSP(csr, 0) {
		if d != tufast.None {
			reached++
			maxDist = max(maxDist, d)
		}
	}
	err = json.Unmarshal(sp.Result, &spRes)
	if err == nil && (spRes.Reached != reached || spRes.MaxDist != maxDist) {
		err = fmt.Errorf("got reached %d, max %d; want %d, %d", spRes.Reached, spRes.MaxDist, reached, maxDist)
	}
	c.oracle("sssp", err)

	var prRes struct {
		Vertices int
		Sum      float64
		Top      []struct {
			V     uint32
			Score float64
		}
	}
	want := algo.SeqPageRank(csr, 0.85, 1e-9)
	err = json.Unmarshal(pr.Result, &prRes)
	if err == nil {
		var sum float64
		for _, x := range want {
			sum += x
		}
		if math.Abs(prRes.Sum-sum) > rankTolerance*float64(len(want)) {
			err = fmt.Errorf("rank sum %.4f, want %.4f", prRes.Sum, sum)
		}
		for _, t := range prRes.Top {
			if rel := math.Abs(t.Score-want[t.V]) / want[t.V]; rel > 0.01 && err == nil {
				err = fmt.Errorf("vertex %d: rank %.4f, want %.4f", t.V, t.Score, want[t.V])
			}
		}
	}
	c.oracle("pagerank", err)
	return nil
}
