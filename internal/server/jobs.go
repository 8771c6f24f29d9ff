package server

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"tufast"
	"tufast/algorithms"
)

// Job statuses. A job is terminal once it leaves StatusQueued/
// StatusRunning; terminal statuses never change again.
const (
	StatusQueued   = "queued"
	StatusRunning  = "running"
	StatusDone     = "done"
	StatusFailed   = "failed"
	StatusDeadline = "deadline_exceeded"
	StatusCanceled = "canceled"
)

// JobRequest is the POST /v1/jobs body: which algorithm to run and its
// parameters. Zero-valued parameters take server defaults.
type JobRequest struct {
	// Algo is one of pagerank, cc, sssp, degree.
	Algo string `json:"algo"`
	// Damping and Eps tune pagerank (defaults 0.85, 1e-6).
	Damping float64 `json:"damping,omitempty"`
	Eps     float64 `json:"eps,omitempty"`
	// Source is the sssp source vertex.
	Source uint32 `json:"source,omitempty"`
	// TopK bounds ranked result lists (default 10, max 100).
	TopK int `json:"top_k,omitempty"`
	// Standing requests a materialized standing query (pagerank and cc
	// only): the first submission registers a resident delta-maintained
	// computation repaired under the mutation stream, and every later
	// submission with the same parameters is served inline from the
	// maintained result — O(1) between mutations, O(delta) behind them
	// — instead of recomputing from a snapshot.
	Standing bool `json:"standing,omitempty"`
	// TimeoutMS is the per-job deadline in milliseconds (default and
	// cap come from the server config). The deadline is propagated as a
	// context into the runtime's cancellation paths, so an overrunning
	// job stops mid-sweep and surfaces context.DeadlineExceeded.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// normalize fills defaults and validates; it returns the request ready
// to key a cache entry.
func (r *JobRequest) normalize(cfg Config, numVertices int) error {
	// Fields the selected algo ignores are zeroed so equivalent
	// requests (e.g. two cc submissions differing in a stray damping
	// value) normalize to the same cache key.
	switch r.Algo {
	case "pagerank":
		if r.Damping == 0 {
			r.Damping = 0.85
		}
		if r.Damping <= 0 || r.Damping >= 1 {
			return fmt.Errorf("damping %v out of range (0,1)", r.Damping)
		}
		if r.Eps == 0 {
			r.Eps = 1e-6
		}
		if r.Eps <= 0 {
			return fmt.Errorf("eps %v must be positive", r.Eps)
		}
		r.Source = 0
	case "cc", "degree":
		r.Damping, r.Eps, r.Source = 0, 0, 0
	case "sssp":
		if int(r.Source) >= numVertices {
			return fmt.Errorf("source %d out of range [0,%d)", r.Source, numVertices)
		}
		r.Damping, r.Eps = 0, 0
	default:
		return fmt.Errorf("unknown algo %q (want pagerank|cc|sssp|degree)", r.Algo)
	}
	if r.Standing && r.Algo != "pagerank" && r.Algo != "cc" {
		return fmt.Errorf("standing mode supports pagerank|cc, not %q", r.Algo)
	}
	if r.TopK <= 0 {
		r.TopK = cfg.TopK
	}
	if r.TopK > 100 {
		r.TopK = 100
	}
	if r.TimeoutMS <= 0 {
		r.TimeoutMS = cfg.DefaultTimeout.Milliseconds()
	}
	if max := cfg.MaxTimeout.Milliseconds(); r.TimeoutMS > max {
		r.TimeoutMS = max
	}
	return nil
}

// cacheKey identifies the computation independent of deadline: two
// submissions asking for the same algorithm with the same parameters
// share a cache slot.
func (r JobRequest) cacheKey() string {
	return fmt.Sprintf("%s|d=%v|e=%v|s=%d|k=%d", r.Algo, r.Damping, r.Eps, r.Source, r.TopK)
}

// Job is one admitted analytics request and its lifecycle. g is the
// graph it was admitted against: the shared pool's workers dispatch
// through it, so one queue serves every tenant.
type Job struct {
	ID  string
	Req JobRequest
	g   *graphInstance

	// state is replaced whole, never edited in place. It has one writer
	// at a time: admission publishes the queued state, then the worker
	// running the job the running and terminal ones.
	state atomic.Pointer[jobState]
}

// jobState is one published moment of a job's lifecycle.
type jobState struct {
	status   string
	err      string
	result   any
	epoch    uint64 // snapshot epoch the result was computed at
	admitted time.Time
	started  time.Time
	finished time.Time
}

// view renders the job for JSON responses.
func (j *Job) view() jobView {
	st := j.state.Load()
	v := jobView{
		JobID:    j.ID,
		Algo:     j.Req.Algo,
		Status:   st.status,
		Standing: j.Req.Standing,
		Error:    st.err,
		Result:   st.result,
	}
	// epoch is only assigned at completion, so expose it for terminal
	// statuses only — a running job has no meaningful epoch yet.
	if terminal(st.status) {
		v.Epoch = &st.epoch
	}
	if !st.started.IsZero() {
		v.QueuedMS = st.started.Sub(st.admitted).Milliseconds()
	}
	if !st.finished.IsZero() {
		v.RunMS = st.finished.Sub(st.started).Milliseconds()
	}
	return v
}

// jobView is the wire form of a job (also used for cache-served
// responses, with Cached set and no job id).
type jobView struct {
	JobID  string `json:"job_id,omitempty"`
	Algo   string `json:"algo"`
	Status string `json:"status"`
	Cached bool   `json:"cached,omitempty"`
	// Standing marks a standing-query response (or registration job);
	// Repairing, only meaningful with Standing, reports that the
	// served result is the last stable one while a repair or
	// delete-triggered recompute is still in flight — Epoch then names
	// the older epoch the result is exact at.
	Standing  bool    `json:"standing,omitempty"`
	Repairing bool    `json:"repairing,omitempty"`
	Epoch     *uint64 `json:"epoch,omitempty"`
	QueuedMS  int64   `json:"queued_ms,omitempty"`
	RunMS     int64   `json:"run_ms,omitempty"`
	Error     string  `json:"error,omitempty"`
	Result    any     `json:"result,omitempty"`
}

// terminal reports whether status is a final state.
func terminal(status string) bool {
	return status != StatusQueued && status != StatusRunning
}

// jobTable is the id → job registry. Terminal jobs are retained only
// up to a bound (Config.MaxJobs): retire evicts the oldest finished
// jobs, so sustained submission cannot grow the table without limit.
type jobTable struct {
	//tufast:lockorder 60
	mu   sync.RWMutex
	next uint64
	jobs map[string]*Job
	// done is a head-indexed queue of terminal job ids, oldest at
	// done[head]. Evicted slots are zeroed (so the backing array does
	// not retain evicted id strings) and the live window is copied
	// down once head outgrows it, keeping capacity proportional to the
	// retention bound instead of growing with total submissions.
	done []string
	head int
}

func (t *jobTable) add(req JobRequest) *Job {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.jobs == nil {
		t.jobs = make(map[string]*Job)
	}
	t.next++
	j := &Job{ID: "j-" + strconv.FormatUint(t.next, 10), Req: req}
	j.state.Store(&jobState{status: StatusQueued, admitted: time.Now()})
	t.jobs[j.ID] = j
	return j
}

func (t *jobTable) get(id string) *Job {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.jobs[id]
}

// remove forgets a job that was never admitted (queue-full rejection).
func (t *jobTable) remove(id string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.jobs, id)
}

// retire records that id reached a terminal status and evicts the
// oldest terminal jobs beyond keep; evicted ids answer 404.
func (t *jobTable) retire(id string, keep int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.done = append(t.done, id)
	for len(t.done)-t.head > keep {
		delete(t.jobs, t.done[t.head])
		t.done[t.head] = "" // release the evicted id string
		t.head++
	}
	// Compact once the dead prefix dominates: amortized O(1) per
	// retire, and the backing array stays O(keep) under sustained
	// submission (front-slicing instead would pin every evicted id in
	// the growing backing array forever).
	if t.head > keep && t.head > len(t.done)/2 {
		n := copy(t.done, t.done[t.head:])
		clear(t.done[n:])
		t.done = t.done[:n]
		t.head = 0
	}
}

// worker is one slot of the bounded analytics pool shared by every
// graph: it drains the admission queue until the queue closes (drain)
// and dispatches each job to its graph, which runs it under its own
// deadline context parented to the graph's base context (so drain-time
// and delete-time cancellation reach in-flight sweeps).
func (s *Server) worker() {
	defer s.workerWG.Done()
	for j := range s.queue {
		j.g.runJob(j)
	}
}

func (s *graphInstance) runJob(j *Job) {
	defer s.inflight.Add(-1)
	ctx, cancel := context.WithTimeout(s.baseCtx, time.Duration(j.Req.TimeoutMS)*time.Millisecond)
	defer cancel()

	st := *j.state.Load()
	st.status, st.started = StatusRunning, time.Now()
	j.state.Store(&st)

	if s.cfg.jobGate != nil {
		s.cfg.jobGate(ctx, j)
	}
	var (
		result any
		epoch  uint64
		err    error
	)
	if j.Req.Standing {
		// Registration job: seed the resident computation and return
		// its first published result; later standing submissions are
		// served inline by handleStandingSubmit.
		result, epoch, err = s.executeStanding(ctx, j)
	} else {
		result, epoch, err = s.execute(ctx, j.Req)
	}

	fin := st
	fin.finished, fin.epoch = time.Now(), epoch
	switch {
	case err == nil:
		fin.status, fin.result = StatusDone, result
		s.met.completed.Add(1)
	case errors.Is(err, context.DeadlineExceeded):
		fin.status, fin.err = StatusDeadline, err.Error()
		s.met.deadline.Add(1)
	case errors.Is(err, context.Canceled):
		fin.status, fin.err = StatusCanceled, err.Error()
		s.met.canceled.Add(1)
	default:
		fin.status, fin.err = StatusFailed, err.Error()
		s.met.failed.Add(1)
	}
	j.state.Store(&fin)

	s.met.jobLatency.Record(uint64(fin.finished.Sub(fin.admitted).Nanoseconds()))
	if err == nil && !j.Req.Standing {
		// Standing results live in the manager, not the epoch cache.
		s.withCache(epoch, func(c *epochCache) { c.results[j.Req.cacheKey()] = result })
	}
	s.jobs.retire(j.ID, s.cfg.MaxJobs)
}

// execute runs the requested algorithm against an epoch-consistent
// frozen snapshot of the dynamic graph. Each job gets its own System
// over the snapshot so concurrent jobs never share transactional
// state; the deadline context flows into the runtime's cancellation
// paths (sweeps, retries, lock waits).
func (s *graphInstance) execute(ctx context.Context, req JobRequest) (any, uint64, error) {
	if err := ctx.Err(); err != nil {
		return nil, s.dyn.Epoch(), err
	}
	g, epoch, err := s.snapshot()
	if err != nil {
		return nil, epoch, err
	}
	switch req.Algo {
	case "degree":
		res := degreeSummary(g, req.TopK)
		return res, epoch, nil
	case "pagerank":
		sys := tufast.NewSystem(g, s.jobSysOptions())
		ranks, err := algorithms.PageRankCtx(ctx, sys, req.Damping, req.Eps)
		if err != nil {
			return nil, epoch, err
		}
		return pagerankSummary(ranks, req.TopK), epoch, nil
	case "cc":
		if !g.Undirected() {
			return nil, epoch, errors.New("cc requires an undirected graph")
		}
		sys := tufast.NewSystem(g, s.jobSysOptions())
		comp, err := algorithms.ConnectedComponentsCtx(ctx, sys)
		if err != nil {
			return nil, epoch, err
		}
		return ccSummary(comp), epoch, nil
	case "sssp":
		sys := tufast.NewSystem(g, s.jobSysOptions())
		dist, err := algorithms.ShortestPathsSPFACtx(ctx, sys, req.Source)
		if err != nil {
			return nil, epoch, err
		}
		return ssspSummary(req.Source, dist), epoch, nil
	default:
		return nil, epoch, fmt.Errorf("unknown algo %q", req.Algo)
	}
}

// jobSysOptions builds per-job runtime options: analytics parallelism
// is bounded separately from HTTP concurrency so a wide client fan-out
// cannot multiply into threads × jobs goroutines.
func (s *graphInstance) jobSysOptions() tufast.Options {
	return tufast.Options{Threads: s.cfg.JobThreads}
}

// rankedVertex is one entry of a top-k list.
type rankedVertex struct {
	V     uint32  `json:"v"`
	Score float64 `json:"score"`
}

func pagerankSummary(ranks []float64, k int) any {
	var sum float64
	for _, r := range ranks {
		sum += r
	}
	return struct {
		Vertices int            `json:"vertices"`
		Sum      float64        `json:"sum"`
		Top      []rankedVertex `json:"top"`
	}{len(ranks), sum, topBy(len(ranks), k, func(v int) float64 { return ranks[v] })}
}

func ccSummary(comp []uint64) any {
	sizes := make(map[uint64]int)
	for _, c := range comp {
		sizes[c]++
	}
	largest := 0
	for _, n := range sizes {
		if n > largest {
			largest = n
		}
	}
	return struct {
		Vertices   int `json:"vertices"`
		Components int `json:"components"`
		Largest    int `json:"largest"`
	}{len(comp), len(sizes), largest}
}

func ssspSummary(source uint32, dist []uint64) any {
	reached := 0
	var max uint64
	for _, d := range dist {
		if d != tufast.None {
			reached++
			if d > max {
				max = d
			}
		}
	}
	return struct {
		Source  uint32 `json:"source"`
		Reached int    `json:"reached"`
		MaxDist uint64 `json:"max_dist"`
	}{source, reached, max}
}

func degreeSummary(g *tufast.Graph, k int) any {
	n := g.NumVertices()
	var arcs uint64
	for v := 0; v < n; v++ {
		arcs += uint64(g.Degree(uint32(v)))
	}
	avg := 0.0
	if n > 0 {
		avg = float64(arcs) / float64(n)
	}
	return struct {
		Vertices  int            `json:"vertices"`
		Arcs      uint64         `json:"arcs"`
		MaxDegree int            `json:"max_degree"`
		AvgDegree float64        `json:"avg_degree"`
		Top       []rankedVertex `json:"top"`
	}{n, arcs, g.MaxDegree(), avg, topBy(n, k, func(v int) float64 { return float64(g.Degree(uint32(v))) })}
}

// topBy returns the k highest-scoring vertices of [0,n), ties broken
// by lower id. Bounded-heap selection: a size-k min-heap rooted at the
// worst retained entry costs O(n log k) instead of materializing and
// fully sorting all n vertices (k ≤ 100 while n is the whole graph).
func topBy(n, k int, score func(v int) float64) []rankedVertex {
	if k > n {
		k = n
	}
	if k <= 0 {
		return []rankedVertex{}
	}
	// worse reports whether a ranks below b in the final order (lower
	// score, or equal score and higher id) — the heap keeps the worst
	// retained entry at the root so it can be displaced first.
	worse := func(a, b rankedVertex) bool {
		if a.Score != b.Score {
			return a.Score < b.Score
		}
		return a.V > b.V
	}
	h := make([]rankedVertex, 0, k)
	siftDown := func(i int) {
		for {
			l, r := 2*i+1, 2*i+2
			min := i
			if l < len(h) && worse(h[l], h[min]) {
				min = l
			}
			if r < len(h) && worse(h[r], h[min]) {
				min = r
			}
			if min == i {
				return
			}
			h[i], h[min] = h[min], h[i]
			i = min
		}
	}
	for v := 0; v < n; v++ {
		e := rankedVertex{V: uint32(v), Score: score(v)}
		if len(h) < k {
			h = append(h, e)
			for i := len(h) - 1; i > 0; { // sift up
				p := (i - 1) / 2
				if !worse(h[i], h[p]) {
					break
				}
				h[i], h[p] = h[p], h[i]
				i = p
			}
			continue
		}
		if worse(e, h[0]) {
			continue // not better than the worst retained entry
		}
		h[0] = e
		siftDown(0)
	}
	// Pop the heap into descending final order.
	out := make([]rankedVertex, len(h))
	for i := len(h) - 1; i >= 0; i-- {
		out[i] = h[0]
		last := len(h) - 1
		h[0] = h[last]
		h = h[:last]
		siftDown(0)
	}
	return out
}
