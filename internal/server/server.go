// Package server is tufastd's serving layer: a long-running HTTP/JSON
// service over a registry of named DynGraphs and their transactional
// runtimes, with two planes per graph.
//
// The mutation plane (POST /v1/graphs/{name}/edges) applies batched
// edge mutations and bumps that graph's mutation epoch. Every batch
// applies owned (DynGraph.ApplyOwned: no transaction, each arc written
// by the owner of its source, and a serving-sized batch has one owner,
// the handler's goroutine): the bracket makes it the graph's only
// writer, and nothing else reads the chains it writes except through
// epoch-pinned views.
//
// The analytics plane (POST /v1/graphs/{name}/jobs, GET …/jobs/{id})
// runs pagerank/cc/sssp/degree asynchronously: one bounded worker pool
// shared by every graph drains a bounded admission queue (a full queue
// sheds load with 429 and Retry-After instead of queueing unboundedly),
// every job carries a deadline propagated as a context into the
// runtime's cancellation paths, and finished results are cached tagged
// with the mutation epoch they were computed at — repeated queries
// between mutations are served from cache, and any effective mutation
// batch invalidates it by bumping the epoch.
//
// Tenancy: the registry (registry.go) manages named graphs — create
// with PUT /v1/graphs/{name}, delete with DELETE, list with GET
// /v1/graphs — each with its own durability plane under a per-graph
// data-dir subdirectory and its own admission quotas, so one hot
// tenant cannot starve the fleet. Legacy unnamed routes alias the
// reserved "default" graph.
//
// Analytics reads are epoch-consistent without excluding mutators: the
// overlay's edge chains are multi-version (every entry carries the
// mutation epoch it committed at), so a job pins a DynGraph.View at its
// admission epoch and compacts or reads through it while batches keep
// committing — no lock stands between the two planes. A background GC
// pass reclaims superseded chain versions below the oldest live pin.
//
// Standing queries ("standing": true on POST …/jobs) skip the
// per-epoch recompute entirely: a resident delta-maintained
// computation (DeltaPageRank / IncrementalCC) hears of each effective
// batch after it committed, and a repair worker brings it up to date
// at a pinned view, so reads are O(1) hits on the maintained result —
// exact at its tagged epoch, last-stable (flagged repairing)
// immediately after a mutation. See standing.go.
//
// Shutdown drains gracefully: admission stops (503), queued and
// running jobs get a grace period to finish, stragglers are cancelled
// through the same context plumbing, every graph is torn down as
// DELETE tears one down, and the HTTP listener closes last so status
// polls keep working while jobs wind down. Each graph's inflight
// count, not a lock, orders admission against the drain (see
// admitJob).
package server

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"tufast"
	"tufast/internal/obs"
)

// Config tunes a Server. Zero values take the documented defaults.
type Config struct {
	// Addr is the listen address (default ":8080"; use ":0" in tests).
	Addr string
	// JobWorkers is the analytics pool size shared by all graphs: at
	// most this many jobs run concurrently fleet-wide (default 2).
	JobWorkers int
	// JobThreads is the per-job runtime parallelism (default
	// GOMAXPROCS); total analytics parallelism is bounded by
	// JobWorkers × JobThreads.
	JobThreads int
	// QueueDepth bounds the shared admission queue; a submission
	// finding it full is rejected with 429 + Retry-After (default 64).
	QueueDepth int
	// DefaultTimeout is the per-job deadline when the request names
	// none (default 30s); MaxTimeout caps requested deadlines
	// (default 2m).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// MaxBatch bounds ops per mutation batch (default 65536).
	MaxBatch int
	// DrainGrace is how long Shutdown lets queued and in-flight jobs
	// finish before cancelling them (default 10s).
	DrainGrace time.Duration
	// MaxJobs bounds how many terminal (done/failed/…) jobs each
	// graph's job table retains (default 1024).
	MaxJobs int
	// TopK is the default ranked-list length in results (default 10).
	TopK int
	// MaxStanding bounds how many standing queries (resident
	// delta-maintained computations) may be registered per graph
	// (default 8; a graph's quotas may override it).
	MaxStanding int
	// GCInterval is how often each graph's multi-version chains are
	// garbage-collected down to the oldest live view pin (default 2s;
	// < 0 disables the background pass).
	GCInterval time.Duration

	// jobGate, when non-nil, runs at job start before the algorithm —
	// a test hook to hold workers deterministically (block the pool,
	// force deadlines).
	jobGate func(ctx context.Context, j *Job)

	// compactGate, when non-nil, runs inside snapshot() after the
	// builder claims the compaction for an epoch and before it starts —
	// a test hook to hold compaction deterministically.
	compactGate func(epoch uint64)

	// mutGate, when non-nil, runs inside handleEdges' mutation bracket
	// (after mutMu is taken, before the batch applies) — a test hook to
	// hold a batch deterministically.
	mutGate func()
}

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = ":8080"
	}
	if c.JobWorkers <= 0 {
		c.JobWorkers = 2
	}
	if c.JobThreads <= 0 {
		c.JobThreads = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 2 * time.Minute
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 65536
	}
	if c.DrainGrace <= 0 {
		c.DrainGrace = 10 * time.Second
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 1024
	}
	if c.TopK <= 0 {
		c.TopK = 10
	}
	if c.MaxStanding <= 0 {
		c.MaxStanding = 8
	}
	if c.GCInterval == 0 {
		c.GCInterval = 2 * time.Second
	}
	return c
}

// Server hosts a registry of graphInstances behind one listener and
// one shared analytics worker pool. Create with New (or OpenDurable),
// start with Start, stop with Shutdown.
type Server struct {
	cfg Config

	// regMu guards the registry map and the busy (create/delete in
	// flight) set. It is the outermost serving lock and is never held
	// across another lock acquisition: resolution copies the instance
	// pointer out and releases before any per-graph work.
	//
	//tufast:lockorder 3
	regMu  sync.RWMutex
	graphs map[string]*graphInstance
	busy   map[string]bool
	def    *graphInstance

	// dataDir roots durable state ("" = ephemeral daemon); named graphs
	// live under <dataDir>/graphs/<name>/, the default graph at the
	// root (so PR 9 data dirs keep working). durTpl carries the
	// durability tuning every per-graph plane inherits.
	dataDir string
	durTpl  DurabilityConfig

	// queue is the shared admission queue: one bounded pool serves
	// every tenant, with per-tenant quotas enforced at admission.
	// Shutdown closes it once draining is set and every graph's
	// inflight count has drained (see admitJob).
	queue    chan *Job
	draining atomic.Bool

	baseCtx    context.Context
	cancelJobs context.CancelFunc
	workerWG   sync.WaitGroup

	hsrv *http.Server
	ln   net.Listener
}

// New builds a server whose default graph serves d (the runtime comes
// from d.System()).
func New(d *tufast.DynGraph, cfg Config) *Server {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		graphs:     make(map[string]*graphInstance),
		busy:       make(map[string]bool),
		queue:      make(chan *Job, cfg.QueueDepth),
		baseCtx:    ctx,
		cancelJobs: cancel,
	}
	s.def = s.newInstance(DefaultGraph, d, Quotas{})
	s.graphs[DefaultGraph] = s.def
	s.hsrv = obs.NewServer(s.mux())
	return s
}

// Start binds the listener, starts the shared worker pool and each
// graph's background loops, and serves HTTP on a background goroutine.
// It returns once the address is bound.
func (s *Server) Start() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	s.ln = ln
	for i := 0; i < s.cfg.JobWorkers; i++ {
		s.workerWG.Add(1)
		go s.worker()
	}
	s.regMu.RLock()
	for _, g := range s.graphs {
		g.startLoops()
	}
	s.regMu.RUnlock()
	go func() { _ = s.hsrv.Serve(ln) }()
	return nil
}

// gcLoop periodically collects overlay chain versions no live view can
// observe. A pass takes turns with mutation batches on the graph's
// batch lock while pinned readers read beside it; the watermark
// (minimum pinned epoch) is computed inside GCCtx under the pin lock.
func (s *graphInstance) gcLoop() {
	defer s.gcWG.Done()
	tick := time.NewTicker(s.cfg.GCInterval)
	defer tick.Stop()
	for {
		select {
		case <-s.baseCtx.Done():
			return
		case <-tick.C:
		}
		// Reserve one batch's worth of block headroom so GC never
		// starves the mutation plane of arena space.
		rewritten, err := s.dyn.GCCtx(s.baseCtx, 16*s.cfg.MaxBatch)
		if err != nil {
			if s.baseCtx.Err() != nil {
				return // shutdown cancelled the pass
			}
			// A pass the arena could not hold (its chains are left as
			// they were) must not disable reclamation for the daemon's
			// lifetime: count it and try again next tick.
			s.met.gcErrors.Add(1)
			continue
		}
		if rewritten > 0 {
			s.met.gcChains.Add(uint64(rewritten))
			s.met.gcPasses.Add(1)
		}
	}
}

// Addr returns the bound listen address (valid after Start).
func (s *Server) Addr() string {
	if s.ln == nil {
		return s.cfg.Addr
	}
	return s.ln.Addr().String()
}

// Shutdown drains the server: admission stops immediately (new
// submissions, mutation batches and registry changes get 503), queued
// and in-flight jobs get DrainGrace to finish, stragglers are cancelled
// through the job contexts, every graph is torn down behind a final
// checkpoint, and finally the HTTP server shuts down under ctx. Safe
// to call more than once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.stop(ctx, true)
	return s.hsrv.Shutdown(ctx)
}

// stop is Shutdown short of the listener; checkpoint picks whether each
// durable graph writes a final checkpoint before its log closes.
func (s *Server) stop(ctx context.Context, checkpoint bool) {
	first := !s.draining.Swap(true)
	var insts []*graphInstance
	done := make(chan struct{})
	go func() {
		insts = s.settled()
		for _, g := range insts {
			g.drain()
		}
		close(done)
	}()
	grace := time.NewTimer(s.cfg.DrainGrace)
	defer grace.Stop()
	select {
	case <-done:
	case <-grace.C:
		s.cancelJobs()
		<-done
	case <-ctx.Done():
		s.cancelJobs()
		<-done
	}
	if first {
		close(s.queue)
	}
	s.workerWG.Wait()
	s.cancelJobs()
	for _, g := range insts {
		g.teardown(checkpoint)
	}
}

// settled waits out the PUTs and DELETEs in flight and returns the
// registered graphs. Callers have set draining, which both check under
// regMu before they reserve a name, so the list is final.
func (s *Server) settled() []*graphInstance {
	for {
		s.regMu.RLock()
		busy := len(s.busy)
		s.regMu.RUnlock()
		if busy == 0 {
			return s.instances()
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// MetricsSnapshot returns the fleet's observability snapshot — runtime
// sections merged across every graph's System, the per-graph serving
// sections keyed by graph name, and their fold into the fleet-wide
// Server section — the same document /metrics serves.
func (s *Server) MetricsSnapshot() tufast.MetricsSnapshot {
	insts := s.instances()
	qd, qc := len(s.queue), cap(s.queue)
	var snap tufast.MetricsSnapshot
	graphs := make(map[string]*obs.ServerSnapshot, len(insts))
	var total *obs.ServerSnapshot
	for i, g := range insts {
		rs := g.sys.MetricsSnapshot()
		if i == 0 {
			snap = rs
		} else {
			snap = snap.Merge(rs)
		}
		sv := g.metricsSection(qd, qc)
		graphs[g.name] = sv
		if total == nil {
			t := *sv
			total = &t
		} else {
			t := total.Merge(*sv)
			total = &t
		}
	}
	snap.Server = total
	snap.Graphs = graphs
	return snap
}

// metricsSection renders this graph's serving-layer counters (queue
// gauges are fleet-wide and passed in by the caller).
func (g *graphInstance) metricsSection(queueDepth, queueCap int) *obs.ServerSnapshot {
	epoch := g.dyn.Epoch()
	sv := g.met.snapshot(queueDepth, queueCap, epoch,
		g.standing.count(), g.standing.repairingCount())
	sp := g.sys.Space()
	sv.ArenaUsedWords, sv.ArenaCapWords = sp.Used(), sp.Cap()
	g.fillDurability(sv, epoch)
	return sv
}

// mux wires the per-graph planes (named and legacy default-aliased),
// the registry lifecycle, and the health and observability endpoints.
func (s *Server) mux() *http.ServeMux {
	mux := http.NewServeMux()
	// Registry lifecycle.
	mux.HandleFunc("GET /v1/graphs", s.handleGraphList)
	mux.HandleFunc("PUT /v1/graphs/{name}", s.handleGraphPut)
	mux.HandleFunc("DELETE /v1/graphs/{name}", s.handleGraphDelete)
	mux.HandleFunc("GET /v1/graphs/{name}", s.withGraph((*graphInstance).handleGraph))
	// Per-graph serving planes.
	mux.HandleFunc("POST /v1/graphs/{name}/edges", s.withGraph((*graphInstance).handleEdges))
	mux.HandleFunc("POST /v1/graphs/{name}/jobs", s.withGraph((*graphInstance).handleSubmit))
	mux.HandleFunc("GET /v1/graphs/{name}/jobs/{id}", s.withGraph((*graphInstance).handleJobGet))
	mux.HandleFunc("GET /v1/graphs/{name}/standing", s.withGraph((*graphInstance).handleStandingList))
	mux.HandleFunc("GET /v1/graphs/{name}/graph", s.withGraph((*graphInstance).handleGraph))
	mux.HandleFunc("POST /v1/graphs/{name}/checkpoint", s.withGraph((*graphInstance).handleCheckpoint))
	mux.HandleFunc("GET /v1/graphs/{name}/health", s.withGraph((*graphInstance).handleHealthV1))
	// Unnamed routes alias the default graph. They stay: the benchmark
	// driver (benchmark/loadgen.go, serve_write.go, serve_mixed.go,
	// probes.go) and tufast-loadgen call them.
	mux.HandleFunc("POST /v1/edges", s.onDefault((*graphInstance).handleEdges))
	mux.HandleFunc("POST /v1/jobs", s.onDefault((*graphInstance).handleSubmit))
	mux.HandleFunc("GET /v1/jobs/{id}", s.onDefault((*graphInstance).handleJobGet))
	mux.HandleFunc("GET /v1/standing", s.onDefault((*graphInstance).handleStandingList))
	mux.HandleFunc("GET /v1/graph", s.onDefault((*graphInstance).handleGraph))
	mux.HandleFunc("POST /v1/checkpoint", s.onDefault((*graphInstance).handleCheckpoint))
	mux.HandleFunc("GET /v1/health", s.onDefault((*graphInstance).handleHealthV1))
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.Handle("GET /metrics", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, s.MetricsSnapshot())
	}))
	mux.Handle("GET /debug/vars", expvar.Handler())
	return mux
}

// walErr returns the cause once the graph's log has fail-stopped (nil
// on a healthy or ephemeral graph). A batch applied after that would
// commit in memory, bump the epoch and feed standing queries with
// state no restart can recover, so handleEdges freezes the graph on
// it: 503 with no apply, no epoch bump, no batchCommitted. Reads and
// jobs keep serving the frozen epoch; recovery is a restart.
func (s *graphInstance) walErr() error {
	if s.wlog == nil {
		return nil
	}
	return s.wlog.Err()
}

func refuseFrozen(w http.ResponseWriter, cause error) {
	writeError(w, http.StatusServiceUnavailable, "graph is read-only until restart: wal failed: "+cause.Error())
}

// The stages handleEdges times, in the order a batch passes them. Their
// histograms partition batch_latency_ns: one clock reading closes a
// stage and opens the next, so for every answered batch the stage times
// sum to the handler's.
const (
	stageDecode   = iota // read the body, decode it, size checks
	stageAdmit           // rate quota and vertex-range validation
	stageLockWait        // waiting for mutMu
	stageApply           // ApplyOwned
	stageWAL             // the log append (and its fsync under SyncAlways)
	stageStanding        // standing-query bookkeeping, leaving the bracket
	stageRespond         // encoding and writing the answer
	numBatchStages
)

// stageClock times one handleEdges call, stage by stage: lap closes the
// stage in hand at one time.Now(), which is also the next one's start.
type stageClock struct {
	start, last time.Time
	ns          [numBatchStages]uint64
}

func (c *stageClock) lap(stage int) {
	now := time.Now()
	c.ns[stage] = uint64(now.Sub(c.last))
	c.last = now
}

func (s *graphInstance) handleEdges(w http.ResponseWriter, r *http.Request) {
	var clock stageClock
	clock.start = time.Now()
	clock.last = clock.start
	if s.srv.draining.Load() || s.deleted.Load() {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	if werr := s.walErr(); werr != nil {
		refuseFrozen(w, werr)
		return
	}
	sc := getEdgeScratch()
	defer putEdgeScratch(sc)
	ops, status, msg := s.readBatch(w, r, sc)
	if status != 0 {
		writeError(w, status, msg)
		return
	}
	clock.lap(stageDecode)
	if b := s.mutBucket; b != nil {
		// Rate quota, taken before any lock: a shed batch costs this
		// tenant a map lookup, not a slot in the serialized bracket.
		if ok, retry := b.take(clock.last); !ok {
			s.met.quotaRejected.Add(1)
			w.Header().Set("Retry-After", strconv.Itoa(retry))
			writeError(w, http.StatusTooManyRequests, "mutation batch rate quota exceeded")
			return
		}
	}
	n := uint32(s.dyn.NumVertices())
	for i, op := range ops {
		if op.U >= n || op.V >= n {
			writeError(w, http.StatusBadRequest,
				fmt.Sprintf("op %d: vertex out of range [0,%d)", i, n))
			return
		}
	}
	clock.lap(stageAdmit)

	s.mutMu.Lock() // the mutation bracket; see the field docs
	if werr := s.walErr(); werr != nil {
		// Poisoned while this batch decoded or queued for the bracket:
		// refuse before anything moves (see walErr).
		s.mutMu.Unlock()
		refuseFrozen(w, werr)
		return
	}
	clock.lap(stageLockWait)
	if s.cfg.mutGate != nil {
		s.cfg.mutGate()
	}
	// Once a batch enters the bracket it runs to completion: a client
	// disconnect mid-apply must not cancel it halfway, because memory
	// would then hold a subset of the batch that no WAL record can
	// reproduce. The work is bounded by MaxBatch, so finishing an
	// orphaned batch is cheap — and the client gets no response either
	// way, which is exactly the indeterminate outcome a disconnected
	// mutation always had.
	//
	// The batch has nothing to arbitrate, so it applies owned — no
	// transaction: mutMu and the graph's batch lock, which GC passes
	// take too, make it the only writer, and pinned views (jobs,
	// standing repairs) read it through the stamp filter.
	stats, err := s.dyn.ApplyOwned(ops)
	clock.lap(stageApply)
	effective := stats.Inserted+stats.Removed > 0
	var walErr error
	// An owned batch errs only on a panic (the arena running out), which
	// may leave an arc half written even when no op counts as changed.
	if effective || err != nil {
		switch {
		case s.wlog == nil:
		case err != nil:
			// A partially applied batch (a panic cutting it short) left
			// memory holding an unknown subset of ops. Logging the full
			// slice would make recovery replay ops that never committed,
			// shifting the base state under every later acknowledged
			// batch; logging nothing would drop the committed subset the
			// same way. Neither preserves byte-identical recovery, so
			// fail-stop the log: later mutations 500 un-acknowledged,
			// and every batch acknowledged before this one still
			// recovers exactly.
			s.wlog.Poison(fmt.Errorf("partially applied batch at epoch %d: %w", stats.Epoch, err))
			s.met.walErrors.Add(1)
		default:
			// Log the batch inside the same bracket that serialized it:
			// WAL order is commit order by construction, and the record
			// carries the exact epoch this batch's bump published. The
			// ops slice was sorted in place by the apply, so the log
			// holds applied order and replay's re-sort is a no-op.
			// Under SyncAlways the append is durable before the 200
			// below — an acknowledged batch survives any crash.
			if walErr = s.wlog.Append(stats.Epoch, ops); walErr != nil {
				s.met.walErrors.Add(1)
			}
		}
	}
	clock.lap(stageWAL)
	if effective {
		// Even a batch that failed partway committed changes; standing
		// queries must repair over them like any other effective batch.
		// The ops ride along: the queries log them to repair from.
		s.standing.batchCommitted(stats, ops)
	}
	s.mutMu.Unlock()
	clock.lap(stageStanding)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "apply: "+err.Error())
		return
	}
	if walErr != nil {
		// The in-memory commit stands but its durability record failed:
		// never acknowledge. The client must treat the batch as
		// indeterminate (it may or may not survive a crash), exactly as
		// for any 5xx on a mutation.
		writeError(w, http.StatusInternalServerError, "wal append: "+walErr.Error())
		return
	}
	s.met.mutBatches.Add(1)
	s.met.mutOps.Add(uint64(stats.Applied))
	// stats.Epoch is captured at this batch's own bump, not re-read
	// after the lock drops — a concurrent batch committing right after
	// ours cannot leak its later epoch into this response.
	writeJSON(w, http.StatusOK, struct {
		Applied  int    `json:"applied"`
		Inserted int    `json:"inserted"`
		Removed  int    `json:"removed"`
		NoOps    int    `json:"noops"`
		Epoch    uint64 `json:"epoch"`
	}{stats.Applied, stats.Inserted, stats.Removed, stats.NoOps, stats.Epoch})
	clock.lap(stageRespond)
	for i := range clock.ns {
		s.met.batchStages[i].Record(clock.ns[i])
	}
	s.met.batchLatency.Record(uint64(clock.last.Sub(clock.start)))
}

// maxJobBody bounds a job request's body: a request is a handful of
// scalar fields, so anything near this is not one.
const maxJobBody = 64 << 10

func (s *graphInstance) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.srv.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	var req JobRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxJobBody)).Decode(&req); err != nil {
		if cut := (*http.MaxBytesError)(nil); errors.As(err, &cut) {
			writeError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("job request exceeds %d bytes", cut.Limit))
			return
		}
		writeError(w, http.StatusBadRequest, "bad request: "+err.Error())
		return
	}
	if err := req.normalize(s.cfg, s.dyn.NumVertices()); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if req.Standing {
		s.handleStandingSubmit(w, req)
		return
	}

	// Epoch-tagged cache: a hit is served inline, consuming no queue
	// capacity. Any effective mutation batch since the entry was
	// stored moved the epoch, so staleness is impossible by key match.
	epoch := s.dyn.Epoch()
	var result any
	var ok bool
	s.withCache(epoch, func(c *epochCache) { result, ok = c.results[req.cacheKey()] })
	if ok {
		s.met.cacheHits.Add(1)
		writeJSON(w, http.StatusOK, jobView{
			Algo: req.Algo, Status: StatusDone, Cached: true,
			Epoch: &epoch, Result: result,
		})
		return
	}

	s.admitJob(w, req)
}

// admitJob runs the admission-controlled path shared by regular and
// standing-registration submissions: enforce the tenant's in-flight
// quota, add to the table, try the shared queue, shed 429 when full.
func (s *graphInstance) admitJob(w http.ResponseWriter, req JobRequest) {
	// Count the job before checking whether it may come in. Shutdown and
	// DELETE set their flag first and drain the count after, so a check
	// that missed the flag ran before the flag was set, and the drain
	// sees this count and waits the job out: nothing reaches the queue
	// after it closes. Counting first also makes the quota exact.
	n := s.inflight.Add(1)
	q := s.quotas.MaxInflightJobs
	switch {
	case s.srv.draining.Load():
		s.inflight.Add(-1)
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	case s.deleted.Load():
		s.inflight.Add(-1)
		writeError(w, http.StatusNotFound, "graph deleted")
		return
	case q > 0 && n > int64(q):
		s.inflight.Add(-1)
		s.met.quotaRejected.Add(1)
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests,
			fmt.Sprintf("tenant in-flight job quota (%d) reached", q))
		return
	}
	j := s.jobs.add(req)
	j.g = s
	select {
	case s.srv.queue <- j:
		s.met.admitted.Add(1)
		writeJSON(w, http.StatusAccepted, j.view())
	default:
		s.inflight.Add(-1)
		s.jobs.remove(j.ID)
		s.met.rejected.Add(1)
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "admission queue full")
	}
}

// handleStandingSubmit serves the standing-query read path: a
// registered, ready query answers inline from its resident result
// (O(1), no queue, no snapshot); an unregistered one admits a
// registration job through the normal analytics queue; a query still
// initializing points the caller at its registration job.
func (s *graphInstance) handleStandingSubmit(w http.ResponseWriter, req JobRequest) {
	if req.Algo == "cc" && !s.dyn.Undirected() {
		writeError(w, http.StatusBadRequest, "standing cc requires an undirected graph")
		return
	}
	if q := s.standing.lookup(req.cacheKey()); q != nil {
		if view, ok := q.serve(); ok {
			s.met.standingHits.Add(1)
			writeJSON(w, http.StatusOK, view)
			return
		}
		// Still initializing: report the registration job so the
		// caller can poll it to the first result.
		if j := s.jobs.get(q.regJobID); j != nil {
			writeJSON(w, http.StatusAccepted, j.view())
			return
		}
		writeJSON(w, http.StatusAccepted, jobView{
			Algo: req.Algo, Status: StatusQueued, Standing: true,
		})
		return
	}
	if s.standing.count() >= s.cfg.MaxStanding {
		writeError(w, http.StatusTooManyRequests,
			fmt.Sprintf("standing query limit (%d) reached", s.cfg.MaxStanding))
		return
	}
	s.admitJob(w, req)
}

func (s *graphInstance) handleJobGet(w http.ResponseWriter, r *http.Request) {
	j := s.jobs.get(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "unknown job")
		return
	}
	writeJSON(w, http.StatusOK, j.view())
}

func (s *graphInstance) handleStandingList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Queries []standingView `json:"queries"`
	}{s.standing.views()})
}

func (s *graphInstance) handleGraph(w http.ResponseWriter, _ *http.Request) {
	// Pin a view so the (live_arcs, epoch) pair is one consistent
	// epoch's topology even while mutation batches commit — the old
	// quiescent LiveArcs() walk here raced with ApplyStream and could
	// pair a mid-batch arc count with a stale epoch. The mutation
	// counters are monotone atomics and stay advisory.
	view := s.dyn.View()
	defer view.Close()
	ins, rem, noops := s.dyn.MutationStats()
	writeJSON(w, http.StatusOK, struct {
		Name       string `json:"name"`
		Vertices   int    `json:"vertices"`
		BaseArcs   int    `json:"base_arcs"`
		LiveArcs   int    `json:"live_arcs"`
		Undirected bool   `json:"undirected"`
		Epoch      uint64 `json:"epoch"`
		Inserted   uint64 `json:"inserted"`
		Removed    uint64 `json:"removed"`
		NoOps      uint64 `json:"noops"`
	}{
		s.name, s.dyn.NumVertices(), s.dyn.Base().NumEdges(), s.liveArcs(view),
		s.dyn.Undirected(), view.Epoch(), ins, rem, noops,
	})
}

// liveArcs returns view's exact live arc count. A snapshot cached for
// the view's epoch already holds it (its rows are the live arcs), so
// that answers first; otherwise repeat polls of an unchanged epoch are
// served from the epoch cache, because the count is a full O(V+E)
// multi-version chain scan, far too heavy to rerun for every stats
// request between mutations. The scan runs outside snapMu.
func (s *graphInstance) liveArcs(view *tufast.GraphView) int {
	e, n := view.Epoch(), -1
	s.withCache(e, func(c *epochCache) {
		if n = c.arcs; c.graph != nil {
			n = c.graph.NumEdges()
		}
	})
	if n < 0 {
		n = view.Arcs()
		s.withCache(e, func(c *epochCache) { c.arcs = n })
	}
	return n
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte("ok\n"))
}

// epochCache is what a graph derives from one mutation epoch's
// topology: the compacted snapshot jobs run on and the claim of the job
// building it, the live-arc count GET …/graph reports, and finished job
// results by cache key. Each is exact at epoch and at no other, so the
// cache holds one epoch: a value computed at an older epoch is dropped,
// and the first touch at a newer one starts the cache afresh. Epochs
// only grow, so nothing is ever evicted by something older than itself.
//
// The one thing a newer cache takes over is the snapshot it folds from:
// prev, the newest snapshot an older cache built, at prevEpoch. The
// build of graph folds the rows changed since prevEpoch into it (see
// tufast.GraphView.CompactFrom) and drops it, so no snapshot outlives
// the cache that holds it by more than the build of the next one.
type epochCache struct {
	epoch     uint64
	graph     *tufast.Graph
	build     chan struct{} // non-nil while a job compacts graph
	prev      *tufast.Graph // nil once graph is built, or with no older snapshot
	prevEpoch uint64
	arcs      int // -1 until counted
	results   map[string]any
}

// cacheAt returns the epoch cache at epoch, starting it afresh when
// epoch is newer than the one it holds, or nil when the cache has moved
// past epoch. Callers hold snapMu.
func (s *graphInstance) cacheAt(epoch uint64) *epochCache {
	switch c := s.cache; {
	case c == nil || epoch > c.epoch:
		next := &epochCache{epoch: epoch, arcs: -1, results: make(map[string]any)}
		if c != nil {
			next.prev, next.prevEpoch = c.graph, c.epoch
			if c.graph == nil {
				next.prev, next.prevEpoch = c.prev, c.prevEpoch
			}
		}
		s.cache = next
	case epoch < c.epoch:
		return nil
	}
	return s.cache
}

// withCache runs f on the epoch cache at epoch under snapMu, unless the
// cache has moved past epoch.
func (s *graphInstance) withCache(epoch uint64, f func(*epochCache)) {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	if c := s.cacheAt(epoch); c != nil {
		f(c)
	}
}

// snapshot returns the frozen graph at the current mutation epoch,
// compacting lazily through an epoch-pinned view: repeated jobs
// between mutations share one snapshot, and compaction runs entirely
// outside snapMu (check/claim, compact, publish), so a job hitting the
// cached epoch never waits behind a compacting writer and mutation
// batches never wait at all — the view reads multi-version chains
// while writers keep appending. The builder folds from the cache's prev
// snapshot when it has one. Concurrent misses on the same epoch
// coalesce on the builder's claim channel; a view older than the cache
// compacts the whole overlay on its own and publishes nothing.
func (s *graphInstance) snapshot() (*tufast.Graph, uint64, error) {
	view := s.dyn.View()
	defer view.Close()
	cur := view.Epoch()
	for {
		s.snapMu.Lock()
		c := s.cacheAt(cur)
		switch {
		case c == nil:
			s.snapMu.Unlock()
			g, err := s.compact(view, nil, 0)
			return g, cur, err
		case c.graph != nil:
			g := c.graph
			s.snapMu.Unlock()
			return g, cur, nil
		case c.build != nil:
			// Same-epoch compaction already in flight: wait for it and
			// re-check (it publishes on success; on failure we retry as
			// the builder).
			ch := c.build
			s.snapMu.Unlock()
			<-ch
			continue
		}
		ch := make(chan struct{})
		c.build = ch
		prev, prevEpoch := c.prev, c.prevEpoch
		s.snapMu.Unlock()

		if s.cfg.compactGate != nil {
			s.cfg.compactGate(cur)
		}
		g, err := s.compact(view, prev, prevEpoch)

		// If a newer epoch has started the cache afresh meanwhile, c is
		// no longer it, and what is published here reaches nobody.
		s.snapMu.Lock()
		c.build = nil
		if err == nil {
			c.graph, c.prev = g, nil
		}
		s.snapMu.Unlock()
		close(ch)
		return g, cur, err
	}
}

// compact builds view's snapshot, folded from prev at prevEpoch when it
// can be (see tufast.GraphView.CompactFrom), and times it into the
// folded or the full snapshot histogram.
func (s *graphInstance) compact(view *tufast.GraphView, prev *tufast.Graph, prevEpoch uint64) (*tufast.Graph, error) {
	start := time.Now()
	g, folded, err := view.CompactFrom(prev, prevEpoch)
	if err == nil {
		h := &s.met.snapshotFull
		if folded {
			h = &s.met.snapshotFolded
		}
		h.Record(uint64(time.Since(start)))
	}
	return g, err
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, struct {
		Error string `json:"error"`
	}{msg})
}
