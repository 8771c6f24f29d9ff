// Graph registry: multi-graph tenancy for tufastd.
//
// A graphInstance bundles everything that used to be singleton state on
// Server — the DynGraph and its runtime, the mutation seqlock bracket,
// the epoch cache, the job table, the standing-query manager, and the
// durability plane (WAL + checkpoints) rooted in a per-graph data-dir
// subdirectory. The Server keeps only fleet-wide state: the registry
// map, the shared bounded analytics worker pool and its admission
// queue, the listener, and drain control.
//
// Lifecycle: PUT /v1/graphs/{name} creates a named graph (empty, from
// an uploaded edge list, or generated), DELETE drains its jobs, closes
// its WAL, and removes its directory durably, and boot recovery scans
// <data-dir>/graphs/*/ re-opening every surviving graph through the
// same checkpoint-plus-WAL-replay path the default graph uses. Legacy
// unnamed routes (/v1/edges, /v1/jobs, …) alias the reserved "default"
// graph, so single-tenant clients keep working unchanged.
//
// Isolation: tenants share the worker pool but admission is governed
// per tenant. Quotas (all optional; zero = unlimited) bound in-flight
// analytics jobs, registered standing queries, and mutation-batch rate
// (token bucket); a quota violation sheds with 429 and a per-tenant
// Retry-After, so one hot tenant saturates its own quota instead of
// the fleet's queue.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tufast"
	"tufast/internal/fsx"
	"tufast/internal/wal"
)

// DefaultGraph is the reserved name the legacy unnamed routes alias;
// it cannot be created or deleted through the registry API.
const DefaultGraph = "default"

// defaultMutationBudget sizes the overlay arena of a registry-created
// graph when the create request names no budget.
const defaultMutationBudget = 200_000

var graphNameRE = regexp.MustCompile(`^[a-zA-Z0-9_-]{1,64}$`)

func validateGraphName(name string) error {
	if !graphNameRE.MatchString(name) {
		return fmt.Errorf("graph name %q must match %s", name, graphNameRE)
	}
	if name == DefaultGraph {
		return fmt.Errorf("graph name %q is reserved", DefaultGraph)
	}
	return nil
}

// Quotas are the per-tenant admission bounds. Zero values mean
// unlimited, so a quota-less graph behaves exactly like the
// single-tenant server did.
type Quotas struct {
	// MaxInflightJobs bounds this graph's queued-plus-running analytics
	// jobs; admission past it sheds 429 without touching the shared
	// queue, so a tenant cannot occupy more pool slots than its quota.
	MaxInflightJobs int `json:"max_inflight_jobs,omitempty"`
	// MaxStanding overrides Config.MaxStanding for this graph.
	MaxStanding int `json:"max_standing,omitempty"`
	// MutBatchRate sustains this many mutation batches per second
	// through a token bucket; MutBatchBurst is the bucket size (default
	// max(1, ceil(rate))). A drained bucket sheds 429 with Retry-After
	// telling the tenant when its next token lands.
	MutBatchRate  float64 `json:"mutation_batch_rate,omitempty"`
	MutBatchBurst float64 `json:"mutation_batch_burst,omitempty"`
}

// tokenBucket is a standard refill-on-read rate limiter. take is called
// with no other lock held (and takes none), so the mutex never appears
// inside another lock's critical section.
type tokenBucket struct {
	rate  float64 // tokens per second
	burst float64

	//tufast:lockorder 14
	mu     sync.Mutex
	tokens float64
	last   time.Time
}

func newTokenBucket(rate, burst float64) *tokenBucket {
	if burst < 1 {
		burst = math.Max(1, math.Ceil(rate))
	}
	return &tokenBucket{rate: rate, burst: burst, tokens: burst}
}

// take spends one token, reporting the whole seconds to wait (≥ 1)
// when the bucket is dry — the per-tenant Retry-After.
func (b *tokenBucket) take(now time.Time) (bool, int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.last.IsZero() {
		if dt := now.Sub(b.last).Seconds(); dt > 0 {
			b.tokens = math.Min(b.burst, b.tokens+dt*b.rate)
		}
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	wait := math.Ceil((1 - b.tokens) / b.rate)
	if wait < 1 {
		wait = 1
	}
	return false, int(wait)
}

// graphInstance is one tenant graph's complete serving plane. Field
// names and lock ranks mirror the pre-registry Server so the mutation,
// MVCC, standing, and durability protocols carry over unchanged; srv
// points back at the fleet-wide state (worker pool, drain control).
type graphInstance struct {
	name string
	srv  *Server
	cfg  Config // per-instance copy; quotas may override MaxStanding

	sys *tufast.System
	dyn *tufast.DynGraph

	// mutMu is the mutation bracket: one batch at a time applies, is
	// logged and is delivered to the standing queries, so WAL order and
	// the order queries hear of batches are both epoch order.
	//
	//tufast:lockorder 15
	mutMu sync.Mutex

	// snapMu guards the epoch cache (see withCache) — never held across a
	// compaction or a chain scan.
	//
	//tufast:lockorder 10
	snapMu sync.Mutex
	cache  *epochCache

	jobs jobTable

	standing *standingManager

	// Admission quotas. inflight counts queued-plus-running jobs, and
	// admissions still deciding (see admitJob); it is always maintained,
	// enforced only when the quota is set, and what drain waits on.
	// mutBucket is nil without a rate quota.
	quotas    Quotas
	inflight  atomic.Int64
	mutBucket *tokenBucket

	// Durability plane (nil wlog = ephemeral graph).
	//
	//tufast:lockorder 5
	ckptMu         sync.Mutex
	logClosed      bool // under ckptMu: teardown closed the log
	wlog           *wal.Log
	dur            DurabilityConfig
	man            manifest
	recovery       RecoveryInfo
	ckptEpochGauge atomic.Uint64

	met metrics

	// baseCtx is this graph's lifetime: derived from the server's, and
	// cancelled early by DELETE so the tenant's jobs, repairs, and
	// background loops unwind without touching the rest of the fleet.
	baseCtx      context.Context
	cancel       context.CancelFunc
	gcWG         sync.WaitGroup // gc + checkpoint loops
	loopsStarted atomic.Bool
	deleted      atomic.Bool
}

// newInstance builds the serving plane around d. Loops start via
// startLoops (from Server.Start, or immediately for a PUT-created graph
// on a running server).
func (s *Server) newInstance(name string, d *tufast.DynGraph, q Quotas) *graphInstance {
	ctx, cancel := context.WithCancel(s.baseCtx)
	g := &graphInstance{
		name:    name,
		srv:     s,
		cfg:     s.cfg,
		sys:     d.System(),
		dyn:     d,
		quotas:  q,
		baseCtx: ctx,
		cancel:  cancel,
	}
	if q.MaxStanding > 0 {
		g.cfg.MaxStanding = q.MaxStanding
	}
	if q.MutBatchRate > 0 {
		g.mutBucket = newTokenBucket(q.MutBatchRate, q.MutBatchBurst)
	}
	g.standing = newStandingManager(g)
	return g
}

// startLoops launches the per-graph background loops (chain GC,
// periodic checkpoints). Idempotent.
func (g *graphInstance) startLoops() {
	if !g.loopsStarted.CompareAndSwap(false, true) {
		return
	}
	if g.cfg.GCInterval > 0 {
		g.gcWG.Add(1)
		go g.gcLoop()
	}
	if g.wlog != nil && g.dur.CheckpointInterval > 0 {
		g.gcWG.Add(1)
		go g.checkpointLoop()
	}
}

// drain waits until none of g's jobs is queued or running. Callers set
// the server's draining flag or g's deleted flag first; admitJob counts
// a job before it checks them, so none can slip in behind the wait.
func (g *graphInstance) drain() {
	for g.inflight.Load() > 0 {
		time.Sleep(2 * time.Millisecond)
	}
}

// teardown ends g once draining or deleted is set; Shutdown, DELETE and
// boot-failure cleanup all end a graph here. Its context is cancelled,
// so running jobs stop at their next transaction boundary, queued ones
// as soon as they are dequeued, and repair workers and background loops
// exit; its jobs drain; a final checkpoint is written when asked for;
// and the log closes under ckptMu and mutMu: once those are held no
// checkpoint or append is in flight, a checkpoint that comes later is
// refused, and a mutation bracket that resolved g before the flags were
// set meets the closed log.
func (g *graphInstance) teardown(checkpoint bool) {
	g.cancel()
	g.drain()
	g.standing.stop()
	g.gcWG.Wait()
	if g.wlog == nil {
		return
	}
	if checkpoint {
		_, _ = g.checkpointNow()
	}
	g.ckptMu.Lock()
	g.logClosed = true
	g.mutMu.Lock()
	_ = g.wlog.Close()
	g.mutMu.Unlock()
	g.ckptMu.Unlock()
}

// buildDyn builds the runtime and overlay of a registry-created graph,
// its arena sized for mutationBudget ops (defaultMutationBudget if 0).
func (s *Server) buildDyn(base *tufast.Graph, mutationBudget int) *tufast.DynGraph {
	if mutationBudget <= 0 {
		mutationBudget = defaultMutationBudget
	}
	standingWords := s.cfg.MaxStanding * 4 * (base.NumVertices() + 8)
	sys := tufast.NewSystem(base, tufast.Options{
		Threads:    s.cfg.JobThreads,
		SpaceWords: tufast.DynSpaceWords(base, mutationBudget) + standingWords,
	})
	return tufast.NewDynGraph(sys)
}

// createSpec is the PUT /v1/graphs/{name} body, and (durable daemons)
// the GRAPH.json sidecar that lets boot recovery rebuild the runtime
// with the same sizing and quotas.
type createSpec struct {
	Name     string `json:"name,omitempty"`
	Vertices int    `json:"vertices"`
	// Exactly one topology source: an explicit edge list, a generated
	// uniform graph (AvgDegree > 0), or — both absent — an empty graph
	// populated later through the mutation plane.
	Edges      [][2]uint32 `json:"edges,omitempty"`
	AvgDegree  int         `json:"avg_degree,omitempty"`
	Seed       uint64      `json:"seed,omitempty"`
	Undirected bool        `json:"undirected"`
	// MutationBudget sizes the overlay arena (default 200k ops).
	MutationBudget int    `json:"mutation_budget,omitempty"`
	Quotas         Quotas `json:"quotas,omitempty"`
}

// maxCreateVertices bounds registry-created graphs: tenancy serves many
// modest graphs from one arena'd process, not one huge one.
const maxCreateVertices = 1 << 24

// maxGraphSpecBody bounds a PUT /v1/graphs/{name} body, which is mostly
// its edge list. Under maxCreateVertices the widest compact edge, with
// its comma, is `[16777215,16777215],` — 20 bytes — so 4 MiB carries an
// explicit base of defaultMutationBudget (200k) edges whatever their ids:
// a base as large as the overlay the graph is given. A larger graph is
// generated (avg_degree) or grown through the mutation plane.
const maxGraphSpecBody = 4 << 20

func (spec createSpec) validate() error {
	if spec.Vertices <= 0 {
		return fmt.Errorf("vertices must be positive, got %d", spec.Vertices)
	}
	if spec.Vertices > maxCreateVertices {
		return fmt.Errorf("vertices %d exceeds max %d", spec.Vertices, maxCreateVertices)
	}
	if len(spec.Edges) > 0 && spec.AvgDegree > 0 {
		return fmt.Errorf("edges and avg_degree are mutually exclusive")
	}
	n := uint32(spec.Vertices)
	for i, e := range spec.Edges {
		if e[0] >= n || e[1] >= n {
			return fmt.Errorf("edge %d: vertex out of range [0,%d)", i, n)
		}
	}
	if q := spec.Quotas; q.MaxInflightJobs < 0 || q.MaxStanding < 0 ||
		q.MutBatchRate < 0 || q.MutBatchBurst < 0 {
		return fmt.Errorf("quotas must be non-negative")
	}
	return nil
}

// buildFromSpec materializes the base topology. Deterministic given the
// spec, which is what lets a durable graph's GRAPH.json serve as its
// loadBase on a boot that finds no checkpoint (a create that crashed
// before its day-zero checkpoint landed).
func buildFromSpec(spec createSpec) (*tufast.Graph, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	switch {
	case len(spec.Edges) > 0:
		pairs := make([]tufast.EdgePair, len(spec.Edges))
		for i, e := range spec.Edges {
			pairs[i] = tufast.EdgePair{U: e[0], V: e[1]}
		}
		return tufast.BuildGraph(spec.Vertices, pairs, spec.Undirected)
	case spec.AvgDegree > 0:
		g := tufast.GenerateUniform(spec.Vertices, spec.AvgDegree, spec.Seed)
		if spec.Undirected {
			g = g.Undirect()
		}
		return g, nil
	default:
		return tufast.BuildGraph(spec.Vertices, nil, spec.Undirected)
	}
}

func graphSpecPath(dir string) string { return filepath.Join(dir, "GRAPH.json") }

func saveGraphSpec(dir string, spec createSpec) error {
	return fsx.WriteFileAtomic(graphSpecPath(dir), func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(spec)
	})
}

func loadGraphSpec(dir string) (createSpec, error) {
	var spec createSpec
	raw, err := os.ReadFile(graphSpecPath(dir))
	if err != nil {
		return spec, err
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return spec, fmt.Errorf("parse %s: %w", graphSpecPath(dir), err)
	}
	return spec, nil
}

// graphInfo is the wire form of one registry entry.
type graphInfo struct {
	Name       string  `json:"name"`
	Vertices   int     `json:"vertices"`
	Epoch      uint64  `json:"epoch"`
	Undirected bool    `json:"undirected"`
	Durable    bool    `json:"durable"`
	Quotas     *Quotas `json:"quotas,omitempty"`
}

func (g *graphInstance) info() graphInfo {
	gi := graphInfo{
		Name:       g.name,
		Vertices:   g.dyn.NumVertices(),
		Epoch:      g.dyn.Epoch(),
		Undirected: g.dyn.Undirected(),
		Durable:    g.wlog != nil,
	}
	if g.quotas != (Quotas{}) {
		q := g.quotas
		gi.Quotas = &q
	}
	return gi
}

// lookupGraph resolves a registered graph by name.
func (s *Server) lookupGraph(name string) *graphInstance {
	s.regMu.RLock()
	defer s.regMu.RUnlock()
	return s.graphs[name]
}

// withGraph adapts a per-graph handler onto the named routes; regMu is
// released before the handler runs, so registry resolution never spans
// a request's work.
func (s *Server) withGraph(h func(*graphInstance, http.ResponseWriter, *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		g := s.lookupGraph(r.PathValue("name"))
		if g == nil {
			writeError(w, http.StatusNotFound, fmt.Sprintf("unknown graph %q", r.PathValue("name")))
			return
		}
		h(g, w, r)
	}
}

// onDefault adapts a per-graph handler onto the legacy unnamed routes.
func (s *Server) onDefault(h func(*graphInstance, http.ResponseWriter, *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		h(s.def, w, r)
	}
}

// instances returns the registered graphs.
func (s *Server) instances() []*graphInstance {
	s.regMu.RLock()
	defer s.regMu.RUnlock()
	insts := make([]*graphInstance, 0, len(s.graphs))
	for _, g := range s.graphs {
		insts = append(insts, g)
	}
	return insts
}

func (s *Server) handleGraphList(w http.ResponseWriter, _ *http.Request) {
	insts := s.instances()
	sort.Slice(insts, func(i, j int) bool { return insts[i].name < insts[j].name })
	infos := make([]graphInfo, len(insts))
	for i, g := range insts {
		infos[i] = g.info()
	}
	writeJSON(w, http.StatusOK, struct {
		Graphs []graphInfo `json:"graphs"`
	}{infos})
}

// handleGraphPut serves PUT /v1/graphs/{name}: create a named graph
// from the posted spec. 409 when the name exists (or a create/delete
// for it is still in flight); creation failure leaves no trace.
func (s *Server) handleGraphPut(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if err := validateGraphName(name); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	var spec createSpec
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxGraphSpecBody)).Decode(&spec); err != nil {
		if cut := (*http.MaxBytesError)(nil); errors.As(err, &cut) {
			writeError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("graph spec exceeds %d bytes", cut.Limit))
			return
		}
		writeError(w, http.StatusBadRequest, "bad spec: "+err.Error())
		return
	}
	spec.Name = name
	if err := spec.validate(); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}

	// Reserve the name so concurrent PUTs (and a racing DELETE's
	// directory teardown) serialize without holding regMu across the
	// build. Draining is checked here, under regMu, so a reservation
	// either precedes Shutdown's wait for the registry to settle or is
	// refused.
	s.regMu.Lock()
	if s.draining.Load() {
		s.regMu.Unlock()
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	if _, ok := s.graphs[name]; ok || s.busy[name] {
		s.regMu.Unlock()
		writeError(w, http.StatusConflict, fmt.Sprintf("graph %q already exists", name))
		return
	}
	s.busy[name] = true
	s.regMu.Unlock()
	unreserve := func() {
		s.regMu.Lock()
		delete(s.busy, name)
		s.regMu.Unlock()
	}

	var g *graphInstance
	if s.dataDir != "" {
		dir := filepath.Join(s.dataDir, "graphs", name)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			unreserve()
			writeError(w, http.StatusInternalServerError, "create: "+err.Error())
			return
		}
		// The graphs/ dir entry must be durable before anything inside
		// it claims to be; the spec lands first so boot recovery can
		// tell a real graph (GRAPH.json present) from a partial create.
		_ = fsx.SyncDir(filepath.Join(s.dataDir, "graphs"))
		if err := saveGraphSpec(dir, spec); err != nil {
			_ = fsx.RemoveTreeDurable(dir)
			unreserve()
			writeError(w, http.StatusInternalServerError, "create: "+err.Error())
			return
		}
		gi, err := s.openNamedInstance(name, dir, spec)
		if err != nil {
			_ = fsx.RemoveTreeDurable(dir)
			unreserve()
			writeError(w, http.StatusInternalServerError, "create: "+err.Error())
			return
		}
		g = gi
	} else {
		base, err := buildFromSpec(spec)
		if err != nil {
			unreserve()
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		g = s.newInstance(name, s.buildDyn(base, spec.MutationBudget), spec.Quotas)
	}

	s.regMu.Lock()
	s.graphs[name] = g
	delete(s.busy, name)
	s.regMu.Unlock()
	g.startLoops()
	writeJSON(w, http.StatusCreated, g.info())
}

// handleGraphDelete serves DELETE /v1/graphs/{name}: unregister (new
// requests 404 immediately), cancel the tenant's jobs, tear it down
// without a checkpoint, and remove the data directory durably. Refused
// while draining, like PUT: Shutdown tears down every graph itself.
func (s *Server) handleGraphDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if name == DefaultGraph {
		writeError(w, http.StatusBadRequest, "the default graph cannot be deleted")
		return
	}
	s.regMu.Lock()
	g := s.graphs[name]
	switch {
	case s.draining.Load():
		s.regMu.Unlock()
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	case g == nil || s.busy[name]:
		s.regMu.Unlock()
		writeError(w, http.StatusNotFound, fmt.Sprintf("unknown graph %q", name))
		return
	}
	delete(s.graphs, name)
	s.busy[name] = true
	s.regMu.Unlock()

	g.deleted.Store(true)
	g.teardown(false)
	var rmErr error
	if g.wlog != nil {
		rmErr = fsx.RemoveTreeDurable(g.dur.DataDir)
	}

	s.regMu.Lock()
	delete(s.busy, name)
	s.regMu.Unlock()
	if rmErr != nil {
		writeError(w, http.StatusInternalServerError, "delete: "+rmErr.Error())
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Deleted string `json:"deleted"`
	}{name})
}
