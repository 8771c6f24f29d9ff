package bench

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"tufast/internal/algo"
	"tufast/internal/baselines"
	"tufast/internal/core"
	"tufast/internal/engines/bsp"
	"tufast/internal/engines/dist"
	"tufast/internal/engines/lockstep"
	"tufast/internal/engines/numa"
	"tufast/internal/engines/ooc"
	"tufast/internal/graph"
	"tufast/internal/mem"
	"tufast/internal/sched"
	"tufast/internal/vlock"
)

// The comparison systems of §VI, keyed by the id cmd/tufast's -system
// takes. A row is either a TM scheduler, built over a fresh space per run
// and taxed like every scheduler a figure measures, or an engine, built
// over a graph by Open. Figures label the rows as the paper does.
var systems = []system{
	{id: "tufast", sched: func(sp *mem.Space, n int) sched.Scheduler { return newTuFast(sp, n, core.Config{}) }},
	{id: "2pl", sched: func(sp *mem.Space, n int) sched.Scheduler { return taxed(sched.NewTPL(sp, vlock.NewTable(n))) }},
	{id: "2pl-exclusive", sched: func(sp *mem.Space, n int) sched.Scheduler {
		tpl := taxed(sched.NewTPL(sp, vlock.NewTable(n)))
		// Fig. 7's 2PL locks exclusively up front, as production 2PL does
		// for read-then-update work: on the S-to-X upgrade path its waits
		// abort under contention, and it could not win at high contention.
		tpl.SetExclusiveOnly(true)
		return tpl
	}},
	{id: "occ", sched: func(sp *mem.Space, n int) sched.Scheduler { return taxed(baselines.NewOCC(sp, vlock.NewTable(n))) }},
	{id: "to", sched: func(sp *mem.Space, n int) sched.Scheduler { return taxed(baselines.NewTO(sp, vlock.NewTable(n), n)) }},
	{id: "stm", sched: func(sp *mem.Space, n int) sched.Scheduler { return taxed(baselines.NewSTM(sp)) }},
	{id: "hsync", sched: func(sp *mem.Space, n int) sched.Scheduler { return taxed(baselines.NewHSync(sp, 8)) }},
	{id: "hto", sched: func(sp *mem.Space, n int) sched.Scheduler {
		return taxed(baselines.NewHTO(sp, vlock.NewTable(n), n, 1000))
	}},
	{id: "ligra", engine: func(g, gu *graph.CSR, threads, _ int) (engine, error) {
		return engine{dir: runSync(bsp.New(g, threads)), undir: runSync(bsp.New(gu, threads))}, nil
	}},
	{id: "polymer", engine: func(g, gu *graph.CSR, threads, _ int) (engine, error) {
		return engine{dir: runSync(polymer{bsp.New(g, threads), numa.New(g, threads, 2)}), undir: runSync(bsp.New(gu, threads))}, nil
	}},
	{id: "galois", engine: func(g, gu *graph.CSR, threads, _ int) (engine, error) {
		return engine{dir: runSync(galois{lockstep.New(g, threads)}), undir: runSync(galois{lockstep.New(gu, threads)})}, nil
	}},
	{id: "powergraph", engine: openDist(dist.EdgeCut)},
	{id: "powerlyra", engine: openDist(dist.HybridCut)},
	{id: "graphchi", engine: openOOC},
}

// system is one row of the table: a scheduler or an engine.
type system struct {
	id     string
	sched  func(sp *mem.Space, n int) sched.Scheduler
	engine func(g, gu *graph.CSR, threads, nodes int) (engine, error)
}

// lookup returns the table's row for id, or nil.
func lookup(id string) *system {
	if i := slices.IndexFunc(systems, func(s system) bool { return s.id == id }); i >= 0 {
		return &systems[i]
	}
	return nil
}

// SystemIDs lists the table's ids in its order.
func SystemIDs() []string {
	ids := make([]string, len(systems))
	for i, s := range systems {
		ids[i] = s.id
	}
	return ids
}

// Apps lists the applications a Runner prepares, by the names cmd/tufast
// takes. Engines run all but matching, which needs transactions.
var Apps = []string{"pagerank", "bfs", "wcc", "triangle", "bellman-ford", "spfa", "mis", "matching"}

// newScheduler builds the TM scheduler with the given id over sp.
func newScheduler(id string, sp *mem.Space, n int) sched.Scheduler {
	return lookup(id).sched(sp, n)
}

// Answer is one application's result; the application fills its field.
type Answer struct {
	Levels    []uint64  // bfs: hops from the source, algo.None if unreached
	Labels    []uint64  // wcc: a component label per vertex
	Dist      []uint64  // bellman-ford, spfa: distance, algo.None if unreached
	InSet     []bool    // mis
	Match     []uint64  // matching: the partner, algo.None if unmatched
	Ranks     []float64 // pagerank
	Triangles uint64    // triangle
}

// String summarises the answer in counts.
func (a Answer) String() string {
	switch {
	case a.Levels != nil:
		return fmt.Sprintf("visited %d vertices", count(a.Levels, algo.None))
	case a.Labels != nil:
		labels := slices.Clone(a.Labels)
		slices.Sort(labels)
		return fmt.Sprintf("%d components", len(slices.Compact(labels)))
	case a.Dist != nil:
		return fmt.Sprintf("reached %d vertices", count(a.Dist, algo.None))
	case a.InSet != nil:
		return fmt.Sprintf("independent set of %d", count(a.InSet, false))
	case a.Match != nil:
		return fmt.Sprintf("%d matched pairs", count(a.Match, algo.None)/2)
	case a.Ranks != nil:
		var sum float64
		for _, r := range a.Ranks {
			sum += r
		}
		return fmt.Sprintf("ranks of %d vertices sum to %.6g", len(a.Ranks), sum)
	}
	return fmt.Sprintf("%d triangles", a.Triangles)
}

// count counts the entries of xs that are not none.
func count[T comparable](xs []T, none T) int {
	n := 0
	for _, x := range xs {
		if x != none {
			n++
		}
	}
	return n
}

// Runner runs the applications of one system on a graph and its
// undirected view.
type Runner struct {
	id      string
	g, gu   *graph.CSR
	threads int
	sched   func(sp *mem.Space, n int) sched.Scheduler
	engine  // zero on a TM system

	// Ctx, when non-nil, cancels the TM runs Prepare sets up after it is
	// set. Engines do not stop early.
	Ctx context.Context
	// Sched is the scheduler of the run Prepare set up last; nil on an
	// engine.
	Sched sched.Scheduler
}

// engine is one comparison engine built over a graph and over its
// undirected view.
type engine struct {
	dir, undir func(app string, source uint32) (Answer, error)
	counters   func() string // what both moved; nil if the engine counts nothing
	close      func() error  // nil if there is nothing to release
}

// Open builds system id over g and gu, the undirected view of g that
// wcc, triangle, mis and matching run on. An engine is set up here,
// partitions and out-of-core shards included, so that no timed run pays
// for it; threads are the workers of every run and nodes the simulated
// machines of powergraph and powerlyra.
func Open(id string, g, gu *graph.CSR, threads, nodes int) (*Runner, error) {
	s := lookup(id)
	if s == nil {
		return nil, fmt.Errorf("unknown system %q (one of %s)", id, strings.Join(SystemIDs(), ", "))
	}
	r := &Runner{id: id, g: g, gu: gu, threads: threads, sched: s.sched}
	if s.engine != nil {
		var err error
		if r.engine, err = s.engine(g, gu, threads, nodes); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// Prepare sets up app from source (the traversals' start vertex) and
// returns the run; the run is the region a figure times. A TM system
// gets a fresh space, scheduler and algo.Runtime here.
func (r *Runner) Prepare(app string, source uint32) (func() (Answer, error), error) {
	if !slices.Contains(Apps, app) {
		return nil, fmt.Errorf("unknown application %q (one of %s)", app, strings.Join(Apps, ", "))
	}
	gr, run := r.g, r.dir
	// §VI-A: "we convert our graphs into undirected ones" for these.
	if app == "wcc" || app == "triangle" || app == "mis" || app == "matching" {
		gr, run = r.gu, r.undir
	}
	switch {
	case run != nil && app == "matching":
		return nil, fmt.Errorf("%s does not run %s, which needs transactions", r.id, app)
	case run != nil:
		return func() (Answer, error) { return run(app, source) }, nil
	}
	sp := mem.NewSpace(algo.SpaceWordsFor(gr.NumVertices()))
	r.Sched = r.sched(sp, gr.NumVertices())
	rt := algo.NewRuntime(gr, sp, r.Sched, r.threads).WithContext(r.Ctx)
	return func() (Answer, error) { return runTM(rt, app, source) }, nil
}

// Counters reports what an engine moved over its runs so far (network
// bytes, file I/O); "" for a TM system and the in-memory engines.
func (r *Runner) Counters() string {
	if r.counters == nil {
		return ""
	}
	return r.counters()
}

// Close releases an engine's files.
func (r *Runner) Close() error {
	if r.close == nil {
		return nil
	}
	return r.close()
}

// runTM runs app on a TM runtime.
func runTM(r *algo.Runtime, app string, source uint32) (Answer, error) {
	switch app {
	case "pagerank":
		res, err := algo.PageRank(r, prDamping, prEps)
		return Answer{Ranks: orZero(res).Rank}, err
	case "bfs":
		res, err := algo.BFS(r, source)
		return Answer{Levels: orZero(res).Level}, err
	case "wcc":
		res, err := algo.WCC(r)
		return Answer{Labels: orZero(res).Component}, err
	case "triangle":
		res, err := algo.Triangles(r)
		return Answer{Triangles: orZero(res).Triangles}, err
	case "bellman-ford":
		res, err := algo.BellmanFord(r, source)
		return Answer{Dist: orZero(res).Dist}, err
	case "spfa":
		res, err := algo.SPFA(r, source)
		return Answer{Dist: orZero(res).Dist}, err
	case "mis":
		res, err := algo.MIS(r)
		return Answer{InSet: orZero(res).InSet}, err
	default: // matching, the last of Apps
		res, err := algo.MaximalMatching(r)
		return Answer{Match: orZero(res).Match}, err
	}
}

// orZero returns *res, or the zero result of an application that failed.
func orZero[R any](res *R) R {
	if res == nil {
		var zero R
		return zero
	}
	return *res
}

// syncEngine is the application set of the bulk-synchronous engines:
// bsp (Ligra) and dist (PowerGraph, PowerLyra) as they are, numa
// (Polymer) and lockstep (Galois) through the adapters below.
type syncEngine interface {
	PageRank(d, eps float64) ([]float64, int)
	BFS(source uint32) []uint64
	WCC() []uint64
	Triangles() uint64
	SSSP(source uint32) []uint64
	MIS(seed uint64) []bool
}

// polymer is Ligra's BSP engine with Polymer's NUMA-partitioned PageRank
// over two sockets.
type polymer struct {
	*bsp.Engine
	numa *numa.Engine
}

func (e polymer) PageRank(d, eps float64) ([]float64, int) { return e.numa.PageRank(d, eps) }

// galois adapts lockstep, whose PageRank counts no supersteps and whose
// MIS is seeded by the schedule.
type galois struct{ *lockstep.Engine }

func (e galois) PageRank(d, eps float64) ([]float64, int) { return e.Engine.PageRank(d, eps), 0 }
func (e galois) MIS(uint64) []bool                        { return e.Engine.MIS() }

func runSync(e syncEngine) func(string, uint32) (Answer, error) {
	return func(app string, source uint32) (a Answer, err error) {
		switch app {
		case "pagerank":
			a.Ranks, _ = e.PageRank(prDamping, prEps)
		case "bfs":
			a.Levels = e.BFS(source)
		case "wcc":
			a.Labels = e.WCC()
		case "triangle":
			a.Triangles = e.Triangles()
		case "bellman-ford", "spfa":
			a.Dist = e.SSSP(source)
		case "mis":
			a.InSet = e.MIS(1)
		}
		return a, nil
	}
}

// openDist partitions both graphs over the simulated cluster with the
// given cut.
func openDist(cut dist.Cut) func(g, gu *graph.CSR, threads, nodes int) (engine, error) {
	return func(g, gu *graph.CSR, _, nodes int) (engine, error) {
		e, eu := dist.New(g, dist.Config{Nodes: nodes, Cut: cut}), dist.New(gu, dist.Config{Nodes: nodes, Cut: cut})
		return engine{dir: runSync(e), undir: runSync(eu), counters: func() string {
			return fmt.Sprintf("moved %.1f MB over %d supersteps, %v simulated network",
				float64(e.BytesMoved+eu.BytesMoved)/1e6, e.Supersteps+eu.Supersteps, e.NetworkTime+eu.NetworkTime)
		}}, nil
	}
}

// openOOC shards each graph into 8 files in a directory of its own.
func openOOC(g, gu *graph.CSR, _, _ int) (engine, error) {
	tmp, err := os.MkdirTemp("", "tufast-graphchi-")
	if err != nil {
		return engine{}, err
	}
	var es [2]*ooc.Engine
	for i, gr := range []*graph.CSR{g, gu} {
		dir := filepath.Join(tmp, strconv.Itoa(i))
		if err = os.Mkdir(dir, 0o700); err == nil {
			es[i], err = ooc.New(gr, dir, 8)
		}
		if err != nil {
			os.RemoveAll(tmp)
			return engine{}, err
		}
	}
	e, eu := es[0], es[1]
	return engine{dir: runOOC(e), undir: runOOC(eu),
		counters: func() string {
			return fmt.Sprintf("%.1f MB read, %.1f MB written, %d iterations", float64(e.BytesRead+eu.BytesRead)/1e6,
				float64(e.BytesWritten+eu.BytesWritten)/1e6, e.Iterations+eu.Iterations)
		},
		close: func() error { return os.RemoveAll(tmp) },
	}, nil
}

func runOOC(e *ooc.Engine) func(string, uint32) (Answer, error) {
	return func(app string, source uint32) (a Answer, err error) {
		switch app {
		case "pagerank":
			a.Ranks, err = e.PageRank(prDamping, prEps)
		case "bfs":
			a.Levels, err = e.BFS(source)
		case "wcc":
			a.Labels, err = e.WCC()
		case "triangle":
			a.Triangles, err = e.Triangles()
		case "bellman-ford", "spfa":
			a.Dist, err = e.SSSP(source)
		case "mis":
			a.InSet, err = e.MIS(1)
		}
		return a, err
	}
}
