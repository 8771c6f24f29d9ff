// Package algo implements the paper's §VI-A application suite — PageRank,
// BFS, weakly connected components, triangle counting, Bellman-Ford/SPFA
// shortest paths, maximal independent set, and greedy maximal matching —
// once, against the sched.Scheduler interface, so identical user code runs
// on TuFast and on every baseline scheduler the paper compares.
//
// It is also the home of the module's one driver (the paper's Table I
// parallel_for and Fig. 3 queue loop over one set of per-thread TM
// contexts): Runtime owns the worker pool, the vertex sweep and the queued
// drain that tufast.System, the stream applier, package algorithms, the
// figures and cmd/tufast all run on.
package algo

import (
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"

	"tufast/internal/graph"
	"tufast/internal/mem"
	"tufast/internal/sched"
	"tufast/internal/worklist"
)

// Runtime binds a graph, a shared memory space and a scheduler into the
// execution environment the algorithms run in.
type Runtime struct {
	G       *graph.CSR
	Sp      *mem.Space
	S       sched.Scheduler
	Threads int

	// Ctx, when non-nil, cancels every sweep this runtime drives: the
	// drivers check it at chunk boundaries and in their quiesce loops and
	// return its error, so whole algorithms become cancellable without
	// threading a context through each one.
	Ctx context.Context

	// workers is shared by every view of the runtime (WithContext).
	workers *pool
}

// pool is the scheduler's worker contexts. A thread id is bound to its
// worker for life — vertex-lock ownership, the deadlock detector's hold
// lists and H mode's "the stamp's owner is me" are all per id and assume
// one goroutine per id — so there is one pool per scheduler, ids are
// minted once, and idle workers wait on an explicit free list rather than
// in a sync.Pool, which could drop and re-mint them past the id budget.
type pool struct {
	//tufast:lockorder 10
	mu      sync.Mutex
	free    []*Worker
	created int
}

// Worker is a leased scheduler context: one thread id's worker, for one
// goroutine at a time.
type Worker struct {
	inner sched.Worker
	cw    sched.CtxWorker // inner, when its Run can be cancelled
	// busy is set for the duration of a Run call; it stays set only when
	// a panic unwound the call, marking in-flight state for Release.
	busy bool
	// warmed sums the words the drivers' warms loaded on this worker
	// (see Runtime.warm), so the compiler keeps the loads. Nothing reads it.
	warmed uint64
}

// Run executes fn as one serializable transaction. With a cancellable ctx
// the transaction stops retrying (and, on a worker that can, stops
// waiting for locks) and returns ctx.Err(); a nil ctx never cancels.
func (w *Worker) Run(ctx context.Context, sizeHint int, fn sched.TxFunc) error {
	w.busy = true
	var err error
	if w.cw != nil {
		err = w.cw.RunCtx(ctx, sizeHint, fn)
	} else {
		// A worker that cannot stop mid-transaction stops between them.
		if ctx != nil {
			err = ctx.Err()
		}
		if err == nil {
			err = w.inner.Run(sizeHint, fn)
		}
	}
	w.busy = false
	return err
}

// ctx returns the runtime's context, defaulting to Background.
func (r *Runtime) ctx() context.Context {
	if r.Ctx != nil {
		return r.Ctx
	}
	return context.Background()
}

// NewRuntime creates a Runtime; threads <= 0 means GOMAXPROCS. The space
// must be large enough for the algorithm's property arrays (SpaceWordsFor
// sizes it).
func NewRuntime(g *graph.CSR, sp *mem.Space, s sched.Scheduler, threads int) *Runtime {
	if threads <= 0 {
		threads = runtime.GOMAXPROCS(0)
	}
	return &Runtime{G: g, Sp: sp, S: s, Threads: threads, workers: new(pool)}
}

// WithContext returns a view of r bound to ctx: the same graph, space,
// scheduler and worker pool, with every sweep and transaction it drives
// cancelled by ctx.
func (r *Runtime) WithContext(ctx context.Context) *Runtime {
	v := *r
	v.Ctx = ctx
	return &v
}

// SpaceWordsFor returns a space size (in words) ample for any algorithm
// in this package on a graph with n vertices.
func SpaceWordsFor(n int) int { return 24*(n+8) + 4096 }

// NewVertexArray allocates one word per vertex initialized to init and
// returns the base address.
func (r *Runtime) NewVertexArray(init uint64) mem.Addr {
	n := r.G.NumVertices()
	base := r.Sp.AllocLineAligned(n)
	if init != 0 {
		for i := 0; i < n; i++ {
			r.Sp.Store(base+mem.Addr(i), init)
		}
	}
	return base
}

// Lease returns a worker for the calling goroutine's exclusive use until
// Release: an idle one, or the next thread id's.
func (r *Runtime) Lease() *Worker {
	p := r.workers
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.free); n > 0 {
		w := p.free[n-1]
		p.free = p.free[:n-1]
		return w
	}
	inner := r.S.Worker(p.created)
	p.created++
	cw, _ := inner.(sched.CtxWorker)
	return &Worker{inner: inner, cw: cw}
}

// Release returns a worker obtained from Lease to the pool.
//
// A worker whose last transaction was unwound by a panic (its Run call
// never returned) may still carry in-flight state: held vertex locks,
// an open undo log, escalated backoff. Pooling such a worker as-is would
// poison a later transaction, so Release first asks the scheduler to
// verifiably reset it (releasing leftover locks and rolling back in-place
// writes); if the scheduler cannot, the worker is discarded — its thread
// id is retired rather than recycled into a corrupted context.
func (r *Runtime) Release(w *Worker) {
	if w.busy {
		a, ok := w.inner.(sched.Abandoner)
		if !ok || !a.AbandonInFlight() {
			return // discard: never pool a worker with in-flight state
		}
		w.busy = false
	}
	p := r.workers
	p.mu.Lock()
	p.free = append(p.free, w)
	p.mu.Unlock()
}

// trimIdle has every idle worker that can (sched.Trimmer) shed the scratch
// a giant transaction grew. A pooled worker lives as long as the scheduler
// and the next whole-graph call may never come, so ForEachVertex and Drain
// end with it; leases that come and go between them (Atomic, a stream's
// windows) keep what they grew, because the next one is about to need it
// again: regrowing a hub-sized footprint costs about what running it does.
func (r *Runtime) trimIdle() {
	p := r.workers
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, w := range p.free {
		if t, ok := w.inner.(sched.Trimmer); ok {
			t.TrimScratch()
		}
	}
}

// label tags the calling goroutine for CPU profiles with the driver and
// the worker slot it runs (pprof -tagfocus / -taghide).
func label(ctx context.Context, driver string, tid int) {
	pprof.SetGoroutineLabels(pprof.WithLabels(ctx, pprof.Labels(
		"tufast", driver, "worker", strconv.Itoa(tid))))
}

// Sweep is the module's parallel_for: it runs step(i) for every i in
// [0, n) on up to r.Threads goroutines that claim grain indices at a time
// (dynamically, so skewed costs still balance). start runs once on each
// goroutine, with the worker leased to it for the whole sweep, and returns
// that goroutine's step — which runs the transaction for one index on that
// worker and whatever must follow its commit. The first error stops the
// sweep (best effort) and is returned; the runtime's context stops it at
// the next chunk boundary, or transaction, with the context's error.
func (r *Runtime) Sweep(driver string, n, grain int, start func(tid int, w *Worker) (step func(i int) error)) error {
	ctx := r.ctx()
	var firstErr atomic.Value
	type slot struct {
		w    *Worker
		step func(i int) error
	}
	slots := make([]slot, r.Threads) // tid is one goroutine's for the whole sweep
	defer func() {
		for _, s := range slots {
			if s.w != nil {
				r.Release(s.w)
			}
		}
		// A sweep too small to fan out ran on the caller's goroutine.
		pprof.SetGoroutineLabels(ctx)
	}()
	err := worklist.RangeCtx(ctx, n, r.Threads, grain, func(tid, lo, hi int) {
		s := &slots[tid]
		if s.w == nil {
			label(ctx, driver, tid)
			s.w = r.Lease()
			s.step = start(tid, s.w)
		}
		for i := lo; i < hi && firstErr.Load() == nil; i++ {
			if err := s.step(i); err != nil {
				firstErr.CompareAndSwap(nil, err)
				return
			}
		}
	})
	if err != nil {
		return err
	}
	if e := firstErr.Load(); e != nil {
		return e.(error)
	}
	return nil
}

// NoWarm is the array argument of a driver whose body's footprint is
// unknown (a user's body, or one that reads no vertex array across v's
// neighbourhood): nothing is warmed before its transactions.
const NoWarm = ^mem.Addr(0)

// warm loads, without using them, the words a transaction over v's
// neighbourhood reads first from the vertex array at arr: v's and each
// neighbour's data word and its line's version word. The transaction's
// reads each sit at the end of the TM's long read path, so the CPU takes
// their misses one at a time; these plain loads have nothing between
// them, so their misses are in flight together and the transaction finds
// its lines in cache or on their way (group prefetching, as
// dyngraph.Store.Warm does for owned batches). It runs once per
// transaction, before the first attempt and outside the TxFunc: nothing
// it loads is used, so it changes no outcome. It returns the loaded
// words' sum.
func (r *Runtime) warm(arr mem.Addr, v uint32) uint64 {
	sp := r.Sp
	a := arr + mem.Addr(v)
	sum := sp.Load(a) + sp.Meta(mem.LineOf(a))
	for _, u := range r.G.Neighbors(v) {
		a := arr + mem.Addr(u)
		sum += sp.Load(a) + sp.Meta(mem.LineOf(a))
	}
	return sum
}

// ForEachVertex runs fn for every vertex as its own transaction with the
// degree as the size hint (parallel_for + BEGIN(degree[v])). arr is the
// one vertex array fn reads across v's neighbourhood, warmed before each
// transaction (see warm), or NoWarm. When the runtime carries a context,
// cancellation stops the sweep at the next chunk or vertex boundary and
// the context's error is returned.
func (r *Runtime) ForEachVertex(arr mem.Addr, fn func(tx sched.Tx, v uint32) error) error {
	defer r.trimIdle()
	return r.Sweep("foreach_vertex", r.G.NumVertices(), 256, func(_ int, w *Worker) func(int) error {
		// One body per goroutine, not per vertex: cur is the vertex in hand.
		var cur uint32
		body := func(tx sched.Tx) error { return fn(tx, cur) }
		return func(v int) error {
			cur = uint32(v)
			if arr != NoWarm {
				w.warmed += r.warm(arr, cur)
			}
			return w.Run(r.Ctx, r.G.Degree(cur)*2+2, body)
		}
	})
}

// Source is a work queue the queued driver drains and refills
// (worklist.Queue or worklist.PQ adapters satisfy it). Push receives the
// emits of a committed transaction; FIFO adapters ignore prio. The
// adapters below also carry what worklist.Drain looks for: the FIFOs'
// chunk methods, PQSource's PopPrio.
type Source interface {
	Pop() (uint32, bool)
	Push(v uint32, prio uint64)
	Len() int
}

// FIFOSource adapts worklist.Queue.
type FIFOSource struct{ *worklist.Queue }

// Pop implements Source.
func (s FIFOSource) Pop() (uint32, bool) { return s.Queue.Pop() }

// Push implements Source (prio ignored).
func (s FIFOSource) Push(v uint32, _ uint64) { s.Queue.Push(v) }

// PQSource adapts worklist.PQ.
type PQSource struct{ *worklist.PQ }

// Pop implements Source.
func (s PQSource) Pop() (uint32, bool) {
	v, _, ok := s.PQ.Pop()
	return v, ok
}

// PopPrio lets the driver hand each body the priority its vertex was
// popped with.
func (s PQSource) PopPrio() (uint32, uint64, bool) { return s.PQ.Pop() }

// Push implements Source.
func (s PQSource) Push(v uint32, prio uint64) { s.PQ.Push(v, prio) }

// DedupFIFO is a FIFOSource with a flush-time bitset guard: a vertex
// already marked queued is not re-enqueued. Algorithms that clear the bit
// at the start of processing (kcore, pagerank) use it to keep hubs from
// being enqueued once per activating neighbor. The dedup must live here —
// at the post-commit flush — not inside the transaction: an aborted
// attempt's test-and-set would otherwise leave the bit set with no push
// behind it, permanently suppressing the wakeup.
type DedupFIFO struct {
	Q      *worklist.Queue
	Queued *worklist.Bitset
}

// Pop implements Source.
func (s DedupFIFO) Pop() (uint32, bool) { return s.Q.Pop() }

// PopChunk lets the driver poll a chunk at a time.
func (s DedupFIFO) PopChunk(buf []uint32) int { return s.Q.PopChunk(buf) }

// Push implements Source (prio ignored).
func (s DedupFIFO) Push(v uint32, _ uint64) {
	if s.Queued.TestAndSet(v) {
		s.Q.Push(v)
	}
}

// PushChunk is Push for a worker's whole batch of emits: the ones not
// queued yet are kept (in place — the driver is done with items) and
// pushed together.
func (s DedupFIFO) PushChunk(items []worklist.Item) {
	fresh := items[:0]
	for _, it := range items {
		if s.Queued.TestAndSet(it.V) {
			fresh = append(fresh, it)
		}
	}
	s.Q.PushChunk(fresh)
}

// Len implements Source.
func (s DedupFIFO) Len() int { return s.Q.Len() }

// ForEachQueued drains q with r.Threads workers, one transaction per
// polled vertex, and returns how many transactions committed. fn gets the
// priority the vertex was popped with (0 from a FIFO) and re-activates
// vertices through emit, NOT by pushing into q directly: emits are
// buffered and flushed to q only after the transaction commits
// (aborted and retried attempts discard theirs). This closes the
// lost-wakeup window of eager pushes under commit-time visibility — a
// vertex pushed before its activating write was visible could be popped,
// observed unimproved, and dropped, with nobody left to re-deliver the
// improvement once it landed. arr is as for Drain.
func (r *Runtime) ForEachQueued(q Source, arr mem.Addr, fn func(tx sched.Tx, v uint32, prio uint64, emit func(u uint32, prio uint64)) error) (uint64, error) {
	return r.Drain("foreach_queued", q, q, nil, arr, func(out *worklist.Emits) func(sched.Tx, uint32, uint64) error {
		emit := out.Emit
		return func(tx sched.Tx, v uint32, prio uint64) error { return fn(tx, v, prio, emit) }
	})
}

// Drain is the module's queued driver (paper Fig. 3): worklist.Drain —
// chunked polling of src, post-commit publishing of emits into sink, the
// quiesce rule that lets workers leave, cancellation through the
// runtime's context — with each of its goroutines labelled for profiles
// and running its transactions on one leased worker. start runs once on
// each goroutine and returns the body run for every polled vertex, which
// gets the priority the vertex was popped with (0 from a source without
// PopPrio); what the body emits through out reaches sink only if its
// attempt commits. A nil sink is for bodies that push into src
// themselves; a nil hint means the graph's degree. arr is the one vertex array the body reads across
// v's neighbourhood, warmed before each transaction (see warm), or NoWarm.
func (r *Runtime) Drain(driver string, src worklist.Source, sink worklist.Sink, hint func(v uint32) int, arr mem.Addr,
	start func(out *worklist.Emits) (body func(tx sched.Tx, v uint32, prio uint64) error)) (uint64, error) {
	ctx := r.ctx()
	defer r.trimIdle()
	return worklist.Drain(ctx, src, sink, r.Threads, func(tid int, out *worklist.Emits) (func(uint32, uint64) error, func()) {
		label(ctx, driver, tid)
		w := r.Lease()
		// One transaction per worker, not per vertex: cur and curPrio are
		// the item in hand.
		var cur uint32
		var curPrio uint64
		body := start(out)
		txn := func(tx sched.Tx) error {
			out.Retry() // a retried attempt re-emits from scratch
			return body(tx, cur, curPrio)
		}
		step := func(v uint32, prio uint64) error {
			cur, curPrio = v, prio
			h := r.G.Degree(v)*2 + 2
			if hint != nil {
				h = hint(v)
			}
			if arr != NoWarm {
				w.warmed += r.warm(arr, v)
			}
			return w.Run(r.Ctx, h, txn)
		}
		return step, func() { r.Release(w) }
	})
}

// ReadArray copies a vertex array out of the space (after all workers
// finished).
func (r *Runtime) ReadArray(base mem.Addr) []uint64 {
	n := r.G.NumVertices()
	out := make([]uint64, n)
	for i := 0; i < n; i++ {
		out[i] = r.Sp.Load(base + mem.Addr(i))
	}
	return out
}

// ReadFloatArray copies a float64 vertex array out of the space.
func (r *Runtime) ReadFloatArray(base mem.Addr) []float64 {
	n := r.G.NumVertices()
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		out[i] = mem.Float(r.Sp.Load(base + mem.Addr(i)))
	}
	return out
}

// None is the property value meaning "unset".
const None = ^uint64(0)

// checkVertex panics if v is out of range (defensive; algorithms are
// internal callers).
func (r *Runtime) checkVertex(v uint32) {
	if int(v) >= r.G.NumVertices() {
		panic(fmt.Sprintf("algo: vertex %d out of range", v))
	}
}
