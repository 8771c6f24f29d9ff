// Package algo implements the paper's §VI-A application suite — PageRank,
// BFS, weakly connected components, triangle counting, Bellman-Ford/SPFA
// shortest paths, maximal independent set, and greedy maximal matching —
// once, against the sched.Scheduler interface, so identical user code runs
// on TuFast and on every baseline scheduler the paper compares.
package algo

import (
	"context"
	"fmt"
	"runtime"
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

	wmu     sync.Mutex
	free    []sched.Worker
	created int
}

// ctx returns the runtime's context, defaulting to Background.
func (r *Runtime) ctx() context.Context {
	if r.Ctx != nil {
		return r.Ctx
	}
	return context.Background()
}

// run executes one transaction on w, routing through RunCtx when both a
// context and a cancellable worker are available.
func (r *Runtime) run(w sched.Worker, hint int, fn sched.TxFunc) error {
	if r.Ctx != nil {
		if cw, ok := w.(sched.CtxWorker); ok {
			return cw.RunCtx(r.Ctx, hint, fn)
		}
		if err := r.Ctx.Err(); err != nil {
			return err
		}
	}
	return w.Run(hint, fn)
}

// NewRuntime creates a Runtime; threads <= 0 means GOMAXPROCS. The space
// must be large enough for the algorithm's property arrays (SpaceWordsFor
// sizes it).
func NewRuntime(g *graph.CSR, sp *mem.Space, s sched.Scheduler, threads int) *Runtime {
	if threads <= 0 {
		threads = runtime.GOMAXPROCS(0)
	}
	return &Runtime{G: g, Sp: sp, S: s, Threads: threads}
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

// worker leases a per-goroutine scheduler context (ids are stable per
// worker — see tufast.System.Worker for why a sync.Pool would be wrong).
func (r *Runtime) worker() sched.Worker {
	r.wmu.Lock()
	defer r.wmu.Unlock()
	if n := len(r.free); n > 0 {
		w := r.free[n-1]
		r.free = r.free[:n-1]
		return w
	}
	id := r.created
	r.created++
	return r.S.Worker(id)
}

func (r *Runtime) release(w sched.Worker) {
	r.wmu.Lock()
	r.free = append(r.free, w)
	r.wmu.Unlock()
}

// ForEachVertex runs fn for every vertex as its own transaction with the
// degree as the size hint (parallel_for + BEGIN(degree[v])). When the
// runtime carries a context, cancellation stops the sweep at the next
// chunk or vertex boundary and the context's error is returned.
func (r *Runtime) ForEachVertex(fn func(tx sched.Tx, v uint32) error) error {
	n := r.G.NumVertices()
	ctx := r.ctx()
	var firstErr atomic.Value
	worklist.RangeCtx(ctx, n, r.Threads, 256, func(_, lo, hi int) {
		w := r.worker()
		defer r.release(w)
		for v := lo; v < hi; v++ {
			if firstErr.Load() != nil {
				return
			}
			vid := uint32(v)
			hint := r.G.Degree(vid)*2 + 2
			if err := r.run(w, hint, func(tx sched.Tx) error { return fn(tx, vid) }); err != nil {
				firstErr.CompareAndSwap(nil, err)
				return
			}
		}
	})
	if err := ctx.Err(); err != nil {
		return err
	}
	if e := firstErr.Load(); e != nil {
		return e.(error)
	}
	return nil
}

// Source is a work queue the queued driver drains and refills
// (worklist.Queue or worklist.PQ adapters satisfy it). Push receives the
// emits of a committed transaction; FIFO adapters ignore prio. The
// adapters below also carry the chunk methods worklist.Drain looks for.
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
// polled vertex, and returns how many transactions committed. fn
// re-activates vertices through emit, NOT by pushing into q directly:
// emits are buffered and flushed to q only after the transaction commits
// (aborted and retried attempts discard theirs). This closes the
// lost-wakeup window of eager pushes under commit-time visibility — a
// vertex pushed before its activating write was visible could be popped,
// observed unimproved, and dropped, with nobody left to re-deliver the
// improvement once it landed.
//
// The loop itself — chunked polling, post-commit publishing, the quiesce
// rule that lets workers leave, cancellation through the runtime's
// context — is worklist.Drain, shared with tufast.System's drivers.
func (r *Runtime) ForEachQueued(q Source, fn func(tx sched.Tx, v uint32, emit func(u uint32, prio uint64)) error) (uint64, error) {
	return worklist.Drain(r.ctx(), q, q, r.Threads, func(_ int, out *worklist.Emits) (func(uint32) error, func()) {
		w := r.worker()
		// One body per worker, not per vertex: cur is the vertex in hand.
		var cur uint32
		emit := out.Emit
		body := func(tx sched.Tx) error {
			out.Retry() // a retried attempt re-emits from scratch
			return fn(tx, cur, emit)
		}
		step := func(v uint32) error {
			cur = v
			return r.run(w, r.G.Degree(v)*2+2, body)
		}
		return step, func() { r.release(w) }
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
