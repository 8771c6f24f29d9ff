// Package tufast is a lightweight parallelization library for graph
// analytics, reproducing "TuFast: A Lightweight Parallelization Library
// for Graph Analytics" (Shang, Yu, Zhang — ICDE 2019).
//
// Users write sequential-looking per-vertex code and mark shared accesses
// with transactional Read/Write; tufast runs the code concurrently with
// full serializability, routing every transaction by its size hint
// through a three-mode hybrid transactional memory:
//
//   - small transactions (the power-law majority) run in a single
//     emulated hardware transaction (H mode);
//   - medium transactions run optimistically with hardware-monitored
//     segments (O mode);
//   - giant transactions take per-vertex locks (L mode).
//
// A minimal program (greedy maximal matching, the paper's Figure 1):
//
//	g := tufast.GeneratePowerLaw(100_000, 2_000_000, 2.1, 1)
//	sys := tufast.NewSystem(g, tufast.Options{})
//	match := sys.NewVertexArray(tufast.None)
//	sys.ForEachVertex(func(tx tufast.Tx, v uint32) error {
//		if tx.Read(v, match.Addr(v)) != tufast.None {
//			return nil
//		}
//		for _, u := range g.Neighbors(v) {
//			if tx.Read(u, match.Addr(u)) == tufast.None {
//				tx.Write(v, match.Addr(v), uint64(u))
//				tx.Write(u, match.Addr(u), uint64(v))
//				break
//			}
//		}
//		return nil
//	})
package tufast

import (
	"context"
	"fmt"
	"runtime"

	"tufast/internal/algo"
	"tufast/internal/core"
	"tufast/internal/graph"
	"tufast/internal/mem"
	"tufast/internal/sched"
	"tufast/internal/worklist"
)

// None is the conventional "no value" word for vertex properties
// (matching, parents, component ids): the all-ones word, which is never a
// valid vertex id.
const None = ^uint64(0)

// TxPanicError is returned by Atomic / ForEachVertex / ForEachQueued when
// a user transaction function panics. The runtime guarantees the panicking
// transaction was fully unwound first: buffered writes discarded, in-place
// L-mode writes rolled back, and every vertex lock released — the System
// remains healthy and subsequent transactions commit normally. Value holds
// the original panic payload and Stack the stack trace at recovery; use
// errors.As to detect it. DynGraph.ApplyOwned returns one too, but runs
// no transaction and so unwinds nothing (see there).
type TxPanicError = sched.TxPanicError

// Addr is a word address inside a System's shared memory space.
type Addr = uint64

// Options tunes a System. The zero value gives the paper's defaults.
type Options struct {
	// Threads is the parallelism of ForEachVertex / ForEachQueued
	// (default: GOMAXPROCS).
	Threads int
	// SpaceWords overrides the shared-space size in 8-byte words
	// (default: 24 words per vertex plus slack).
	SpaceWords int
	// HMaxHint and OMaxHint override the §IV-B routing ceilings: a
	// transaction with size hint ≤ HMaxHint may try H mode first, one
	// above OMaxHint goes straight to L mode, and anything between
	// starts optimistic (defaults: the HTM word capacity and 8× it).
	// Under the ceilings the router also learns, per size class, which
	// modes' attempts mostly fail and skips them (DESIGN.md §1).
	// Lowering the ceilings makes small graphs exercise the full H/O/L
	// spread, which streaming workloads use to route mutations by live
	// degree.
	HMaxHint int
	OMaxHint int
}

// System is a TuFast runtime bound to one graph: a shared memory space
// for vertex properties and the three-mode hybrid TM scheduling all
// transactional access to it.
type System struct {
	g    *Graph
	core *core.System

	// rt is the driver everything on this System runs through — Atomic,
	// the sweeps and drains below, the stream applier, package
	// algorithms: one worker pool, so one goroutine per thread id.
	rt *algo.Runtime
}

// NewSystem creates a runtime for g.
func NewSystem(g *Graph, opt Options) *System {
	n := g.NumVertices()
	if opt.Threads <= 0 {
		opt.Threads = runtime.GOMAXPROCS(0)
	}
	if opt.SpaceWords <= 0 {
		opt.SpaceWords = 24*(n+8) + 4096
	}
	cfg := core.Config{
		HMaxHint: opt.HMaxHint,
		OMaxHint: opt.OMaxHint,
	}
	sp := mem.NewSpace(opt.SpaceWords)
	c := core.New(sp, n, cfg)
	return &System{g: g, core: c, rt: algo.NewRuntime(g.csr, sp, c, opt.Threads)}
}

// Graph returns the graph the system was built for.
func (s *System) Graph() *Graph { return s.g }

// Threads returns the configured parallelism.
func (s *System) Threads() int { return s.rt.Threads }

// NewVertexArray allocates one word of shared property state per vertex,
// all initialized to init.
func (s *System) NewVertexArray(init uint64) VertexArray {
	return VertexArray{Array{base: s.rt.NewVertexArray(init), n: s.g.NumVertices(), sp: s.rt.Sp}}
}

// NewArray allocates n shared words (zeroed), line-aligned.
func (s *System) NewArray(n int) Array {
	base := s.rt.Sp.AllocLineAligned(n)
	return Array{base: base, n: n, sp: s.rt.Sp}
}

// Worker returns a per-goroutine execution context. Workers are pooled;
// Release returns one to the pool.
func (s *System) Worker() *Worker { return (*Worker)(s.rt.Lease()) }

// Release returns a worker obtained from Worker to the pool. A worker
// whose last transaction was unwound by a panic that escaped Atomic is
// verifiably reset first (leftover locks released, in-place writes rolled
// back), or discarded with its thread id.
func (s *System) Release(w *Worker) { s.rt.Release((*algo.Worker)(w)) }

// Atomic runs fn as one serializable transaction on a pooled worker.
// sizeHint is the paper's BEGIN(size) hint — approximately how many
// shared words fn will touch (a vertex's degree, usually); 0 = unknown.
//
// If fn panics, the transaction is rolled back (no lock is leaked, no
// write becomes visible) and the panic is returned as a *TxPanicError.
func (s *System) Atomic(sizeHint int, fn func(tx Tx) error) error {
	return s.AtomicCtx(context.Background(), sizeHint, fn)
}

// AtomicCtx is Atomic with cancellation: once ctx is cancelled the
// transaction stops retrying — and, in L mode, stops waiting for vertex
// locks — rolls back, and returns ctx.Err(). A transaction that already
// entered its commit phase commits.
func (s *System) AtomicCtx(ctx context.Context, sizeHint int, fn func(tx Tx) error) error {
	w := s.Worker()
	defer s.Release(w)
	return w.AtomicCtx(ctx, sizeHint, fn)
}

// ForEachVertex runs fn once for every vertex as its own transaction,
// in parallel, using the vertex degree as the size hint (the paper's
// parallel_for + BEGIN(degree[v]) idiom). The first user error stops
// the sweep (best effort) and is returned; a panicking fn stops it with
// a *TxPanicError.
func (s *System) ForEachVertex(fn func(tx Tx, v uint32) error) error {
	return s.ForEachVertexCtx(context.Background(), fn)
}

// ForEachVertexCtx is ForEachVertex with cancellation: ctx is checked at
// every chunk boundary, between vertices, and inside lock waits, so a
// cancelled sweep returns ctx.Err() promptly instead of draining the
// remaining vertices.
func (s *System) ForEachVertexCtx(ctx context.Context, fn func(tx Tx, v uint32) error) error {
	return s.rt.WithContext(ctx).ForEachVertex(algo.NoWarm, func(t sched.Tx, v uint32) error { return fn(Tx{t: t}, v) })
}

// ForEachQueued drains queue q with the configured parallelism, running
// fn for each polled vertex as its own transaction with its degree as the
// size hint (the Figure 3 driver: pass a FIFO Queue for Bellman-Ford or a
// PQ for SPFA). fn wakes a vertex u through emit(u, prio), never by
// pushing into q: emits are buffered and pushed into q only after the
// transaction commits, and an attempt that aborts and retries drops its
// own, so every wakeup has a committed write behind it and a woken vertex
// always reads that write. A Queue ignores prio; a PQ pops the lowest
// first. Workers exit when the queue stays empty and all workers are
// idle.
func (s *System) ForEachQueued(q Source, fn func(tx Tx, v uint32, emit func(u uint32, prio uint64)) error) error {
	return s.ForEachQueuedCtx(context.Background(), q, fn)
}

// ForEachQueuedCtx is ForEachQueued with cancellation: every worker polls
// ctx between transactions and while idle, so a cancelled drain returns
// ctx.Err() promptly even when the queue never empties.
func (s *System) ForEachQueuedCtx(ctx context.Context, q Source, fn func(tx Tx, v uint32, emit func(u uint32, prio uint64)) error) error {
	_, err := s.rt.WithContext(ctx).ForEachQueued(q.source(), algo.NoWarm,
		func(t sched.Tx, v uint32, _ uint64, emit func(uint32, uint64)) error { return fn(Tx{t: t}, v, emit) })
	return err
}

// Source is a queue ForEachQueued drains and refills: a *Queue (FIFO,
// polled a chunk at a time) or a *PQ (lowest priority first).
type Source interface {
	source() algo.Source
}

// Worker is a per-goroutine transaction executor.
type Worker algo.Worker

// Atomic runs fn as one serializable transaction.
func (w *Worker) Atomic(sizeHint int, fn func(tx Tx) error) error {
	return w.AtomicCtx(context.Background(), sizeHint, fn)
}

// AtomicCtx runs fn as one serializable transaction that stops retrying
// (and stops waiting for locks) with ctx.Err() once ctx is cancelled.
func (w *Worker) AtomicCtx(ctx context.Context, sizeHint int, fn func(tx Tx) error) error {
	return (*algo.Worker)(w).Run(ctx, sizeHint, func(t sched.Tx) error { return fn(Tx{t: t}) })
}

// Tx is the transactional handle: every shared read/write names the
// vertex the address belongs to (the lock and conflict granularity).
type Tx struct {
	t sched.Tx
}

// Read returns the shared word at addr, owned by vertex v.
func (tx Tx) Read(v uint32, addr Addr) uint64 { return tx.t.Read(v, mem.Addr(addr)) }

// Write stores val to the shared word at addr, owned by vertex v.
func (tx Tx) Write(v uint32, addr Addr, val uint64) { tx.t.Write(v, mem.Addr(addr), val) }

// ReadFloat reads a float64 property.
func (tx Tx) ReadFloat(v uint32, addr Addr) float64 { return mem.Float(tx.Read(v, addr)) }

// WriteFloat writes a float64 property.
func (tx Tx) WriteFloat(v uint32, addr Addr, val float64) { tx.Write(v, addr, mem.Word(val)) }

// Array is a block of shared words.
type Array struct {
	base mem.Addr
	n    int
	sp   *mem.Space
}

// Addr returns the address of element i.
func (a Array) Addr(i int) Addr {
	if i < 0 || i >= a.n {
		panic(fmt.Sprintf("tufast: array index %d out of range [0,%d)", i, a.n))
	}
	return Addr(a.base) + Addr(i)
}

// Len returns the element count.
func (a Array) Len() int { return a.n }

// Get reads element i non-transactionally (for initialization and for
// reading results after all workers finished).
func (a Array) Get(i int) uint64 { return a.sp.Load(mem.Addr(a.Addr(i))) }

// Set writes element i non-transactionally (initialization only: the
// write does not interact with concurrent transactions).
func (a Array) Set(i int, val uint64) { a.sp.Store(mem.Addr(a.Addr(i)), val) }

// GetFloat reads element i as float64.
func (a Array) GetFloat(i int) float64 { return mem.Float(a.Get(i)) }

// SetFloat writes element i as float64.
func (a Array) SetFloat(i int, val float64) { a.Set(i, mem.Word(val)) }

// VertexArray is an Array with exactly one word per vertex.
type VertexArray struct {
	Array
}

// Addr returns the address of vertex v's word.
func (a VertexArray) Addr(v uint32) Addr { return a.Array.Addr(int(v)) }

// Get reads vertex v's word non-transactionally.
func (a VertexArray) Get(v uint32) uint64 { return a.Array.Get(int(v)) }

// Set writes vertex v's word non-transactionally.
func (a VertexArray) Set(v uint32, val uint64) { a.Array.Set(int(v), val) }

// GetFloat reads vertex v's word as float64.
func (a VertexArray) GetFloat(v uint32) float64 { return a.Array.GetFloat(int(v)) }

// SetFloat writes vertex v's word as float64.
func (a VertexArray) SetFloat(v uint32, val float64) { a.Array.SetFloat(int(v), val) }

// NewQueue creates a FIFO vertex queue sized for the system's threads.
func (s *System) NewQueue() *Queue { return (*Queue)(worklist.NewQueue(s.rt.Threads)) }

// NewPQ creates a priority vertex queue sized for the system's threads.
func (s *System) NewPQ() *PQ { return (*PQ)(worklist.NewPQ(s.rt.Threads)) }

// Queue is a concurrent FIFO of vertex ids.
type Queue worklist.Queue

// Push appends v.
func (q *Queue) Push(v uint32) { (*worklist.Queue)(q).Push(v) }

func (q *Queue) source() algo.Source { return algo.FIFOSource{Queue: (*worklist.Queue)(q)} }

// Pop removes one id (ok=false if empty).
func (q *Queue) Pop() (uint32, bool) { return (*worklist.Queue)(q).Pop() }

// Len returns the approximate size.
func (q *Queue) Len() int { return (*worklist.Queue)(q).Len() }

// PQ is a concurrent priority queue of vertex ids.
type PQ worklist.PQ

// Push inserts v with a priority (lower pops first).
func (q *PQ) Push(v uint32, prio uint64) { (*worklist.PQ)(q).Push(v, prio) }

func (q *PQ) source() algo.Source { return algo.PQSource{PQ: (*worklist.PQ)(q)} }

// Pop removes a minimal-priority vertex.
func (q *PQ) Pop() (uint32, bool) {
	v, _, ok := (*worklist.PQ)(q).Pop()
	return v, ok
}

// Len returns the approximate size.
func (q *PQ) Len() int { return (*worklist.PQ)(q).Len() }

// Graph is a frozen compressed-sparse-row graph: once built, its
// topology never changes, so accessors are safe to call from any
// goroutine with no synchronization. To mutate edges, layer a DynGraph
// over it with NewDynGraph — the Graph stays intact as the overlay's
// base (and as everyone else's view).
type Graph struct {
	csr *graph.CSR
}

// NumVertices returns |V|.
func (g *Graph) NumVertices() int { return g.csr.NumVertices() }

// NumEdges returns the number of stored arcs. An undirected graph
// stores each edge in both directions, so this is twice the edge
// count there.
func (g *Graph) NumEdges() int { return g.csr.NumEdges() }

// Degree returns v's out-degree (arc count, like NumEdges).
func (g *Graph) Degree(v uint32) int { return g.csr.Degree(v) }

// Neighbors returns v's out-neighbors in ascending id order. The slice
// aliases the graph's internal storage — it stays valid for the
// graph's lifetime and must not be modified.
func (g *Graph) Neighbors(v uint32) []uint32 { return g.csr.Neighbors(v) }

// MaxDegree returns the largest degree.
func (g *Graph) MaxDegree() int { return g.csr.MaxDegree() }

// Undirected reports whether the edge set was symmetrized.
func (g *Graph) Undirected() bool { return g.csr.Undirected() }

// EdgeWeight derives the deterministic weight of edge (u, v) in
// [1, maxW] used by the weighted algorithms.
func EdgeWeight(u, v uint32, maxW uint32) uint32 { return graph.WeightOf(u, v, maxW) }

// CSR exposes the internal graph to sibling packages inside this module.
func (g *Graph) CSR() *graph.CSR { return g.csr }

// WrapCSR wraps an internal CSR as a public Graph (used by cmd/ and
// bench code inside this module).
func WrapCSR(c *graph.CSR) *Graph { return &Graph{csr: c} }

// WrapTx wraps a scheduler transaction as a public Tx, for sibling
// packages in this module that run transaction bodies on Runtime directly
// and need DynGraph's transactional accessors inside them.
func WrapTx(t sched.Tx) Tx { return Tx{t: t} }
