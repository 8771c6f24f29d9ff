package tufast

import (
	"cmp"
	"context"
	"fmt"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"

	"tufast/internal/algo"
	"tufast/internal/dyngraph"
	"tufast/internal/graph"
	"tufast/internal/sched"
	"tufast/internal/worklist"
)

// DynGraph is a mutable graph: the System's frozen base graph plus a
// transactional delta overlay living in the same shared space. Edges
// are mutated through Tx.AddEdge / Tx.RemoveEdge inside ordinary
// transactions, so a mutation is routed H/O/L by its size hint — which
// MutationHint derives from live degree, giving topology updates the
// same skew-aware treatment the paper gives property updates. The
// mutation itself is small at any degree (a hub's target is found
// through its index, not by walking its chain), so it commits in H or
// O mode whatever its source; what grows with degree, and what the hint
// covers, is the incremental fix-up an OnEdge hook runs over the
// endpoints' adjacencies in the same transaction.
//
// The overlay allocates from the System's space; size it with
// DynSpaceWords. Quiescent methods (NeighborsNow, Compact, ...) are
// only exact when no mutator transaction is in flight.
type DynGraph struct {
	sys *System
	st  *dyngraph.Store

	inserted atomic.Uint64
	removed  atomic.Uint64
	noops    atomic.Uint64
	epoch    atomic.Uint64

	// batchMu serializes batches: ApplyStream, ApplyOwned and GCCtx. A
	// mutation batch stamps its entries with epoch+1, so two must not
	// share a stamp (the second would leak half-committed entries into
	// views pinned at the first's epoch), and an owned batch or GC pass
	// must be the chains' only writer. Within the lock a batch spreads
	// over as many of the System's threads as it has work for: a
	// transactional window over all of them, a GC pass in vertex chunks,
	// an owned batch on one owner per minOwnerOps ops (a serving-sized
	// one on the caller's goroutine).
	batchMu sync.Mutex
	// ownedFwd and ownedRev are ApplyOwned's per-op outcomes, kept
	// between batches so a batch allocates none; batchMu guards them.
	ownedFwd, ownedRev []bool
	// warmed sums the words ApplyOwned's warm passes loaded. Nothing
	// reads it: it is there so that the loads, whose values nothing else
	// uses, are kept.
	warmed atomic.Uint64
	// broken holds the panic that cut an ApplyOwned batch short, after
	// which the graph takes no batch (see ApplyOwned); batchMu guards it.
	broken error
	// streaming is true while a batch (ApplyStream, ApplyOwned or GCCtx)
	// holds batchMu. It backs the best-effort assertion in Tx.AddEdge/RemoveEdge
	// that no direct edge mutation overlaps a batch — a direct mutation
	// racing the batch's end-of-stream stamp transition could commit an
	// entry under an epoch that pinned views already treat as sealed, and
	// break the per-target stamp monotonicity chain resolution relies on
	// (see Tx.AddEdge).
	streaming atomic.Bool

	// pinMu guards pins: epoch → number of live GraphViews pinned
	// there. The GC watermark is the minimum pinned epoch, computed
	// under the same mutex that View uses to read the epoch and insert
	// its pin, so GC can never collect underneath an in-flight pin.
	pinMu sync.Mutex
	pins  map[uint64]int

	// gcAppended counts effective stream ops since the last GC pass;
	// GCCtx drains it to scale its minimum-chain threshold with the
	// observed append rate (see gcMinChainWords).
	gcAppended atomic.Uint64
}

// NewDynGraph layers a mutable edge overlay over s's graph. The
// overlay's vertex arrays and edge blocks come out of s's space:
// construct the System with Options.SpaceWords ≥ DynSpaceWords for the
// mutation volume you expect.
func NewDynGraph(s *System) *DynGraph {
	return &DynGraph{sys: s, st: dyngraph.New(s.rt.Sp, s.g.csr), pins: make(map[uint64]int)}
}

// DynSpaceWords returns an Options.SpaceWords value sized for a System
// on g that also hosts a DynGraph absorbing up to mutations edge
// mutations (each undirected mutation is two arc mutations).
func DynSpaceWords(g *Graph, mutations int) int {
	arcs := mutations
	if g.Undirected() {
		arcs *= 2
	}
	n := g.NumVertices()
	return 24*(n+8) + 4096 + dyngraph.SpaceWords(n, arcs)
}

// System returns the runtime the overlay is bound to.
func (d *DynGraph) System() *System { return d.sys }

// Base returns the frozen graph underneath the overlay.
func (d *DynGraph) Base() *Graph { return d.sys.g }

// Undirected reports whether the base graph is undirected; Tx.AddEdge
// and Tx.RemoveEdge mutate both arcs of an undirected edge in one
// transaction.
func (d *DynGraph) Undirected() bool { return d.st.Undirected() }

// NumVertices returns |V| (fixed: the overlay mutates edges only).
func (d *DynGraph) NumVertices() int { return d.st.NumVertices() }

// LiveDegree returns v's current out-degree: exact at quiescence,
// advisory (one racy word read) while mutators run — fine for size
// hints and scheduling, not for invariants.
func (d *DynGraph) LiveDegree(v uint32) int { return d.st.LiveDegree(v) }

// NeighborsNow returns v's live out-neighbors, sorted, appended into
// buf[:0]. Quiescent: results are undefined while a mutator is in
// flight; inside transactions use Tx.NeighborsMut.
func (d *DynGraph) NeighborsNow(v uint32, buf []uint32) []uint32 {
	return d.st.NeighborsNow(v, buf)
}

// HasEdgeNow reports quiescently whether edge (u, v) is live; inside
// transactions use Tx.HasEdgeMut.
func (d *DynGraph) HasEdgeNow(u, v uint32) bool { return d.st.HasArcNow(u, v) }

// LiveArcs returns the quiescent live arc count (2× the edge count on
// undirected graphs).
func (d *DynGraph) LiveArcs() int { return d.st.LiveArcs() }

// MutationHint returns the transaction size hint for a mutation of edge
// (u, v) together with a fix-up over both endpoints' adjacencies (what
// an incremental algorithm's OnEdge hook does): proportional to the
// endpoints' live degrees. The lookup and the append do not grow with
// degree, so for a bare mutation of a hub edge the hint only decides
// where the ladder starts — in O rather than H — not where it commits.
func (d *DynGraph) MutationHint(u, v uint32) int { return d.st.Hint(u, v) }

// Compact freezes base+overlay into a fresh immutable Graph (rows
// sorted and unique, validated like a loaded file) for scan-heavy
// phases, materialising rows on the System's threads. Quiescent: all
// mutators must have drained.
func (d *DynGraph) Compact() (*Graph, error) {
	csr, err := d.st.Compact(d.sys.rt.Threads)
	if err != nil {
		return nil, err
	}
	return &Graph{csr: csr}, nil
}

// Epoch returns the graph's mutation epoch: it starts at 0 and
// increments once per ApplyOwned or ApplyStream batch that actually
// changed the topology (no-op batches and GCCtx passes leave it alone).
// A batch that fails partway — an owner's panic, cancellation, an
// OnEdge error — still bumps the epoch when any of its arcs changed, so
// partial application invalidates epoch-keyed consumers too. Consumers
// tag derived results (analytics caches, compacted snapshots) with the
// epoch they were computed at and treat a bumped epoch as invalidation.
// Direct Tx.AddEdge/RemoveEdge calls outside a batch do not move the
// epoch; batch all serving-path mutations through ApplyOwned.
func (d *DynGraph) Epoch() uint64 { return d.epoch.Load() }

// RestoreEpoch sets the mutation epoch to e, for boot-time recovery
// only: a daemon reloading a checkpoint taken at epoch e restores the
// counter before replaying the WAL tail, so replayed batches re-commit
// at the same epochs they originally published and epoch-keyed
// consumers (result caches, checkpoints, clients that recorded an ack
// epoch) stay consistent across the restart. The write stamp advances
// with it, exactly as an ApplyStream bump would have left it. Must be
// called before any transaction, batch, or view exists — it takes no
// lock and moves the visibility horizon.
func (d *DynGraph) RestoreEpoch(e uint64) {
	d.epoch.Store(e)
	d.st.SetWriteStamp(e + 1)
}

// MutationStats returns how many ApplyStream (and ApplyOwned)
// operations actually inserted an edge, actually removed one, and were
// no-ops (duplicate insert / missing delete).
func (d *DynGraph) MutationStats() (inserted, removed, noops uint64) {
	return d.inserted.Load(), d.removed.Load(), d.noops.Load()
}

// RestoreMutationStats adds a folded log's outcomes (FoldStream's
// stats) to the mutation counters, for boot-time recovery only: the
// ops a recovery folded into the base before the DynGraph existed
// still count as applied. Same contract as RestoreEpoch.
func (d *DynGraph) RestoreMutationStats(st StreamStats) {
	d.inserted.Add(uint64(st.Inserted))
	d.removed.Add(uint64(st.Removed))
	d.noops.Add(uint64(st.NoOps))
}

// FoldStream returns the graph that results from applying ops to g in
// slice order, exactly as ApplyOwned batches over a DynGraph on g would
// leave it, but built directly as a frozen graph in one merge pass: no
// overlay, no arena, no epoch. The stats count the ops as those batches
// would have (Epoch stays 0). An op naming a vertex out of range is
// refused. Boot recovery folds a WAL tail into its checkpoint with it,
// so the DynGraph it serves from starts with every acknowledged arc in
// the base.
func FoldStream(g *Graph, ops []StreamOp) (*Graph, StreamStats, error) {
	csr, st, err := dyngraph.Fold(g.csr, ops)
	if err != nil {
		return nil, StreamStats{}, fmt.Errorf("tufast: %w", err)
	}
	return &Graph{csr: csr}, StreamStats{
		Applied: len(ops), Inserted: st.Inserted, Removed: st.Removed, NoOps: st.NoOps,
	}, nil
}

// GraphView is a consistent, immutable read-only view of the graph
// pinned at a mutation epoch: every read resolves the overlay's
// multi-version chains to the state the pinned epoch saw, no matter
// how many batches commit afterwards. Views are safe to read from any
// goroutine while mutators run — no lock is taken on either side (see
// dyngraph.Store.NeighborsAt for the safety argument). A view holds a
// GC pin keeping its versions alive: Close it when done, or overlay
// garbage collection can never reclaim superseded entries.
type GraphView struct {
	d      *DynGraph
	epoch  uint64
	closed atomic.Bool
}

// View pins the current mutation epoch and returns its view. Mutations
// outside batches (direct Tx.AddEdge/RemoveEdge) are stamped past the
// current epoch and therefore invisible to views, as they are to Epoch
// — but only while they respect the contract on Tx.AddEdge: a direct
// mutation transaction overlapping a batch's stamp transition could
// commit under an already-pinnable epoch. Batch serving-path mutations
// through ApplyOwned.
func (d *DynGraph) View() *GraphView {
	d.pinMu.Lock()
	e := d.epoch.Load()
	d.pins[e]++
	d.pinMu.Unlock()
	return &GraphView{d: d, epoch: e}
}

// ViewAt pins mutation epoch e and returns its view. Pinning an epoch
// at or below the GC watermark of a previous collection returns a view
// whose superseded versions may already be gone; serving planes pin
// the current epoch (View) and hand the view down, which is always
// safe.
func (d *DynGraph) ViewAt(e uint64) *GraphView {
	d.pinMu.Lock()
	d.pins[e]++
	d.pinMu.Unlock()
	return &GraphView{d: d, epoch: e}
}

// Close releases the view's GC pin. Reads after Close are still
// epoch-filtered but their versions may be collected underneath them;
// Close only once all readers of the view are done. Idempotent.
func (v *GraphView) Close() {
	if v.closed.Swap(true) {
		return
	}
	d := v.d
	d.pinMu.Lock()
	if d.pins[v.epoch]--; d.pins[v.epoch] <= 0 {
		delete(d.pins, v.epoch)
	}
	d.pinMu.Unlock()
}

// Epoch returns the mutation epoch the view is pinned at.
func (v *GraphView) Epoch() uint64 { return v.epoch }

// Neighbors returns u's out-neighbors as of the pinned epoch, sorted,
// appended into buf[:0].
func (v *GraphView) Neighbors(u uint32, buf []uint32) []uint32 {
	return v.d.st.NeighborsAt(u, v.epoch, buf)
}

// HasEdge reports whether edge (u, w) is live as of the pinned epoch.
func (v *GraphView) HasEdge(u, w uint32) bool {
	return v.d.st.HasArcAt(u, w, v.epoch)
}

// Degree returns u's out-degree as of the pinned epoch (an O(deg)
// chain resolve, unlike the advisory LiveDegree word).
func (v *GraphView) Degree(u uint32) int {
	return v.d.st.DegreeAt(u, v.epoch)
}

// Arcs counts the live out-arcs as of the pinned epoch (2× the edge
// count on undirected graphs). O(V+E), spread over the System's
// threads.
func (v *GraphView) Arcs() int {
	return v.d.st.ArcsAt(v.epoch, v.d.sys.rt.Threads)
}

// NumVertices returns |V|.
func (v *GraphView) NumVertices() int { return v.d.st.NumVertices() }

// Compact freezes the pinned epoch's topology into a fresh immutable
// Graph, materialising rows on the System's threads. Unlike
// DynGraph.Compact it is safe while mutators run.
func (v *GraphView) Compact() (*Graph, error) {
	g, _, err := v.CompactFrom(nil, 0)
	return g, err
}

// CompactFrom is Compact that starts from prev, a Graph this DynGraph's
// views compacted at epoch prevEpoch (by Compact or CompactFrom): the
// rows changed since prevEpoch are folded into prev's and the rest are
// copied, which costs far less than Compact's re-sort of every chain
// when few rows changed. It reports whether it folded from prev. It does
// not — and compacts the whole overlay as Compact does — when prev is
// nil, when prevEpoch is after the view's epoch, or when a GCCtx pass
// has rebuilt a chain under a watermark above prevEpoch, which can have
// dropped the versions the fold needs (see dyngraph.Store.CompactFrom).
// Safe while mutators and GC passes run.
func (v *GraphView) CompactFrom(prev *Graph, prevEpoch uint64) (*Graph, bool, error) {
	var base *graph.CSR
	if prev != nil {
		base = prev.csr
	}
	csr, folded, err := v.d.st.CompactFrom(base, prevEpoch, v.epoch, v.d.sys.rt.Threads)
	if err != nil {
		return nil, false, err
	}
	return &Graph{csr: csr}, folded, nil
}

// GCCtx garbage-collects the overlay's multi-version chains: for every
// vertex it drops the versions no reader can observe anymore — entries
// superseded at or below the watermark, which is the minimum live
// pinned epoch (or the current epoch with nothing pinned). Rebuilt
// chains go into freshly allocated blocks (the arena never reuses, so
// frozen readers finish safely); GC therefore consumes headroom to
// reclaim reachability, and stops — returning early — once the space
// has less than a rebuild's size plus reserveWords left. Returns the
// number of chains rewritten.
//
// A pass is a batch with ApplyOwned's contract: it waits for the batch
// lock, then rebuilds chains in vertex chunks on the System's threads
// without transactions (dyngraph.Store.Owned). Pinned views read beside
// it: CompactChain writes a chain's head last, and allocates before it
// writes anything reachable, so a rebuild the arena cannot hold leaves
// its chain as it was; the pass returns that panic as a *TxPanicError
// and, unlike ApplyOwned, leaves the graph writable.
//
// The pass is load-adaptive: it drains the count of effective stream
// ops applied since the previous pass and skips chains smaller than
// gcMinChainWords of that rate. On a quiet graph the threshold is 1 —
// every non-empty chain compacts — while under a heavy append stream
// the pass concentrates on the chains worth rewriting: compacting a
// tiny chain that mutators are about to regrow spends headroom to
// reclaim almost nothing.
func (d *DynGraph) GCCtx(ctx context.Context, reserveWords int) (int, error) {
	d.batchMu.Lock()
	defer d.batchMu.Unlock()
	d.streaming.Store(true)
	defer d.streaming.Store(false)
	d.pinMu.Lock()
	keep := d.epoch.Load()
	for e := range d.pins {
		if e < keep {
			keep = e
		}
	}
	d.pinMu.Unlock()
	minWords := gcMinChainWords(d.gcAppended.Swap(0), d.st.NumVertices())
	sp := d.sys.rt.Sp
	var rewritten atomic.Int64
	var full atomic.Bool // once one owner finds no headroom, all stop
	err := d.owners(ctx, d.st.NumVertices(), 64, func(lo, hi int) {
		tx := d.st.Owned()
		for u := uint32(lo); u < uint32(hi) && !full.Load(); u++ {
			words := d.st.ChainWords(u)
			if words < minWords {
				continue
			}
			if sp.Cap()-sp.Used() < words+reserveWords {
				full.Store(true)
				return
			}
			if d.st.CompactChain(tx, u, keep) {
				rewritten.Add(1)
			}
		}
	})
	return int(rewritten.Load()), err
}

// owners runs fn over chunks of [0, n), grain items each, on up to the
// System's threads (on the caller's goroutine when there is one chunk),
// for a batch whose chunks write disjoint vertices without
// transactions. A panic ends its chunk and no chunk starts after it:
// owners returns the first as a *TxPanicError, else ctx's error.
func (d *DynGraph) owners(ctx context.Context, n, grain int, fn func(lo, hi int)) error {
	var failed atomic.Pointer[TxPanicError]
	workers := min(d.sys.rt.Threads, (n+grain-1)/grain)
	err := worklist.RangeCtx(ctx, n, workers, grain, func(_, lo, hi int) {
		if failed.Load() != nil {
			return
		}
		defer func() {
			if r := recover(); r != nil {
				failed.CompareAndSwap(nil, &TxPanicError{Value: r, Stack: debug.Stack()})
			}
		}()
		fn(lo, hi)
	})
	if p := failed.Load(); p != nil {
		return p
	}
	return err
}

// gcMinChainWords maps the effective-op count since the last GC pass
// to the smallest chain (in words) that pass will rebuild. Scaling by
// ops-per-vertex approximates how much fresh garbage the average chain
// accumulated while GC slept: 1 at quiescence (compact everything),
// growing ~3 words per op of average per-vertex pressure, capped so a
// burst can never push the threshold past every real chain and turn
// the pass into a permanent no-op.
func gcMinChainWords(opsSince uint64, numVertices int) int {
	if numVertices <= 0 {
		return 1
	}
	min := 1 + 3*int(opsSince/uint64(numVertices))
	if min > 256 {
		min = 256
	}
	return min
}

// AddEdge inserts edge (u, v) into g within tx, returning whether the
// edge was actually added (false for duplicates and self-loops). On
// undirected graphs both arcs are inserted atomically. The touched
// words belong to u and v, so conflict detection and lock subscription
// work exactly as for property writes.
//
// CONTRACT: a direct AddEdge/RemoveEdge transaction must not run
// concurrently with a batch (ApplyStream, ApplyOwned or GCCtx). A direct
// mutation stamps its entry with the batch write stamp, so one racing
// the batch's end-of-stream stamp transition could commit an entry at
// an epoch that pinned views already read as complete — an edge
// appearing mid view lifetime — and append it after later-stamped
// entries for the same target, breaking the stamp monotonicity that
// "last entry with stamp ≤ e wins" relies on. The overlap panics when detected, but
// the check is best-effort (it cannot see a direct transaction that
// begins before the batch starts and commits after it ends): the
// contract, not the assertion, is the guarantee. Serving-path
// mutations belong in ApplyOwned batches; ApplyStream's own OnEdge
// hooks must likewise mutate topology only through the stream's ops,
// never through AddEdge/RemoveEdge.
func (tx Tx) AddEdge(g *DynGraph, u, v uint32) bool {
	g.assertNoStream("AddEdge")
	return g.mutateEdge(tx, u, v, false)
}

// RemoveEdge deletes edge (u, v) from g within tx, returning whether
// the edge was actually removed (false when it was not live). On
// undirected graphs both arcs are removed atomically. The concurrency
// contract of AddEdge applies: direct RemoveEdge transactions must
// not overlap a batch.
func (tx Tx) RemoveEdge(g *DynGraph, u, v uint32) bool {
	g.assertNoStream("RemoveEdge")
	return g.mutateEdge(tx, u, v, true)
}

// assertNoStream panics when a direct edge mutation is attempted while
// a batch is in flight — see the contract on Tx.AddEdge.
func (g *DynGraph) assertNoStream(op string) {
	if g.streaming.Load() {
		panic("tufast: Tx." + op + " during a batch (ApplyStream, ApplyOwned or GCCtx): direct edge " +
			"mutations must not run concurrently with one (see Tx.AddEdge); " +
			"route serving-path mutations through ApplyOwned")
	}
}

// mutateEdge is the assertion-free mutation body shared by Tx.AddEdge,
// Tx.RemoveEdge and the stream applier (whose transactions are part of
// the batch and therefore correctly stamped by construction): it inserts
// (or, with del, removes) edge (u, v), both arcs on an undirected graph.
func (g *DynGraph) mutateEdge(tx Tx, u, v uint32, del bool) bool {
	changed := g.mutateArc(tx.t, u, v, del)
	if g.st.Undirected() && g.mutateArc(tx.t, v, u, del) {
		changed = true
	}
	return changed
}

// mutateArc inserts (or, with del, removes) the single arc u→v.
func (g *DynGraph) mutateArc(tx sched.Tx, u, v uint32, del bool) bool {
	if del {
		return g.st.RemoveArc(tx, u, v)
	}
	return g.st.AddArc(tx, u, v)
}

// HasEdgeMut reports whether edge (u, v) is live in g within tx,
// observing the transaction's own uncommitted mutations.
func (tx Tx) HasEdgeMut(g *DynGraph, u, v uint32) bool {
	return g.st.HasArc(tx.t, u, v)
}

// DegreeMut returns v's live out-degree in g within tx, observing the
// transaction's own uncommitted mutations.
func (tx Tx) DegreeMut(g *DynGraph, v uint32) int {
	return g.st.Degree(tx.t, v)
}

// NeighborsMut returns v's live out-neighbors in g within tx, sorted,
// appended into buf[:0], observing the transaction's own uncommitted
// mutations. Reading the whole adjacency subscribes to v's overlay
// words, so concurrent mutations of v conflict — as they must.
func (tx Tx) NeighborsMut(g *DynGraph, v uint32, buf []uint32) []uint32 {
	return g.st.Neighbors(tx.t, v, buf)
}

// StreamOp is one timestamped edge mutation of a dynamic-graph stream
// (an alias of the internal stream type, so cmd-level tooling and the
// public API share files).
type StreamOp = dyngraph.Op

// StreamStats summarizes one ApplyStream run.
type StreamStats struct {
	// Applied counts operations whose transaction committed (= len(ops)
	// on success; on error, the ops that committed before the failure).
	Applied int
	// Inserted / Removed count operations that changed the graph.
	Inserted int
	// Removed counts operations that deleted a live edge.
	Removed int
	// NoOps counts duplicate inserts and deletes of absent edges.
	NoOps int
	// Epoch is the mutation epoch at which this batch's effect is
	// visible: for an effective batch, the exact value this batch's
	// epoch bump produced (any snapshot taken at Epoch or later
	// includes the batch); for a no-op batch, the epoch observed after
	// application. Unlike reading DynGraph.Epoch() after ApplyStream
	// returns, this cannot reflect a later concurrent batch's bump.
	Epoch uint64
}

// StreamOptions tunes ApplyStream.
type StreamOptions struct {
	// Window is how many consecutive ops are applied concurrently
	// between barriers (default 4096). Ops within a window commit in
	// arbitrary order; ordering across windows is preserved, so two
	// ops on the same edge only race if they share a window.
	Window int
	// OnEdge, when non-nil, runs inside each mutation transaction
	// after the mutation, with changed reporting whether the graph
	// actually changed. It observes the uncommitted mutation (reads
	// see the transaction's own writes) and may do transactional
	// fix-up work; emit(u) schedules u post-commit (see Emit). Like
	// any transaction body it must be retry-safe.
	OnEdge func(tx Tx, op StreamOp, changed bool, emit func(u uint32)) error
	// Emit, when non-nil, receives every vertex the transaction
	// emitted — after that transaction committed (never for aborted
	// attempts). Called from worker goroutines concurrently; typical
	// use pushes into a worklist an incremental algorithm drains.
	Emit func(u uint32)
}

// ApplyStream applies a timestamped edge stream to g through
// transactions: ops are sorted by Time (in place), then applied in
// windows; within a window mutations run concurrently across the
// System's threads, each as its own transaction routed by
// MutationHint. See StreamOptions for the hooks incremental
// algorithms attach.
func (d *DynGraph) ApplyStream(ops []StreamOp, opt StreamOptions) (StreamStats, error) {
	return d.ApplyStreamCtx(context.Background(), ops, opt)
}

// ApplyStreamCtx is ApplyStream with cancellation. Batches are
// serialized against each other (windows within a batch still run on
// all threads): each batch's entries are stamped with the epoch its
// bump will publish, so a batch must own its stamp exclusively for
// pinned views to stay stable.
func (d *DynGraph) ApplyStreamCtx(ctx context.Context, ops []StreamOp, opt StreamOptions) (StreamStats, error) {
	d.batchMu.Lock()
	defer d.batchMu.Unlock()
	cur, err := d.beginBatch(ops)
	if err != nil {
		return StreamStats{Epoch: cur}, err
	}
	defer d.streaming.Store(false)
	window := opt.Window
	if window <= 0 {
		window = 4096
	}
	var stats StreamStats
	var applyErr error
	for lo := 0; lo < len(ops); lo += window {
		hi := lo + window
		if hi > len(ops) {
			hi = len(ops)
		}
		if err := d.applyWindow(ctx, ops[lo:hi], opt, &stats); err != nil {
			applyErr = err
			break
		}
	}
	// Accounting and the epoch bump run on the error path too: a window
	// that fails (cancellation, OnEdge error) after earlier windows —
	// or some of its own transactions — committed has still changed the
	// topology, and any committed change must invalidate epoch-keyed
	// consumers (result caches, lazy snapshots).
	d.publish(cur, &stats)
	return stats, applyErr
}

// beginBatch opens a batch (ApplyStreamCtx or ApplyOwned) under the
// batch lock the caller holds: it raises the streaming flag, sorts ops
// by Time and installs the write stamp epoch+1, returning the epoch cur
// it started at. The caller defers lowering the flag after deferring
// the unlock: deferred LIFO, the flag clears before batchMu releases, so
// a direct mutation admitted after the batch can never trip the
// assertion spuriously. On a graph an owned batch broke it opens
// nothing and returns the error.
func (d *DynGraph) beginBatch(ops []StreamOp) (cur uint64, err error) {
	cur = d.epoch.Load()
	if d.broken != nil {
		return cur, fmt.Errorf("tufast: graph takes no batch after an owned batch failed: %w", d.broken)
	}
	d.streaming.Store(true)
	// Entries this batch writes become visible exactly when the epoch
	// reaches cur+1 — i.e. when the batch publishes its bump. Readers
	// pinned at ≤ cur filter them out even mid-flight.
	d.st.SetWriteStamp(cur + 1)
	// A serving batch arrives in time order (all zero, or the client's
	// clock); only an unordered stream pays for the sort.
	if !slices.IsSortedFunc(ops, byTime) {
		slices.SortStableFunc(ops, byTime)
	}
	return cur, nil
}

// publish ends a batch that ran at write stamp cur+1: it adds the
// batch's outcomes to the graph's counters and, when anything changed,
// bumps the epoch to cur+1.
func (d *DynGraph) publish(cur uint64, stats *StreamStats) {
	stats.Applied = stats.Inserted + stats.Removed + stats.NoOps
	d.inserted.Add(uint64(stats.Inserted))
	d.removed.Add(uint64(stats.Removed))
	d.noops.Add(uint64(stats.NoOps))
	d.gcAppended.Add(uint64(stats.Inserted + stats.Removed))
	if stats.Inserted+stats.Removed > 0 {
		// Advance the write stamp past the new epoch BEFORE publishing
		// it, so a direct Tx mutation racing with the bump can never
		// stamp an entry at an epoch that is already pinnable.
		d.st.SetWriteStamp(cur + 2)
		d.epoch.Store(cur + 1)
		stats.Epoch = cur + 1
	} else {
		stats.Epoch = cur
	}
}

// ApplyOwned applies ops as one batch the way ApplyStreamCtx does — it
// sorts them by Time (in place), takes the batch lock (waiting for a
// batch in flight), stamps what it writes with epoch+1 and publishes that
// epoch when anything changed — but without transactions: each arc
// mutation runs on the goroutine that owns its source vertex, in slice
// order, through the same arc mutation a transaction runs, reading and
// writing the space directly (dyngraph.Store.Owned). An undirected op's
// two arcs go to their two owners and the op counts as changed if either
// did. No hook runs.
//
// The batch sizes its own fan-out: it has one owner per minOwnerOps ops,
// at least one and at most the System's threads, and a vertex's owner is
// its id modulo that count. A serving-sized batch thus has one owner and
// runs on the caller's goroutine; only a batch large enough to repay
// starting goroutines and waiting for them spreads over the threads.
// Each owner takes its ops a window at a time and loads the window's
// source words in two passes before it mutates any of them
// (dyngraph.Store.Warm), so their cache misses overlap instead of
// queueing one behind another down the chains.
//
// It is for a batch with nothing to arbitrate: boot recovery replaying a
// log tail, and a serving batch no hook rides. The batch lock already
// makes it the graph's only writer; the caller promises that no
// transaction touches the graph's chains while it runs — no direct
// Tx.AddEdge/RemoveEdge (it panics, as during any batch), no
// Tx.NeighborsMut/HasEdgeMut/DegreeMut reader. Pinned views are fine:
// the *At readers never look at a line version and filter what the
// batch writes by its stamp (see dyngraph.Store.NeighborsAt), so they
// read owned stores as they read committed ones. A GCCtx pass is a batch
// too: the two take turns on the lock. An op naming a vertex out of
// range is refused before anything moves.
//
// Nothing is rolled back. A panic in an owner — the space running out
// is the one a caller's ops can cause — ends that owner's share of the
// batch (and any share not yet started), possibly with its arc half
// written (an entry linked, its degree not yet bumped, or one arc of an
// undirected op without the other). ApplyOwned still publishes what the
// finished arcs changed, as ApplyStreamCtx does after a failed window,
// returns the first such panic as a *TxPanicError, and from then on the
// graph refuses every batch with it: it can be read, never again
// written.
func (d *DynGraph) ApplyOwned(ops []StreamOp) (StreamStats, error) {
	return d.applyOwned(ops, min(d.sys.rt.Threads, max(1, len(ops)/minOwnerOps)))
}

const (
	// minOwnerOps is the smallest share of a batch worth an owner of its
	// own: below twice this many ops a batch runs on the caller's
	// goroutine. Set from BenchmarkApplyOwned (EXPERIMENTS "Owned batches
	// apply where they arrive"): the smallest per-owner share at which
	// fanning out beat applying inline.
	minOwnerOps = 512
	// warmWindow is how many ops an owner warms before it mutates them.
	warmWindow = 256
)

// applyOwned is ApplyOwned on k owners.
func (d *DynGraph) applyOwned(ops []StreamOp, k int) (StreamStats, error) {
	n := uint32(d.st.NumVertices())
	for _, op := range ops {
		if op.U >= n || op.V >= n {
			return StreamStats{Epoch: d.epoch.Load()}, fmt.Errorf("tufast: ApplyOwned op (%d, %d) out of range [0,%d)", op.U, op.V, n)
		}
	}
	d.batchMu.Lock()
	defer d.batchMu.Unlock()
	cur, err := d.beginBatch(ops)
	if err != nil {
		return StreamStats{Epoch: cur}, err
	}
	defer d.streaming.Store(false)

	// Whether op i changed its arc U→V (written by U's owner) and, on an
	// undirected graph, its arc V→U (written by V's owner). Cleared, so
	// that an arc a panicking owner never reached counts as unchanged.
	fwd := slices.Grow(d.ownedFwd[:0], len(ops))[:len(ops)]
	clear(fwd)
	d.ownedFwd = fwd
	var rev []bool
	if d.st.Undirected() {
		rev = slices.Grow(d.ownedRev[:0], len(ops))[:len(ops)]
		clear(rev)
		d.ownedRev = rev
	}
	failed := d.owners(context.Background(), k, 1, func(lo, hi int) {
		for owner := lo; owner < hi; owner++ {
			d.warmed.Add(d.ownShare(ops, fwd, rev, uint32(owner), uint32(k)))
		}
	})
	var stats StreamStats
	for i, op := range ops {
		switch {
		case !fwd[i] && (rev == nil || !rev[i]):
			stats.NoOps++
		case op.Del:
			stats.Removed++
		default:
			stats.Inserted++
		}
	}
	d.publish(cur, &stats)
	d.broken = failed // nil unless an owner panicked: beginBatch let no broken graph in
	return stats, failed
}

// ownShare applies, in slice order, owner's arcs of ops out of k owners:
// op i's arc U→V when U mod k is owner, recording whether it changed in
// fwd[i], and on an undirected graph (rev non-nil) its arc V→U when V
// mod k is, in rev[i]. It goes a window at a time: one pass picks the
// window's arcs and warms their sources, a second follows what the first
// loaded (see dyngraph.Store.Warm), and only then are they mutated. It
// returns the sum of the words the warm passes loaded.
func (d *DynGraph) ownShare(ops []StreamOp, fwd, rev []bool, owner, k uint32) uint64 {
	tx := d.st.Owned()
	undirected := rev != nil
	// The window's arcs this owner writes, in order: op index << 1, with
	// bit 0 set for the op's arc V→U.
	var picked [2 * warmWindow]uint32
	var sum uint64
	for lo := 0; lo < len(ops); lo += warmWindow {
		win := ops[lo:min(lo+warmWindow, len(ops))]
		arcs := picked[:0]
		for i, op := range win {
			if k == 1 || op.U%k == owner {
				arcs = append(arcs, uint32(i)<<1)
				sum += d.st.Warm(op.U)
			}
			if undirected && (k == 1 || op.V%k == owner) {
				arcs = append(arcs, uint32(i)<<1|1)
				sum += d.st.Warm(op.V)
			}
		}
		for _, a := range arcs {
			if op := win[a>>1]; a&1 == 0 {
				sum += d.st.WarmChain(op.U)
			} else {
				sum += d.st.WarmChain(op.V)
			}
		}
		for _, a := range arcs {
			i, op := lo+int(a>>1), win[a>>1]
			if a&1 == 0 {
				fwd[i] = d.mutateArc(tx, op.U, op.V, op.Del)
			} else {
				rev[i] = d.mutateArc(tx, op.V, op.U, op.Del)
			}
		}
	}
	return sum
}

// byTime orders stream ops by timestamp.
func byTime(a, b StreamOp) int { return cmp.Compare(a.Time, b.Time) }

// applier is what one goroutine of a window runs its ops with: the op
// in hand, its outcome and its emits live here, so the transaction body
// and the emit callback are built once per goroutine and a window
// allocates per goroutine, not per op. It also tallies the goroutine's
// outcomes for the barrier to add up.
type applier struct {
	d       *DynGraph
	onEdge  func(tx Tx, op StreamOp, changed bool, emit func(u uint32)) error
	body    sched.TxFunc
	emit    func(u uint32)
	op      StreamOp
	changed bool
	pending []uint32

	inserted, removed, noops int

	// A window's appliers sit side by side and each is written once per
	// op by its own goroutine: keep them off one another's cache lines.
	_ [64]byte
}

func (a *applier) init(d *DynGraph, opt StreamOptions) {
	a.d, a.onEdge = d, opt.OnEdge
	a.emit = func(u uint32) { a.pending = append(a.pending, u) }
	a.body = a.run
}

// run is the mutation transaction of a.op; a retried attempt starts its
// outcome and its emits from scratch.
func (a *applier) run(t sched.Tx) error {
	tx := Tx{t: t}
	a.pending = a.pending[:0]
	a.changed = a.d.mutateEdge(tx, a.op.U, a.op.V, a.op.Del)
	if a.onEdge != nil {
		return a.onEdge(tx, a.op, a.changed, a.emit)
	}
	return nil
}

// applyWindow runs one window of ops concurrently, barriers, and adds
// the window's outcomes to stats.
func (d *DynGraph) applyWindow(ctx context.Context, win []StreamOp, opt StreamOptions, stats *StreamStats) error {
	appliers := make([]applier, d.sys.rt.Threads)
	err := d.sys.rt.WithContext(ctx).Sweep("apply_stream", len(win), 32, func(tid int, w *algo.Worker) func(int) error {
		a := &appliers[tid] // tid is one goroutine's for the whole window
		a.init(d, opt)
		return func(i int) error {
			a.op = win[i]
			if err := w.Run(ctx, d.MutationHint(a.op.U, a.op.V), a.body); err != nil {
				return err
			}
			switch {
			case !a.changed:
				a.noops++
			case a.op.Del:
				a.removed++
			default:
				a.inserted++
			}
			if opt.Emit != nil {
				for _, u := range a.pending {
					opt.Emit(u)
				}
			}
			return nil
		}
	})
	for i := range appliers {
		stats.Inserted += appliers[i].inserted
		stats.Removed += appliers[i].removed
		stats.NoOps += appliers[i].noops
	}
	return err
}
