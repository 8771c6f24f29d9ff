// Incremental algorithms over mutable graphs: instead of recomputing
// from scratch after every batch of edge mutations, they attach to
// DynGraph.ApplyStream's hooks — each mutation transaction does a tiny
// transactional fix-up and emits the vertices whose state may now be
// stale, and a concurrent Stabilize drain propagates the change. The
// result is the streaming workload of the dynamic-graph literature
// (GTX-style updates coexisting with analytics) expressed entirely in
// TuFast transactions, so fix-up work is routed H/O/L by live degree
// like everything else.
package algorithms

import (
	"context"
	"math"
	"sync"
	"time"

	"tufast"
	"tufast/internal/algo"
	"tufast/internal/sched"
	"tufast/internal/worklist"
)

// newRepairQueue returns the queue an incremental computation's repairs
// wait in: a vertex already pending is not pushed twice, and the drain
// body clears its bit first so later changes can re-activate it.
func newRepairQueue(d *tufast.DynGraph) algo.DedupFIFO {
	return algo.DedupFIFO{Q: worklist.NewQueue(d.System().Threads()), Queued: worklist.NewBitset(d.NumVertices())}
}

// IncrementalCC maintains connected-component labels (min vertex id
// per component) on a mutable undirected graph. Edge inserts are fixed
// up incrementally: the mutation transaction emits both endpoints so
// the Stabilize drain merges the components by min-label propagation
// over live adjacency. Deletes can split components, which label
// propagation cannot undo locally — log them (LogDeletes) and run
// RepairDeletes against an epoch-pinned view: it re-derives labels for
// just the components the deletes touched, skipping deletes that
// provably did not split anything, instead of a full Recompute.
type IncrementalCC struct {
	dyn  *tufast.DynGraph
	sys  *tufast.System
	comp tufast.VertexArray
	sink algo.DedupFIFO

	delMu  sync.Mutex
	delLog []loggedDelete
}

// loggedDelete is one effective delete awaiting split repair, tagged
// with the mutation epoch of the batch that committed it.
type loggedDelete struct {
	u, v  uint32
	epoch uint64
}

// NewIncrementalCC attaches an incremental connected-components
// computation to d (which must be undirected) and initializes labels
// for the current topology via Recompute.
func NewIncrementalCC(d *tufast.DynGraph) (*IncrementalCC, error) {
	if !d.Undirected() {
		return nil, ErrNeedUndirected
	}
	s := d.System()
	cc := &IncrementalCC{
		dyn:  d,
		sys:  s,
		comp: s.NewVertexArray(0),
		sink: newRepairQueue(d),
	}
	return cc, nil
}

// Recompute computes labels for the current topology from scratch.
// Quiescent start: no mutators may be in flight when it resets labels
// (the subsequent drain tolerates concurrent inserts).
func (cc *IncrementalCC) Recompute() error {
	return cc.RecomputeCtx(context.Background())
}

// RecomputeCtx is Recompute with cancellation.
func (cc *IncrementalCC) RecomputeCtx(ctx context.Context) error {
	n := cc.dyn.NumVertices()
	for v := 0; v < n; v++ {
		cc.comp.Set(uint32(v), uint64(v))
	}
	for v := 0; v < n; v++ {
		cc.sink.Push(uint32(v), 0)
	}
	return cc.StabilizeCtx(ctx)
}

// OnEdge is the StreamOptions.OnEdge hook: inside the mutation
// transaction, an effective insert emits both endpoints so the drain
// merges their components. The emit is unconditional — comparing
// labels here would race with a concurrent repair's label reset (the
// insert could observe pre-reset equal labels, skip the emit, and the
// merge would never be rediscovered); the dedup sink bounds the cost.
// Deletes are left to LogDeletes/RepairDeletes.
func (cc *IncrementalCC) OnEdge(tx tufast.Tx, op tufast.StreamOp, changed bool, emit func(u uint32)) error {
	if !changed || op.Del {
		return nil
	}
	emit(op.U)
	emit(op.V)
	return nil
}

// Emit is the StreamOptions.Emit hook: committed emits enter the
// dedup queue for the next Stabilize.
func (cc *IncrementalCC) Emit(u uint32) { cc.sink.Push(u, 0) }

// Stabilize drains the pending queue, propagating min labels over live
// adjacency until no vertex improves. Safe to run concurrently with an
// insert-only ApplyStream (labels only decrease, and every mutation
// emits post-commit); returns with the queue empty.
func (cc *IncrementalCC) Stabilize() error {
	return cc.StabilizeCtx(context.Background())
}

// StabilizeCtx is Stabilize with cancellation.
func (cc *IncrementalCC) StabilizeCtx(ctx context.Context) error {
	hint := func(v uint32) int { return 2*cc.dyn.LiveDegree(v) + 4 }
	_, err := cc.sys.Runtime().WithContext(ctx).Drain("incremental_cc", cc.sink, cc.sink, hint,
		func(out *worklist.Emits) func(sched.Tx, uint32) error {
			return func(t sched.Tx, v uint32) error {
				tx := tufast.WrapTx(t)
				cc.sink.Queued.Clear(v)
				cv := tx.Read(v, cc.comp.Addr(v))
				best := cv
				nbs := tx.NeighborsMut(cc.dyn, v, nil)
				for _, u := range nbs {
					if cu := tx.Read(u, cc.comp.Addr(u)); cu < best {
						best = cu
					}
				}
				if best < cv {
					tx.Write(v, cc.comp.Addr(v), best)
					out.Emit(v, 0)
				}
				for _, u := range nbs {
					if tx.Read(u, cc.comp.Addr(u)) > best {
						tx.Write(u, cc.comp.Addr(u), best)
						out.Emit(u, 0)
					}
				}
				return nil
			}
		})
	return err
}

// Components returns the current labels (quiescent read).
func (cc *IncrementalCC) Components() []uint64 {
	return cc.ComponentsInto(nil)
}

// ComponentsInto appends the current labels into buf[:0]. Each label
// is one atomic word read, so calling it while a Stabilize drain or
// mutation stream runs is memory-safe (no torn words, race-detector
// clean) — but the values are then advisory: different vertices may be
// read at different repair states. For an exact snapshot, call at
// quiescence (no drain, no mutators in flight).
func (cc *IncrementalCC) ComponentsInto(buf []uint64) []uint64 {
	n := cc.dyn.NumVertices()
	buf = buf[:0]
	for v := 0; v < n; v++ {
		buf = append(buf, cc.comp.Get(uint32(v)))
	}
	return buf
}

// Pending returns how many vertices are queued for repair: zero means
// the computation is stable for every mutation whose emits have been
// delivered. Safe to call concurrently with drains and streams.
func (cc *IncrementalCC) Pending() int { return cc.sink.Len() }

// LogDeletes records the effective deletes of a committed batch (non-Del
// ops are skipped) for a later RepairDeletes, tagged with the batch's
// mutation epoch. Call after the batch committed — logging from inside
// OnEdge would let a repair consume a delete whose batch is still in
// flight and whose edge is therefore still visible in the pinned view.
func (cc *IncrementalCC) LogDeletes(ops []tufast.StreamOp, epoch uint64) {
	cc.delMu.Lock()
	for _, op := range ops {
		if op.Del {
			cc.delLog = append(cc.delLog, loggedDelete{op.U, op.V, epoch})
		}
	}
	cc.delMu.Unlock()
}

// PendingDeletes returns how many logged deletes await repair.
func (cc *IncrementalCC) PendingDeletes() int {
	cc.delMu.Lock()
	defer cc.delMu.Unlock()
	return len(cc.delLog)
}

// DropDeletesThrough discards logged deletes with epoch ≤ e — used
// after a full Recompute, which re-derives every label and so covers
// every delete visible at its topology.
func (cc *IncrementalCC) DropDeletesThrough(e uint64) {
	cc.delMu.Lock()
	kept := cc.delLog[:0]
	for _, d := range cc.delLog {
		if d.epoch > e {
			kept = append(kept, d)
		}
	}
	cc.delLog = kept
	cc.delMu.Unlock()
}

// RepairDeletes repairs component labels after edge deletes without a
// full recompute: see RepairDeletesCtx.
func (cc *IncrementalCC) RepairDeletes(view *tufast.GraphView) (int, error) {
	return cc.RepairDeletesCtx(context.Background(), view)
}

// RepairDeletesCtx consumes the logged deletes with epoch ≤ the view's
// pinned epoch and repairs the labels of every component they may have
// split, reading topology only through the view. For each consumed
// delete (u, v): if the edge is live again at the view's epoch, or the
// endpoints still share a neighbor there (the triangle fast path —
// still connected, so no split), nothing needs repair. Otherwise the
// components of u and v at the view's epoch are walked breadth-first,
// every visited label is reset to self, and the vertices are queued;
// the caller's following StabilizeCtx re-propagates each component's
// true minimum. The walk runs at the pinned epoch, so inserts that
// re-merged vertices after a delete are either already visible in the
// view or will re-emit their endpoints themselves (OnEdge emits
// unconditionally). On error the consumed deletes are restored for the
// next attempt. Returns how many logged deletes were consumed.
func (cc *IncrementalCC) RepairDeletesCtx(ctx context.Context, view *tufast.GraphView) (int, error) {
	e := view.Epoch()
	cc.delMu.Lock()
	var take []loggedDelete
	kept := cc.delLog[:0]
	for _, d := range cc.delLog {
		if d.epoch <= e {
			take = append(take, d)
		} else {
			kept = append(kept, d)
		}
	}
	cc.delLog = kept
	cc.delMu.Unlock()
	if len(take) == 0 {
		return 0, nil
	}
	if err := cc.repairDeletes(ctx, view, take); err != nil {
		cc.delMu.Lock()
		cc.delLog = append(take, cc.delLog...)
		cc.delMu.Unlock()
		return 0, err
	}
	return len(take), nil
}

func (cc *IncrementalCC) repairDeletes(ctx context.Context, view *tufast.GraphView, dels []loggedDelete) error {
	n := cc.dyn.NumVertices()
	visited := worklist.NewBitset(n)
	var stack, affected, nu, nv []uint32
	for _, d := range dels {
		if d.u == d.v || int(d.u) >= n || int(d.v) >= n {
			continue
		}
		if view.HasEdge(d.u, d.v) {
			continue // re-added (or never effective) at this epoch: no split
		}
		nu = view.Neighbors(d.u, nu[:0])
		nv = view.Neighbors(d.v, nv[:0])
		if shareSorted(nu, nv) {
			continue // still connected through a common neighbor: no split
		}
		// Walk both endpoints' components at the pinned epoch. A BFS
		// from an endpoint covers its whole component, so the reset
		// below re-derives that component's minimum exactly.
		for _, s := range [2]uint32{d.u, d.v} {
			if !visited.TestAndSet(s) {
				continue
			}
			stack = append(stack[:0], s)
			affected = append(affected, s)
			for len(stack) > 0 {
				v := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				nu = view.Neighbors(v, nu[:0])
				for _, w := range nu {
					if visited.TestAndSet(w) {
						stack = append(stack, w)
						affected = append(affected, w)
					}
				}
			}
		}
	}
	// Reset every affected label to self transactionally (a mutation
	// transaction on the same vertex conflicts and serializes), then
	// queue it for the min-label drain.
	w := cc.sys.Worker()
	defer cc.sys.Release(w)
	for _, v := range affected {
		if err := ctx.Err(); err != nil {
			return err
		}
		v := v
		err := w.AtomicCtx(ctx, 4, func(tx tufast.Tx) error {
			tx.Write(v, cc.comp.Addr(v), uint64(v))
			return nil
		})
		if err != nil {
			return err
		}
		cc.sink.Push(v, 0)
	}
	return nil
}

// shareSorted reports whether two ascending-sorted lists intersect.
func shareSorted(a, b []uint32) bool {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			return true
		}
	}
	return false
}

// DeltaPageRank maintains PageRank on a mutable graph by residual
// propagation, exactly for both inserts and deletes. Three words per
// vertex: rank x[v] (absorbed mass, the estimate), residual r[v]
// (signed: deletes produce negative residuals), and paid p[v] — the
// per-out-neighbor amount v has distributed so far. The invariant
//
//	r[v] = (1-d) + d·Σ_{u→v} p[u] − x[v]
//
// is preserved by every operation: a push absorbs r into x and pays
// r/deg more to each out-neighbor; an edge mutation transaction
// adjusts the new/removed target by ±d·p[u] and re-levels p[u] to
// x[u]/newdeg across the current adjacency, all inside the mutation's
// own transaction (reads observe the uncommitted topology change). At
// quiescence with all |r| ≤ eps, x matches a from-scratch PageRank of
// the current topology to within the usual residual tolerance.
// Dangling vertices drop their mass, matching the static PageRank
// here.
type DeltaPageRank struct {
	dyn  *tufast.DynGraph
	sys  *tufast.System
	d    float64
	eps  float64
	rank tufast.VertexArray // x
	res  tufast.VertexArray // r
	paid tufast.VertexArray // p
	sink algo.DedupFIFO
}

// NewDeltaPageRank attaches a delta-PageRank computation (damping d,
// residual tolerance eps) to dg and seeds it for the current topology.
// Quiescent start; call Stabilize (or run a stream) to converge.
func NewDeltaPageRank(dg *tufast.DynGraph, d, eps float64) *DeltaPageRank {
	s := dg.System()
	pr := &DeltaPageRank{
		dyn: dg, sys: s, d: d, eps: eps,
		rank: s.NewVertexArray(0),
		res:  s.NewVertexArray(0),
		paid: s.NewVertexArray(0),
		sink: newRepairQueue(dg),
	}
	n := dg.NumVertices()
	resid := make([]float64, n)
	var buf []uint32
	for v := 0; v < n; v++ {
		pr.rank.SetFloat(uint32(v), 1-d)
		buf = dg.NeighborsNow(uint32(v), buf[:0])
		if len(buf) == 0 {
			continue
		}
		p := (1 - d) / float64(len(buf))
		pr.paid.SetFloat(uint32(v), p)
		for _, w := range buf {
			resid[w] += d * p
		}
	}
	for v := 0; v < n; v++ {
		pr.res.SetFloat(uint32(v), resid[v])
		if math.Abs(resid[v]) > eps {
			pr.sink.Push(uint32(v), 0)
		}
	}
	return pr
}

// addResid adds delta to w's residual inside tx, emitting w when the
// residual crosses the tolerance.
func (pr *DeltaPageRank) addResid(tx tufast.Tx, w uint32, delta float64, emit func(u uint32)) {
	old := tx.ReadFloat(w, pr.res.Addr(w))
	nw := old + delta
	tx.WriteFloat(w, pr.res.Addr(w), nw)
	if math.Abs(nw) > pr.eps && math.Abs(old) <= pr.eps {
		emit(w)
	}
}

// fixArc restores the paid invariant for source u after arc u→w was
// inserted (del=false) or removed (del=true) earlier in the same
// transaction: w gains/loses the historical payment d·p[u], and p[u]
// is re-leveled to x[u]/newdeg across u's current (post-mutation)
// adjacency.
func (pr *DeltaPageRank) fixArc(tx tufast.Tx, u, w uint32, del bool, emit func(v uint32)) {
	pu := tx.ReadFloat(u, pr.paid.Addr(u))
	if del {
		pr.addResid(tx, w, -pr.d*pu, emit)
	} else {
		pr.addResid(tx, w, pr.d*pu, emit)
	}
	kNew := tx.DegreeMut(pr.dyn, u)
	pNew := 0.0
	if kNew > 0 {
		pNew = tx.ReadFloat(u, pr.rank.Addr(u)) / float64(kNew)
	}
	if delta := pNew - pu; delta != 0 && kNew > 0 {
		for _, nb := range tx.NeighborsMut(pr.dyn, u, nil) {
			pr.addResid(tx, nb, pr.d*delta, emit)
		}
	}
	tx.WriteFloat(u, pr.paid.Addr(u), pNew)
}

// OnEdge is the StreamOptions.OnEdge hook: fix up the source's paid
// state inside the mutation transaction (both directions on
// undirected graphs, matching AddEdge/RemoveEdge).
func (pr *DeltaPageRank) OnEdge(tx tufast.Tx, op tufast.StreamOp, changed bool, emit func(u uint32)) error {
	if !changed {
		return nil
	}
	pr.fixArc(tx, op.U, op.V, op.Del, emit)
	if pr.dyn.Undirected() {
		pr.fixArc(tx, op.V, op.U, op.Del, emit)
	}
	return nil
}

// Emit is the StreamOptions.Emit hook.
func (pr *DeltaPageRank) Emit(u uint32) { pr.sink.Push(u, 0) }

// Stabilize drains residuals below eps by asynchronous push. Safe to
// run concurrently with ApplyStream (every hook emits post-commit).
func (pr *DeltaPageRank) Stabilize() error {
	return pr.StabilizeCtx(context.Background())
}

// StabilizeCtx is Stabilize with cancellation.
func (pr *DeltaPageRank) StabilizeCtx(ctx context.Context) error {
	hint := func(v uint32) int { return 2*pr.dyn.LiveDegree(v) + 8 }
	_, err := pr.sys.Runtime().WithContext(ctx).Drain("delta_pagerank", pr.sink, pr.sink, hint,
		func(out *worklist.Emits) func(sched.Tx, uint32) error {
			emit := func(u uint32) { out.Emit(u, 0) }
			return func(t sched.Tx, v uint32) error {
				tx := tufast.WrapTx(t)
				pr.sink.Queued.Clear(v)
				rv := tx.ReadFloat(v, pr.res.Addr(v))
				if math.Abs(rv) <= pr.eps {
					return nil
				}
				tx.WriteFloat(v, pr.res.Addr(v), 0)
				tx.WriteFloat(v, pr.rank.Addr(v), tx.ReadFloat(v, pr.rank.Addr(v))+rv)
				k := tx.DegreeMut(pr.dyn, v)
				if k == 0 {
					return nil // dangling: mass dropped, like the static PageRank
				}
				share := rv / float64(k)
				tx.WriteFloat(v, pr.paid.Addr(v), tx.ReadFloat(v, pr.paid.Addr(v))+share)
				for _, u := range tx.NeighborsMut(pr.dyn, v, nil) {
					pr.addResid(tx, u, pr.d*share, emit)
				}
				return nil
			}
		})
	return err
}

// Ranks returns the current estimates (quiescent read).
func (pr *DeltaPageRank) Ranks() []float64 {
	return pr.RanksInto(nil)
}

// RanksInto appends the current estimates into buf[:0]. Each rank is
// one atomic word read, so calling it while a Stabilize drain or
// mutation stream runs is memory-safe — but the values are then
// advisory (mid-push mass can be in a residual rather than a rank).
// For an exact snapshot, call at quiescence.
func (pr *DeltaPageRank) RanksInto(buf []float64) []float64 {
	n := pr.dyn.NumVertices()
	buf = buf[:0]
	for v := 0; v < n; v++ {
		buf = append(buf, pr.rank.GetFloat(uint32(v)))
	}
	return buf
}

// Pending returns how many vertices are queued for repair: zero means
// all residuals known to the sink are below tolerance. Safe to call
// concurrently with drains and streams.
func (pr *DeltaPageRank) Pending() int { return pr.sink.Len() }

// streamResult carries ApplyStream's outcome across the driver
// goroutine boundary.
type streamResult struct {
	stats tufast.StreamStats
	err   error
}

// runStreaming applies ops with the given hooks while repeatedly
// draining stabilize concurrently, then returns the stream stats.
// The drain only runs while pending reports queued repair work — an
// empty sink sleeps with exponential backoff instead of spinning a
// core through stabilize's quiesce protocol for the whole stream.
func runStreaming(ctx context.Context, d *tufast.DynGraph, ops []tufast.StreamOp,
	window int, onEdge func(tufast.Tx, tufast.StreamOp, bool, func(uint32)) error,
	emit func(uint32), pending func() int, stabilize func(context.Context) error) (tufast.StreamStats, error) {

	done := make(chan streamResult, 1)
	go func() {
		st, err := d.ApplyStreamCtx(ctx, ops, tufast.StreamOptions{
			Window: window, OnEdge: onEdge, Emit: emit,
		})
		done <- streamResult{st, err}
	}()
	const minSleep, maxSleep = 50 * time.Microsecond, 2 * time.Millisecond
	sleep := minSleep
	for {
		select {
		case r := <-done:
			if r.err != nil {
				return r.stats, r.err
			}
			return r.stats, nil
		default:
			if pending() == 0 {
				// An emit landing between the check and the sleep just
				// waits one backoff step; the caller's final drain after
				// the stream returns catches any tail.
				time.Sleep(sleep)
				if sleep *= 2; sleep > maxSleep {
					sleep = maxSleep
				}
				continue
			}
			sleep = minSleep
			if err := stabilize(ctx); err != nil {
				r := <-done // let the stream driver finish before reporting
				if r.err != nil {
					return r.stats, r.err
				}
				return r.stats, err
			}
		}
	}
}

// StreamingCC applies a timestamped edge stream to d while maintaining
// connected components incrementally: mutation transactions and label
// propagation run concurrently on the same transactional runtime. If
// the stream contained effective deletes, the components they touched
// are repaired against an epoch-pinned view (RepairDeletes) — not
// rebuilt from scratch; otherwise a final Stabilize suffices. Returns
// the final labels and the stream stats.
func StreamingCC(ctx context.Context, d *tufast.DynGraph, ops []tufast.StreamOp, window int) ([]uint64, tufast.StreamStats, error) {
	cc, err := NewIncrementalCC(d)
	if err != nil {
		return nil, tufast.StreamStats{}, err
	}
	if err := cc.RecomputeCtx(ctx); err != nil {
		return nil, tufast.StreamStats{}, err
	}
	stats, err := runStreaming(ctx, d, ops, window, cc.OnEdge, cc.Emit, cc.Pending, cc.StabilizeCtx)
	if err != nil {
		return nil, stats, err
	}
	if stats.Removed > 0 {
		view := d.View()
		cc.LogDeletes(ops, view.Epoch())
		_, err = cc.RepairDeletesCtx(ctx, view)
		view.Close()
		if err != nil {
			return nil, stats, err
		}
	}
	if err := cc.StabilizeCtx(ctx); err != nil {
		return nil, stats, err
	}
	return cc.Components(), stats, nil
}

// StreamingPageRank applies a timestamped edge stream to d while
// maintaining PageRank by exact delta propagation — deletes included,
// so no final recompute is needed, only a final drain. Returns the
// final ranks and the stream stats.
func StreamingPageRank(ctx context.Context, d *tufast.DynGraph, ops []tufast.StreamOp, damping, eps float64, window int) ([]float64, tufast.StreamStats, error) {
	pr := NewDeltaPageRank(d, damping, eps)
	if err := pr.StabilizeCtx(ctx); err != nil {
		return nil, tufast.StreamStats{}, err
	}
	stats, err := runStreaming(ctx, d, ops, window, pr.OnEdge, pr.Emit, pr.Pending, pr.StabilizeCtx)
	if err != nil {
		return nil, stats, err
	}
	if err := pr.StabilizeCtx(ctx); err != nil {
		return nil, stats, err
	}
	return pr.Ranks(), stats, nil
}
