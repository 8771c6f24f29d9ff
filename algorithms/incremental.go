// Incremental algorithms over mutable graphs: instead of recomputing
// from scratch after every batch of edge mutations, they attach to
// DynGraph.ApplyStream's hooks — each mutation transaction does a tiny
// transactional fix-up and emits the vertices whose state may now be
// stale, and a concurrent Repair drain propagates the change. The
// result is the streaming workload of the dynamic-graph literature
// (GTX-style updates coexisting with analytics) expressed entirely in
// TuFast transactions, so fix-up work is routed H/O/L by live degree
// like everything else.
package algorithms

import (
	"context"
	"math"
	"sync"

	"tufast"
	"tufast/internal/algo"
	"tufast/internal/sched"
	"tufast/internal/worklist"
)

// Incremental is the one contract the computations here keep and
// their drivers (StreamingCC, StreamingPageRank, the server's standing
// queries) use. OnEdge and Emit are every mutation batch's
// StreamOptions hooks; Committed hears of each batch, with its ops and
// stats, after it committed; Repair brings the result up to date as of
// view's pinned epoch, possibly while later batches commit; Pending
// counts queued repair work. Repair calls must not overlap.
type Incremental interface {
	OnEdge(tx tufast.Tx, op tufast.StreamOp, changed bool, emit func(u uint32)) error
	Emit(u uint32)
	Committed(ops []tufast.StreamOp, stats tufast.StreamStats)
	Repair(ctx context.Context, view *tufast.GraphView) (Repaired, error)
	Pending() int
}

// Repaired reports what one Repair did beyond draining its queue: a
// from-scratch recompute, and how many logged deletes it repaired.
type Repaired struct {
	Recomputed bool
	Deletes    int
}

// newRepairQueue returns the queue an incremental computation's repairs
// wait in: a vertex already pending is not pushed twice, and the drain
// body clears its bit first so later changes can re-activate it.
func newRepairQueue(d *tufast.DynGraph) algo.DedupFIFO {
	return algo.DedupFIFO{Q: worklist.NewQueue(d.System().Threads()), Queued: worklist.NewBitset(d.NumVertices())}
}

// IncrementalCC maintains connected-component labels (min vertex id
// per component) on a mutable undirected graph. Its first Repair
// computes labels from scratch. Edge inserts are fixed up
// incrementally: the mutation transaction emits both endpoints so the
// Repair drain merges the components by min-label propagation over live
// adjacency. Deletes can split components, which label propagation
// cannot undo locally — Committed logs them, and Repair re-derives
// labels for just the components they touched in its epoch-pinned view,
// skipping deletes that provably did not split anything, instead of
// recomputing.
type IncrementalCC struct {
	dyn  *tufast.DynGraph
	sys  *tufast.System
	comp tufast.VertexArray
	sink algo.DedupFIFO

	// seeded is set by the first Repair that completes its full
	// recompute; only Repair touches it.
	seeded bool

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
// computation to d (which must be undirected). Labels are computed by
// the first Repair.
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

// OnEdge is the StreamOptions.OnEdge hook: inside the mutation
// transaction, an effective insert emits both endpoints so the drain
// merges their components. The emit is unconditional — comparing
// labels here would race with a concurrent repair's label reset (the
// insert could observe pre-reset equal labels, skip the emit, and the
// merge would never be rediscovered); the dedup sink bounds the cost.
// Deletes are left to Committed and Repair.
func (cc *IncrementalCC) OnEdge(tx tufast.Tx, op tufast.StreamOp, changed bool, emit func(u uint32)) error {
	if !changed || op.Del {
		return nil
	}
	emit(op.U)
	emit(op.V)
	return nil
}

// Emit is the StreamOptions.Emit hook: committed emits enter the
// dedup queue for the next Repair.
func (cc *IncrementalCC) Emit(u uint32) { cc.sink.Push(u, 0) }

// Committed logs a committed batch's deletes (non-Del ops are skipped)
// for a later Repair, tagged with the batch's mutation epoch. It must
// run after the batch committed — logging from inside OnEdge would let
// a repair consume a delete whose batch is still in flight and whose
// edge is therefore still visible in the pinned view.
func (cc *IncrementalCC) Committed(ops []tufast.StreamOp, stats tufast.StreamStats) {
	if stats.Removed == 0 {
		return
	}
	cc.delMu.Lock()
	for _, op := range ops {
		if op.Del {
			cc.delLog = append(cc.delLog, loggedDelete{op.U, op.V, stats.Epoch})
		}
	}
	cc.delMu.Unlock()
}

// Repair brings the labels up to date as of view's epoch. The first
// successful call recomputes every label from the live topology (≥ the
// view's), which covers the logged deletes at or below the view's
// epoch, so those are dropped. Later calls consume the logged deletes
// at or below the view's epoch, repair the components they may have
// split (see repairDeletes), and drain the queue, propagating min
// labels over live adjacency until no vertex improves. The drain is
// safe beside an insert-only stream (labels only decrease, and every
// mutation emits post-commit). On error the consumed deletes are
// restored for the next call.
func (cc *IncrementalCC) Repair(ctx context.Context, view *tufast.GraphView) (Repaired, error) {
	e := view.Epoch()
	if !cc.seeded {
		n := cc.dyn.NumVertices()
		for v := 0; v < n; v++ {
			cc.comp.Set(uint32(v), uint64(v))
			cc.sink.Push(uint32(v), 0)
		}
		if err := cc.stabilize(ctx); err != nil {
			return Repaired{}, err
		}
		cc.seeded = true
		cc.delMu.Lock()
		cc.delLog, _ = splitDeletes(cc.delLog, e)
		cc.delMu.Unlock()
		return Repaired{Recomputed: true}, nil
	}
	cc.delMu.Lock()
	var take []loggedDelete
	cc.delLog, take = splitDeletes(cc.delLog, e)
	cc.delMu.Unlock()
	if err := cc.repairDeletes(ctx, view, take); err != nil {
		cc.delMu.Lock()
		cc.delLog = append(take, cc.delLog...)
		cc.delMu.Unlock()
		return Repaired{}, err
	}
	return Repaired{Deletes: len(take)}, cc.stabilize(ctx)
}

// splitDeletes partitions log in place into the deletes after epoch e
// (kept) and a fresh slice of those at or below it (taken).
func splitDeletes(log []loggedDelete, e uint64) (kept, taken []loggedDelete) {
	kept = log[:0]
	for _, d := range log {
		if d.epoch <= e {
			taken = append(taken, d)
		} else {
			kept = append(kept, d)
		}
	}
	return kept, taken
}

func (cc *IncrementalCC) stabilize(ctx context.Context) error {
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
// is one atomic word read, so calling it while a Repair drain or
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

// repairDeletes repairs the labels of every component the given deletes
// may have split, reading topology only through the view. For each
// delete (u, v): if the edge is live again at the view's epoch, or the
// endpoints still share a neighbor there (the triangle fast path —
// still connected, so no split), nothing needs repair. Otherwise the
// components of u and v at the view's epoch are walked breadth-first,
// every visited label is reset to self, and the vertices are queued;
// the following drain re-propagates each component's true minimum. The
// walk runs at the pinned epoch, so inserts that re-merged vertices
// after a delete are either already visible in the view or will re-emit
// their endpoints themselves (OnEdge emits unconditionally).
func (cc *IncrementalCC) repairDeletes(ctx context.Context, view *tufast.GraphView, dels []loggedDelete) error {
	if len(dels) == 0 {
		return nil
	}
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
// Quiescent start; call Stabilize (or Repair, or run a stream) to
// converge.
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

// Committed does nothing: OnEdge already fixed up deletes exactly, so
// a committed batch leaves only its emits to drain.
func (pr *DeltaPageRank) Committed([]tufast.StreamOp, tufast.StreamStats) {}

// Repair drains residuals below eps; see Stabilize. The push runs over
// live adjacency, so the view is not read.
func (pr *DeltaPageRank) Repair(ctx context.Context, _ *tufast.GraphView) (Repaired, error) {
	return Repaired{}, pr.stabilize(ctx)
}

// Stabilize drains residuals below eps by asynchronous push. Safe to
// run concurrently with ApplyStream (every hook emits post-commit).
func (pr *DeltaPageRank) Stabilize() error {
	return pr.stabilize(context.Background())
}

func (pr *DeltaPageRank) stabilize(ctx context.Context) error {
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
// one atomic word read, so calling it while a Repair drain or mutation
// stream runs is memory-safe — but the values are then advisory
// (mid-push mass can be in a residual rather than a rank). For an exact
// snapshot, call at quiescence.
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

// runStreaming repairs c once at the current epoch, applies ops with
// c's hooks while repairing concurrently, then hands c the stream's
// ops and stats and repairs once more. The concurrent repairs follow
// the server's standing-query worker: the Emit hook fills a buffered(1)
// wake channel without blocking, so the loop sleeps while nothing is
// emitted and emits landing during a repair coalesce into one more.
func runStreaming(ctx context.Context, d *tufast.DynGraph, ops []tufast.StreamOp, window int, c Incremental) (tufast.StreamStats, error) {
	repair := func() error {
		view := d.View()
		defer view.Close()
		_, err := c.Repair(ctx, view)
		return err
	}
	if err := repair(); err != nil {
		return tufast.StreamStats{}, err
	}
	wake := make(chan struct{}, 1)
	done := make(chan streamResult, 1)
	go func() {
		st, err := d.ApplyStreamCtx(ctx, ops, tufast.StreamOptions{
			Window: window, OnEdge: c.OnEdge,
			Emit: func(u uint32) {
				c.Emit(u)
				select {
				case wake <- struct{}{}:
				default:
				}
			},
		})
		done <- streamResult{st, err}
	}()
	for {
		select {
		case r := <-done:
			if r.err != nil {
				return r.stats, r.err
			}
			c.Committed(ops, r.stats)
			return r.stats, repair()
		case <-wake:
			if err := repair(); err != nil {
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
// are repaired against an epoch-pinned view — not rebuilt from
// scratch. Returns the final labels and the stream stats.
func StreamingCC(ctx context.Context, d *tufast.DynGraph, ops []tufast.StreamOp, window int) ([]uint64, tufast.StreamStats, error) {
	cc, err := NewIncrementalCC(d)
	if err != nil {
		return nil, tufast.StreamStats{}, err
	}
	stats, err := runStreaming(ctx, d, ops, window, cc)
	if err != nil {
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
	stats, err := runStreaming(ctx, d, ops, window, pr)
	if err != nil {
		return nil, stats, err
	}
	return pr.Ranks(), stats, nil
}
