// Incremental algorithms over mutable graphs: instead of recomputing
// from scratch after every batch of edge mutations, they keep a result
// and repair it. Committed hears of each batch after it committed and
// logs its ops, tagged with the batch's epoch; Repair, handed a view
// pinned at some epoch, takes the logged ops at or below it and brings
// the result up to date as of that epoch, reading topology only through
// the view. Batches therefore apply owned (DynGraph.ApplyOwned, no
// transactions) while a repair runs, and one that commits after the pin
// waits for the next repair — the result is exact at a tagged epoch,
// GTX's freshness contract. The repair work itself runs as TuFast
// transactions, routed H/O/L by live degree like everything else.
package algorithms

import (
	"cmp"
	"context"
	"math"
	"slices"
	"sync"

	"tufast"
	"tufast/internal/algo"
	"tufast/internal/sched"
	"tufast/internal/worklist"
)

// Incremental is the one contract the computations here keep and
// their drivers (StreamingCC, StreamingPageRank, the server's standing
// queries) use. Committed hears of each batch, with its ops and stats,
// after it committed. Repair brings the result up to date as of view's
// pinned epoch, possibly while later batches commit; every batch at or
// below that epoch must have reached Committed first — except for the
// first Repair, which computes the result from the view itself. Repair
// calls must not overlap. Pending counts queued repair work. Close
// releases what the computation pins; call it once no Repair runs.
type Incremental interface {
	Committed(ops []tufast.StreamOp, stats tufast.StreamStats)
	Repair(ctx context.Context, view *tufast.GraphView) (Repaired, error)
	Pending() int
	Close()
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

// requeue queues v even if a drain that failed left its bit set with v
// no longer in the queue.
func requeue(q algo.DedupFIFO, v uint32) {
	q.Queued.Clear(v)
	q.Push(v, 0)
}

// deltaLog is a computation's record of committed edge ops, each tagged
// with the epoch of the batch that committed it: Committed appends, and
// Repair takes the ops at or below its view's epoch, leaving later ones
// for the next repair.
type deltaLog struct {
	mu  sync.Mutex
	ops []loggedOp
}

// loggedOp is one committed edge op and its batch's epoch.
type loggedOp struct {
	u, v  uint32
	del   bool
	epoch uint64
}

// add logs ops at epoch e. It copies them: a server reuses its batch
// buffers.
func (l *deltaLog) add(e uint64, ops ...tufast.StreamOp) {
	l.mu.Lock()
	for _, op := range ops {
		l.ops = append(l.ops, loggedOp{op.U, op.V, op.Del, e})
	}
	l.mu.Unlock()
}

// take removes and returns the ops at or below epoch e.
func (l *deltaLog) take(e uint64) (taken []loggedOp) {
	l.mu.Lock()
	defer l.mu.Unlock()
	kept := l.ops[:0]
	for _, o := range l.ops {
		if o.epoch <= e {
			taken = append(taken, o)
		} else {
			kept = append(kept, o)
		}
	}
	l.ops = kept
	return taken
}

// restore puts back the ops a failed repair took, ahead of later ones.
func (l *deltaLog) restore(taken []loggedOp) {
	l.mu.Lock()
	l.ops = append(taken, l.ops...)
	l.mu.Unlock()
}

// committed logs an effective batch; a batch that changed nothing needs
// no repair.
func (l *deltaLog) committed(ops []tufast.StreamOp, stats tufast.StreamStats) {
	if stats.Inserted+stats.Removed > 0 {
		l.add(stats.Epoch, ops...)
	}
}

// IncrementalCC maintains connected-component labels (min vertex id
// per component) on a mutable undirected graph. Its first Repair
// computes labels from scratch at its view. Later ones take the logged
// ops: an insert queues both endpoints so the drain merges their
// components by min-label propagation over the view's adjacency. Deletes
// can split components, which label propagation cannot undo locally —
// Repair re-derives labels for just the components they touched in the
// view, skipping deletes that provably did not split anything, instead
// of recomputing.
type IncrementalCC struct {
	dyn  *tufast.DynGraph
	sys  *tufast.System
	comp tufast.VertexArray
	sink algo.DedupFIFO
	log  deltaLog

	// seeded is set by the first Repair that completes its full
	// recompute, and cleared by a drain that fails; only Repair touches
	// it.
	seeded bool
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

// Committed logs a committed batch's ops for a later Repair, tagged
// with the batch's mutation epoch.
func (cc *IncrementalCC) Committed(ops []tufast.StreamOp, stats tufast.StreamStats) {
	cc.log.committed(ops, stats)
}

// Repair brings the labels up to date as of view's epoch. The first
// successful call recomputes every label over the view, which covers
// the logged ops at or below its epoch, so those are dropped. Later
// calls take the logged ops at or below the view's epoch, queue the
// endpoints of inserts, repair the components deletes may have split
// (see repairDeletes), and drain the queue, propagating min labels over
// the view's adjacency until no vertex improves. If the delete repair
// fails the ops go back to the log for the next call; a drain that
// fails makes the next call recompute.
func (cc *IncrementalCC) Repair(ctx context.Context, view *tufast.GraphView) (Repaired, error) {
	taken := cc.log.take(view.Epoch())
	if !cc.seeded {
		n := cc.dyn.NumVertices()
		for v := 0; v < n; v++ {
			cc.comp.Set(uint32(v), uint64(v))
			requeue(cc.sink, uint32(v))
		}
		if err := cc.stabilize(ctx, view); err != nil {
			return Repaired{}, err
		}
		cc.seeded = true
		return Repaired{Recomputed: true}, nil
	}
	var dels []loggedOp
	for _, o := range taken {
		if o.del {
			dels = append(dels, o)
		} else {
			cc.sink.Push(o.u, 0)
			cc.sink.Push(o.v, 0)
		}
	}
	if err := cc.repairDeletes(ctx, view, dels); err != nil {
		cc.log.restore(taken)
		return Repaired{}, err
	}
	if err := cc.stabilize(ctx, view); err != nil {
		cc.seeded = false
		return Repaired{}, err
	}
	return Repaired{Deletes: len(dels)}, nil
}

func (cc *IncrementalCC) stabilize(ctx context.Context, view *tufast.GraphView) error {
	hint := func(v uint32) int { return 2*cc.dyn.LiveDegree(v) + 4 }
	_, err := cc.sys.Runtime().WithContext(ctx).Drain("incremental_cc", cc.sink, cc.sink, hint,
		func(out *worklist.Emits) func(sched.Tx, uint32) error {
			var nbs []uint32
			return func(t sched.Tx, v uint32) error {
				tx := tufast.WrapTx(t)
				cc.sink.Queued.Clear(v)
				cv := tx.Read(v, cc.comp.Addr(v))
				best := cv
				nbs = view.Neighbors(v, nbs[:0]) //tufast:ignore retryunsafe scratch buffer every attempt refills
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
// is one atomic word read, so calling it while a Repair drain runs is
// memory-safe (no torn words, race-detector clean) — but the values are
// then advisory: different vertices may be read at different repair
// states. Between repairs the labels are exactly the last Repair's.
func (cc *IncrementalCC) ComponentsInto(buf []uint64) []uint64 {
	n := cc.dyn.NumVertices()
	buf = buf[:0]
	for v := 0; v < n; v++ {
		buf = append(buf, cc.comp.Get(uint32(v)))
	}
	return buf
}

// Pending returns how many vertices are queued for repair. Safe to call
// concurrently with drains and batches.
func (cc *IncrementalCC) Pending() int { return cc.sink.Len() }

// Close does nothing: IncrementalCC pins no view between repairs.
func (cc *IncrementalCC) Close() {}

// repairDeletes repairs the labels of every component the given deletes
// may have split, reading topology only through the view. For each
// delete (u, v): if the edge is live again at the view's epoch, or the
// endpoints still share a neighbor there (the triangle fast path —
// still connected, so no split), nothing needs repair. Otherwise the
// components of u and v at the view's epoch are walked depth-first,
// every visited label is reset to self, and the vertices are queued;
// the following drain re-propagates each component's true minimum.
// Inserts that re-merged vertices after a delete are visible in the
// view and queue their endpoints themselves.
func (cc *IncrementalCC) repairDeletes(ctx context.Context, view *tufast.GraphView, dels []loggedOp) error {
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
		// Walk both endpoints' components at the pinned epoch. A walk
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
	// Reset every affected label to self transactionally (a drain
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
// per-out-neighbor amount v has distributed so far. Against the
// topology of the view its last Repair ran at, the invariant
//
//	r[v] = (1-d) + d·Σ_{u→v} p[u] − x[v]
//
// holds after every transaction: a push absorbs r into x and pays r/deg
// more to each out-neighbor. A Repair first moves the state to its own
// view one dirty source at a time (see fixSources), then pushes until
// every |r| ≤ eps, when x matches a from-scratch PageRank of the view's
// topology to within the usual residual tolerance. Dangling vertices
// drop their mass, matching the static PageRank here.
type DeltaPageRank struct {
	dyn  *tufast.DynGraph
	sys  *tufast.System
	d    float64
	eps  float64
	rank tufast.VertexArray // x
	res  tufast.VertexArray // r
	paid tufast.VertexArray // p
	sink algo.DedupFIFO
	log  deltaLog

	// prev is the view the state is exact for, held from one Repair to
	// the next so the next can diff against it; nil before the first
	// Repair and after a failed one, either of which seeds. Only Repair
	// and Close touch it.
	prev *tufast.GraphView
}

// NewDeltaPageRank attaches a delta-PageRank computation (damping d,
// residual tolerance eps) to dg. The first Repair (or Stabilize) seeds
// it for its view's topology and converges.
func NewDeltaPageRank(dg *tufast.DynGraph, d, eps float64) *DeltaPageRank {
	s := dg.System()
	return &DeltaPageRank{
		dyn: dg, sys: s, d: d, eps: eps,
		rank: s.NewVertexArray(0),
		res:  s.NewVertexArray(0),
		paid: s.NewVertexArray(0),
		sink: newRepairQueue(dg),
	}
}

// seed sets x = 1-d and p = x/deg for every vertex over view's
// topology, with the residuals that leaves, and queues every vertex
// whose residual exceeds eps.
func (pr *DeltaPageRank) seed(view *tufast.GraphView) {
	n := view.NumVertices()
	resid := make([]float64, n)
	var nbs []uint32
	for v := 0; v < n; v++ {
		pr.rank.SetFloat(uint32(v), 1-pr.d)
		nbs = view.Neighbors(uint32(v), nbs[:0])
		p := 0.0
		if len(nbs) > 0 {
			p = (1 - pr.d) / float64(len(nbs))
		}
		pr.paid.SetFloat(uint32(v), p)
		for _, w := range nbs {
			resid[w] += pr.d * p
		}
	}
	for v := 0; v < n; v++ {
		pr.res.SetFloat(uint32(v), resid[v])
		if math.Abs(resid[v]) > pr.eps {
			requeue(pr.sink, uint32(v))
		}
	}
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

// OnEdge is a StreamOptions.OnEdge hook for callers that apply batches
// themselves: it logs an op that changed the graph, tagged with the
// epoch its batch will publish, for the next Repair. It reads and
// writes nothing transactional. An aborted attempt may log its op too;
// a source logged twice, or logged without a change, is diffed once
// and found as it is.
func (pr *DeltaPageRank) OnEdge(_ tufast.Tx, op tufast.StreamOp, changed bool, _ func(u uint32)) error {
	if changed {
		pr.log.add(pr.dyn.Epoch()+1, op)
	}
	return nil
}

// Emit is the StreamOptions.Emit hook. OnEdge emits nothing; a vertex
// handed here is queued for the next Repair's drain.
func (pr *DeltaPageRank) Emit(u uint32) { pr.sink.Push(u, 0) }

// Committed logs a committed batch's ops for a later Repair, tagged
// with the batch's mutation epoch.
func (pr *DeltaPageRank) Committed(ops []tufast.StreamOp, stats tufast.StreamStats) {
	pr.log.committed(ops, stats)
}

// Repair brings the ranks up to date as of view's epoch. The first call
// (and the first after a failed one) seeds at the view. Later ones take
// the logged ops at or below the view's epoch, fix up each dirty source
// against the view the previous Repair held, and drain residuals below
// eps over the view's adjacency. The view is held until the next Repair
// or Close.
func (pr *DeltaPageRank) Repair(ctx context.Context, view *tufast.GraphView) (Repaired, error) {
	taken := pr.log.take(view.Epoch())
	did := Repaired{Recomputed: pr.prev == nil}
	var err error
	if did.Recomputed {
		pr.seed(view)
	} else {
		err = pr.fixSources(ctx, view, pr.dirtySources(taken))
	}
	if err == nil {
		err = pr.stabilize(ctx, view)
	}
	if err != nil {
		pr.Close()
		return Repaired{}, err
	}
	if pr.prev == nil || pr.prev.Epoch() != view.Epoch() {
		old := pr.prev
		pr.prev = pr.dyn.ViewAt(view.Epoch()) // view pins the epoch: safe to pin again
		if old != nil {
			old.Close()
		}
	}
	return did, nil
}

// dirtySources returns, sorted and once each, the sources whose out-arcs
// the logged ops may have changed: both endpoints on an undirected graph.
func (pr *DeltaPageRank) dirtySources(ops []loggedOp) []uint32 {
	var src []uint32
	for _, o := range ops {
		src = append(src, o.u)
		if pr.dyn.Undirected() {
			src = append(src, o.v)
		}
	}
	slices.Sort(src)
	return slices.Compact(src)
}

// fixSources moves each dirty source u from prev's topology to view's,
// one transaction per source: with N₀ and N₁ its neighbors in the two, a
// target in N₀ only loses the historical payment d·p[u], one in N₁ only
// gains it, and p[u] is re-levelled to x[u]/|N₁| across N₁. Sources are
// independent — each reads only its own x and p — so they run on all
// threads, the TM ordering their shared residual adds.
func (pr *DeltaPageRank) fixSources(ctx context.Context, view *tufast.GraphView, dirty []uint32) error {
	if len(dirty) == 0 {
		return nil
	}
	q := worklist.NewQueue(pr.sys.Threads())
	for _, u := range dirty {
		q.Push(u)
	}
	prev := pr.prev
	hint := func(v uint32) int { return 4*pr.dyn.LiveDegree(v) + 8 }
	_, err := pr.sys.Runtime().WithContext(ctx).Drain("delta_pagerank_fix", algo.FIFOSource{Queue: q}, pr.sink, hint,
		func(out *worklist.Emits) func(sched.Tx, uint32) error {
			emit := func(w uint32) { out.Emit(w, 0) }
			var n0, n1 []uint32
			return func(t sched.Tx, u uint32) error {
				n0 = prev.Neighbors(u, n0[:0]) //tufast:ignore retryunsafe scratch buffer every attempt refills
				n1 = view.Neighbors(u, n1[:0]) //tufast:ignore retryunsafe scratch buffer every attempt refills
				if slices.Equal(n0, n1) {
					return nil
				}
				tx := tufast.WrapTx(t)
				pu := tx.ReadFloat(u, pr.paid.Addr(u))
				pNew := 0.0
				if len(n1) > 0 {
					pNew = tx.ReadFloat(u, pr.rank.Addr(u)) / float64(len(n1))
				}
				for i, j := 0, 0; i < len(n0) || j < len(n1); {
					switch {
					case j == len(n1) || i < len(n0) && n0[i] < n1[j]:
						pr.addResid(tx, n0[i], -pr.d*pu, emit) // lost
						i++
					case i == len(n0) || n1[j] < n0[i]:
						pr.addResid(tx, n1[j], pr.d*pNew, emit) // gained
						j++
					default:
						if pNew != pu {
							pr.addResid(tx, n1[j], pr.d*(pNew-pu), emit)
						}
						i, j = i+1, j+1
					}
				}
				tx.WriteFloat(u, pr.paid.Addr(u), pNew)
				return nil
			}
		})
	return err
}

// Stabilize is Repair against a fresh view of the current epoch.
func (pr *DeltaPageRank) Stabilize() error {
	view := pr.dyn.View()
	defer view.Close()
	_, err := pr.Repair(context.Background(), view)
	return err
}

func (pr *DeltaPageRank) stabilize(ctx context.Context, view *tufast.GraphView) error {
	hint := func(v uint32) int { return 2*pr.dyn.LiveDegree(v) + 8 }
	_, err := pr.sys.Runtime().WithContext(ctx).Drain("delta_pagerank", pr.sink, pr.sink, hint,
		func(out *worklist.Emits) func(sched.Tx, uint32) error {
			emit := func(u uint32) { out.Emit(u, 0) }
			var nbs []uint32
			return func(t sched.Tx, v uint32) error {
				tx := tufast.WrapTx(t)
				pr.sink.Queued.Clear(v)
				rv := tx.ReadFloat(v, pr.res.Addr(v))
				if math.Abs(rv) <= pr.eps {
					return nil
				}
				tx.WriteFloat(v, pr.res.Addr(v), 0)
				tx.WriteFloat(v, pr.rank.Addr(v), tx.ReadFloat(v, pr.rank.Addr(v))+rv)
				nbs = view.Neighbors(v, nbs[:0]) //tufast:ignore retryunsafe scratch buffer every attempt refills
				if len(nbs) == 0 {
					return nil // dangling: mass dropped, like the static PageRank
				}
				share := rv / float64(len(nbs))
				tx.WriteFloat(v, pr.paid.Addr(v), tx.ReadFloat(v, pr.paid.Addr(v))+share)
				for _, u := range nbs {
					pr.addResid(tx, u, pr.d*share, emit)
				}
				return nil
			}
		})
	return err
}

// Close releases the view the last Repair held, so a computation no
// longer repaired never keeps overlay versions from collection. A later
// Repair seeds again.
func (pr *DeltaPageRank) Close() {
	if pr.prev != nil {
		pr.prev.Close()
		pr.prev = nil
	}
}

// Ranks returns the current estimates (quiescent read).
func (pr *DeltaPageRank) Ranks() []float64 {
	return pr.RanksInto(nil)
}

// RanksInto appends the current estimates into buf[:0]. Each rank is
// one atomic word read, so calling it while a Repair drain runs is
// memory-safe — but the values are then advisory (mid-push mass can be
// in a residual rather than a rank). Between repairs the ranks are
// exactly the last Repair's.
func (pr *DeltaPageRank) RanksInto(buf []float64) []float64 {
	n := pr.dyn.NumVertices()
	buf = buf[:0]
	for v := 0; v < n; v++ {
		buf = append(buf, pr.rank.GetFloat(uint32(v)))
	}
	return buf
}

// Pending returns how many vertices are queued for repair. Safe to call
// concurrently with drains and batches.
func (pr *DeltaPageRank) Pending() int { return pr.sink.Len() }

// runStreaming repairs c once at the current epoch, then applies ops in
// time order as owned batches of window ops (default 4096), handing
// each to Committed and repairing after it. It closes c when done.
func runStreaming(ctx context.Context, d *tufast.DynGraph, ops []tufast.StreamOp, window int, c Incremental) (tufast.StreamStats, error) {
	defer c.Close()
	repair := func() error {
		view := d.View()
		defer view.Close()
		_, err := c.Repair(ctx, view)
		return err
	}
	var total tufast.StreamStats
	if err := repair(); err != nil {
		return total, err
	}
	if window <= 0 {
		window = 4096
	}
	slices.SortStableFunc(ops, func(a, b tufast.StreamOp) int { return cmp.Compare(a.Time, b.Time) })
	for lo := 0; lo < len(ops); lo += window {
		if err := ctx.Err(); err != nil {
			return total, err
		}
		batch := ops[lo:min(lo+window, len(ops))]
		st, err := d.ApplyOwned(batch)
		total.Applied += st.Applied
		total.Inserted += st.Inserted
		total.Removed += st.Removed
		total.NoOps += st.NoOps
		total.Epoch = st.Epoch
		if err != nil {
			return total, err
		}
		c.Committed(batch, st)
		if err := repair(); err != nil {
			return total, err
		}
	}
	return total, nil
}

// StreamingCC applies a timestamped edge stream to d while maintaining
// connected components incrementally: the stream applies owned in
// batches of window ops, and a repair after each merges the components
// its inserts joined and re-derives, against an epoch-pinned view, just
// the components its deletes touched — never rebuilding from scratch.
// Returns the final labels and the stream stats.
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
// so no final recompute is needed, only a repair after each batch of
// window ops. Returns the final ranks and the stream stats.
func StreamingPageRank(ctx context.Context, d *tufast.DynGraph, ops []tufast.StreamOp, damping, eps float64, window int) ([]float64, tufast.StreamStats, error) {
	pr := NewDeltaPageRank(d, damping, eps)
	stats, err := runStreaming(ctx, d, ops, window, pr)
	if err != nil {
		return nil, stats, err
	}
	return pr.Ranks(), stats, nil
}
