package server

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tufast"
	"tufast/algorithms"
)

// The standing-query plane keeps analytics results *resident* instead
// of recomputing them per epoch: a job submitted with "standing": true
// registers a delta-maintained computation (algorithms.DeltaPageRank
// or algorithms.IncrementalCC) whose OnEdge/Emit hooks ride every
// mutation batch the server applies. After each effective batch a
// per-query repair worker stabilizes the pending delta against an
// epoch-pinned view — mutation batches keep committing while it runs —
// and publishes a fresh (result, epoch) pair, so standing reads
// between mutations are O(1) map hits and reads immediately after a
// mutation see either the last stable result (tagged with its epoch
// and repairing=true) or the already-repaired one — never a torn mix.
// The generation counter carries the exactness argument: a publish
// that observed gen unchanged across the whole repair knows no batch
// committed since its view was pinned, so the pinned epoch IS the
// current topology.
//
// DeltaPageRank repairs are an O(delta) StabilizeCtx for inserts and
// deletes alike. IncrementalCC's min-label propagation cannot split
// components, so each effective batch's deletes are logged and
// repaired locally (algorithms.RepairDeletesCtx): the repair walks
// just the components the deletes touched in its pinned view and
// re-derives their labels — a full RecomputeCtx happens only at seed
// time (and on its error retry).
type standingManager struct {
	s *graphInstance

	// mu guards registry mutations (register/remove); the hook fan-out
	// reads the copy-on-write active list instead, so the per-op cost
	// with no standing queries is one atomic load. seed() republishes
	// the active list while holding the instance's mutMu, so mu ranks
	// below it.
	//
	//tufast:lockorder 40
	mu    sync.Mutex
	byKey map[string]*standingQuery

	active atomic.Pointer[[]*standingQuery]

	wg sync.WaitGroup
}

func newStandingManager(s *graphInstance) *standingManager {
	return &standingManager{s: s, byKey: make(map[string]*standingQuery)}
}

// standingQuery is one resident computation and its published state.
type standingQuery struct {
	key      string
	req      JobRequest
	regJobID string

	// Exactly one of pr/cc is set once seeded; both nil while the
	// registration job is still constructing the computation (the
	// hooks skip unseeded queries).
	pr *algorithms.DeltaPageRank
	cc *algorithms.IncrementalCC

	// gen counts effective batches delivered to this query; a publish
	// that observed gen == current marks the result stable.
	gen atomic.Uint64
	// needRecompute requests a full label rebuild for cc queries. Only
	// the seed (initial labels) and a failed recompute's retry set it;
	// delete batches go through the localized RepairDeletes path.
	needRecompute atomic.Bool
	// dirtySince is the unix-nano commit time of the oldest batch not
	// yet covered by a publish (0 = none); it feeds the repair-lag
	// histogram.
	dirtySince atomic.Int64
	notify     chan struct{} // buffered(1): coalesced repair wakeups

	//tufast:lockorder 50
	mu        sync.Mutex
	ready     bool
	repairing bool
	result    any
	epoch     uint64
	failErr   error

	readyCh chan struct{} // closed on first publish or failure
}

// onEdge runs inside the mutation transaction; it must be retry-safe,
// which holds because the underlying hooks are.
func (q *standingQuery) onEdge(tx tufast.Tx, op tufast.StreamOp, changed bool, emit func(u uint32)) error {
	switch {
	case q.pr != nil:
		return q.pr.OnEdge(tx, op, changed, emit)
	case q.cc != nil:
		return q.cc.OnEdge(tx, op, changed, emit)
	}
	return nil
}

// emit receives post-commit emissions. Every registered query sees
// every emitted vertex (the stream has one emit channel); a vertex
// another query emitted is a spurious wakeup here, which both drains
// treat as a no-op.
func (q *standingQuery) emit(u uint32) {
	switch {
	case q.pr != nil:
		q.pr.Emit(u)
	case q.cc != nil:
		q.cc.Emit(u)
	}
}

// pending is called from views() on queries that may still be seeding;
// the pointer snapshot under q.mu pairs with seed's locked publish.
func (q *standingQuery) pending() int {
	q.mu.Lock()
	pr, cc := q.pr, q.cc
	q.mu.Unlock()
	switch {
	case pr != nil:
		return pr.Pending()
	case cc != nil:
		return cc.Pending()
	}
	return 0
}

// serve returns the published view when the query is ready.
func (q *standingQuery) serve() (jobView, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if !q.ready || q.failErr != nil {
		return jobView{}, false
	}
	e := q.epoch
	return jobView{
		Algo: q.req.Algo, Status: StatusDone,
		Standing: true, Repairing: q.repairing,
		Epoch: &e, Result: q.result,
	}, true
}

// current returns the published result for the registration job.
func (q *standingQuery) current() (any, uint64, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.failErr != nil {
		return nil, 0, q.failErr
	}
	return q.result, q.epoch, nil
}

// onEdge is the StreamOptions.OnEdge fan-out the server installs on
// every mutation batch.
func (m *standingManager) onEdge(tx tufast.Tx, op tufast.StreamOp, changed bool, emit func(u uint32)) error {
	qs := m.active.Load()
	if qs == nil {
		return nil
	}
	for _, q := range *qs {
		if err := q.onEdge(tx, op, changed, emit); err != nil {
			return err
		}
	}
	return nil
}

// emit is the StreamOptions.Emit fan-out.
func (m *standingManager) emit(u uint32) {
	qs := m.active.Load()
	if qs == nil {
		return
	}
	for _, q := range *qs {
		q.emit(u)
	}
}

// batchCommitted is called by the mutation plane after every effective
// batch, still inside the mutMu bracket: it marks each query stale and
// wakes its repair worker. A batch's deletes are logged on cc queries
// BEFORE the gen bump: a repair that loads gen and sees this batch
// counted is then guaranteed (by the atomic's ordering) to also see its
// log entries, so a stable publish can never have skipped a delete.
func (m *standingManager) batchCommitted(stats tufast.StreamStats, ops []tufast.StreamOp) {
	qs := m.active.Load()
	if qs == nil {
		return
	}
	now := time.Now().UnixNano()
	for _, q := range *qs {
		if stats.Removed > 0 && q.cc != nil {
			q.cc.LogDeletes(ops, stats.Epoch)
		}
		q.gen.Add(1)
		q.dirtySince.CompareAndSwap(0, now)
		q.mu.Lock()
		q.repairing = true
		q.mu.Unlock()
		select {
		case q.notify <- struct{}{}:
		default:
		}
	}
}

// lookup returns the registered query for key, nil if none.
func (m *standingManager) lookup(key string) *standingQuery {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.byKey[key]
}

func (m *standingManager) count() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.byKey)
}

// repairingCount reports how many registered queries are currently
// stale (initializing or mid-repair), a /metrics gauge.
func (m *standingManager) repairingCount() int {
	qs := m.active.Load()
	if qs == nil {
		return 0
	}
	n := 0
	for _, q := range *qs {
		q.mu.Lock()
		if !q.ready || q.repairing {
			n++
		}
		q.mu.Unlock()
	}
	return n
}

// ensure registers (or finds) the standing query for req, returning it
// with its repair worker running. Called from job workers: the O(graph)
// seeding cost is paid once, under the job's admission slot.
func (m *standingManager) ensure(req JobRequest, jobID string) (*standingQuery, error) {
	key := req.cacheKey()
	m.mu.Lock()
	if q, ok := m.byKey[key]; ok {
		m.mu.Unlock()
		return q, nil
	}
	if len(m.byKey) >= m.s.cfg.MaxStanding {
		m.mu.Unlock()
		return nil, fmt.Errorf("standing query limit (%d) reached", m.s.cfg.MaxStanding)
	}
	q := &standingQuery{
		key: key, req: req, regJobID: jobID,
		notify:  make(chan struct{}, 1),
		readyCh: make(chan struct{}),
	}
	m.byKey[key] = q
	m.mu.Unlock()

	if err := m.seed(q); err != nil {
		m.remove(q)
		return nil, err
	}
	m.wg.Add(1)
	go m.worker(q)
	q.dirtySince.CompareAndSwap(0, time.Now().UnixNano())
	q.notify <- struct{}{} // first repair publishes the initial result
	return q, nil
}

// seed constructs the resident computation at a quiescent point and
// makes it visible to the mutation hooks. Holding mutMu, the mutation
// bracket's own lock, is what guarantees no batch commits between
// "initial state read" and "hooks active" — a batch in that gap would
// be invisible to both.
func (m *standingManager) seed(q *standingQuery) (err error) {
	defer func() {
		if r := recover(); r != nil {
			// Most likely shared-space exhaustion (each query allocates
			// per-vertex arrays); surface it as a job failure instead of
			// killing the daemon.
			err = fmt.Errorf("standing %s: seed failed: %v", q.req.Algo, r)
		}
	}()
	m.s.mutMu.Lock()
	defer m.s.mutMu.Unlock()
	// q is already registered in byKey, so views() can reach it while
	// the computation is still being built: publish the pr/cc pointers
	// under q.mu. The hooks need no lock — they find q through the
	// active-list pointer published below, which happens-after these
	// assignments.
	switch q.req.Algo {
	case "pagerank":
		pr := algorithms.NewDeltaPageRank(m.s.dyn, q.req.Damping, q.req.Eps)
		q.mu.Lock()
		q.pr = pr
		q.mu.Unlock()
	case "cc":
		cc, cerr := algorithms.NewIncrementalCC(m.s.dyn)
		if cerr != nil {
			return cerr
		}
		q.mu.Lock()
		q.cc = cc
		q.mu.Unlock()
		q.needRecompute.Store(true) // initial labels come from a full recompute
	default:
		return fmt.Errorf("standing mode supports pagerank|cc, not %q", q.req.Algo)
	}
	m.publishActive()
	return nil
}

// publishActive rebuilds the copy-on-write hook list. Registry entries
// may still be seeding on another goroutine (ensure registers before
// seed runs), so the seeded test takes q.mu, pairing with seed's
// locked publish of pr/cc.
func (m *standingManager) publishActive() {
	m.mu.Lock()
	qs := make([]*standingQuery, 0, len(m.byKey))
	for _, q := range m.byKey {
		q.mu.Lock()
		seeded := q.pr != nil || q.cc != nil
		q.mu.Unlock()
		if seeded {
			qs = append(qs, q)
		}
	}
	m.mu.Unlock()
	m.active.Store(&qs)
}

// remove unregisters a query that failed to seed or repair, so a later
// submission can retry registration.
func (m *standingManager) remove(q *standingQuery) {
	m.mu.Lock()
	delete(m.byKey, q.key)
	m.mu.Unlock()
	m.publishActive()
}

// fail marks q broken, releases waiters, and unregisters it.
func (m *standingManager) fail(q *standingQuery, err error) {
	q.mu.Lock()
	q.failErr = err
	wasReady := q.ready
	q.ready = true
	q.mu.Unlock()
	if !wasReady {
		close(q.readyCh)
	}
	m.remove(q)
}

// worker is q's repair loop: one cycle per coalesced batch of
// notifications, exiting when the server's base context dies (drain).
func (m *standingManager) worker(q *standingQuery) {
	defer m.wg.Done()
	for {
		select {
		case <-m.s.baseCtx.Done():
			return
		case <-q.notify:
		}
		if err := m.repairOnce(q); err != nil {
			if m.s.baseCtx.Err() != nil {
				return
			}
			m.fail(q, err)
			return
		}
	}
}

// repairOnce brings q up to date and publishes — WITHOUT excluding
// mutators: the drain runs against the live overlay while batches keep
// committing, and the published pair comes from a view pinned at the
// repair's admission epoch. The ordering carries correctness:
//
//  1. load gen — any batch counted here committed before the load, so
//     its emits are in the sink and its deletes are in the log;
//  2. pin the view — at an epoch ≥ every batch counted by (1);
//  3. repair: consume logged deletes ≤ the pinned epoch, stabilize;
//  4. publish (result, pinned epoch), re-reading gen: unchanged means
//     no batch committed since (1), so the pinned epoch is the current
//     topology and the result is exact; changed means a batch slipped
//     in — its own notification re-runs this cycle, and the published
//     result stays flagged repairing until then.
//
// Pinning before the gen load would be wrong: a batch could bump gen
// between the two, count as "covered" at publish, yet have committed
// after the pin — publishing an epoch the repair never saw.
//
// gen covers completed batches; the server's mutSeq seqlock covers the
// one still in flight. The summary is built from advisory atomic word
// reads while mutators run, so a batch mid-commit during the build can
// leak partial hook writes into it. Observing mutSeq unchanged and even
// across the whole cycle proves no batch overlapped the build; anything
// else flags the publish repairing. A mid-flight batch may turn out
// ineffective and never notify, so that path schedules its own re-check
// rather than waiting on a wakeup that might not come.
func (m *standingManager) repairOnce(q *standingQuery) error {
	s := m.s
	dirty := q.dirtySince.Swap(0)
	start := time.Now()

	seq := s.mutSeq.Load()
	gen := q.gen.Load()
	view := s.dyn.View()
	defer view.Close()
	recompute := q.cc != nil && q.needRecompute.Swap(false)
	deleteRepairs := 0
	var err error
	switch {
	case recompute:
		// Seed-time label rebuild (or its retry). It reads the live
		// topology, which is ≥ the pinned view; logged deletes at or
		// below the pin are covered by the rebuilt labels.
		if err = q.cc.RecomputeCtx(s.baseCtx); err == nil {
			q.cc.DropDeletesThrough(view.Epoch())
		}
	case q.pr != nil:
		err = q.pr.StabilizeCtx(s.baseCtx)
	default:
		// Localized split repair at the pinned epoch, then the usual
		// min-label drain. On error RepairDeletesCtx restores the
		// consumed log entries itself.
		deleteRepairs, err = q.cc.RepairDeletesCtx(s.baseCtx, view)
		if err == nil {
			err = q.cc.StabilizeCtx(s.baseCtx)
		}
	}
	if err != nil {
		if recompute {
			q.needRecompute.Store(true) // retry the recompute next cycle
		}
		return err
	}
	epoch := view.Epoch()
	var result any
	if q.pr != nil {
		result = pagerankSummary(q.pr.RanksInto(nil), q.req.TopK)
	} else {
		result = ccSummary(q.cc.ComponentsInto(nil))
	}

	// seq must be re-read after the summary build: an even, unchanged
	// value brackets the build in a mutation-free window.
	seqClean := seq&1 == 0 && s.mutSeq.Load() == seq
	q.mu.Lock()
	q.result, q.epoch = result, epoch
	// A batch that slipped in after the gen read has its own pending
	// notification; flag the published result stale until that cycle
	// lands. A batch seen mid-flight via seq flags it too, but may be
	// ineffective (never notifies) — handled below.
	genClean := q.gen.Load() == gen
	q.repairing = !genClean || !seqClean
	wasReady := q.ready
	q.ready = true
	q.mu.Unlock()
	if !wasReady {
		close(q.readyCh)
	}
	if genClean && !seqClean {
		// Staleness came only from a batch that was mid-commit during the
		// build. If it proves effective its notification re-runs us; if
		// not, nothing would — so nudge ourselves after a short pause
		// (bounds the spin while a long batch drains).
		go func() {
			time.Sleep(time.Millisecond)
			select {
			case q.notify <- struct{}{}:
			default:
			}
		}()
	}

	s.met.standingRepairs.Add(1)
	if recompute {
		s.met.standingRecomputes.Add(1)
	}
	if deleteRepairs > 0 {
		s.met.standingDeleteRepairs.Add(uint64(deleteRepairs))
	}
	if dirty > 0 {
		s.met.repairLag.Record(uint64(time.Since(time.Unix(0, dirty)).Nanoseconds()))
	} else {
		s.met.repairLag.Record(uint64(time.Since(start).Nanoseconds()))
	}
	return nil
}

// stop waits for all repair workers; callers cancel baseCtx first.
func (m *standingManager) stop() {
	m.wg.Wait()
}

// standingView is the GET /v1/standing wire form of one query.
type standingView struct {
	Key        string  `json:"key"`
	Algo       string  `json:"algo"`
	Status     string  `json:"status"` // initializing | ready
	Epoch      *uint64 `json:"epoch,omitempty"`
	Repairing  bool    `json:"repairing"`
	PendingLen int     `json:"pending"`
}

func (m *standingManager) views() []standingView {
	m.mu.Lock()
	qs := make([]*standingQuery, 0, len(m.byKey))
	for _, q := range m.byKey {
		qs = append(qs, q)
	}
	m.mu.Unlock()
	sort.Slice(qs, func(i, j int) bool { return qs[i].key < qs[j].key })
	out := make([]standingView, 0, len(qs))
	for _, q := range qs {
		q.mu.Lock()
		v := standingView{
			Key: q.key, Algo: q.req.Algo,
			Status: "initializing", Repairing: !q.ready || q.repairing,
		}
		if q.ready && q.failErr == nil {
			e := q.epoch
			v.Status, v.Epoch = "ready", &e
		}
		q.mu.Unlock()
		v.PendingLen = q.pending()
		out = append(out, v)
	}
	return out
}

// executeStanding is runJob's standing branch: register (or join) the
// resident query and wait for its first published result under the
// job's deadline. The query outlives the job — a deadline here only
// fails the registration job; the background seed still completes and
// later reads hit it.
func (s *graphInstance) executeStanding(ctx context.Context, j *Job) (any, uint64, error) {
	q, err := s.standing.ensure(j.Req, j.ID)
	if err != nil {
		return nil, s.dyn.Epoch(), err
	}
	select {
	case <-q.readyCh:
		return q.current()
	case <-ctx.Done():
		return nil, s.dyn.Epoch(), ctx.Err()
	}
}
