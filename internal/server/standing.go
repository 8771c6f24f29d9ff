package server

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tufast"
	"tufast/algorithms"
)

// The standing-query plane keeps analytics results *resident* instead
// of recomputing them per epoch: a job submitted with "standing": true
// registers a delta-maintained computation (an algorithms.Incremental:
// DeltaPageRank or IncrementalCC) whose OnEdge/Emit hooks ride every
// mutation batch the server applies. After each effective batch a
// per-query repair worker runs the computation's Repair against an
// epoch-pinned view — mutation batches keep committing while it runs —
// and publishes a fresh (result, epoch) state, so standing reads
// between mutations are O(1) map hits and reads immediately after a
// mutation see either the last stable result (tagged with its epoch
// and repairing=true) or the already-repaired one — never a torn mix.
// The generation counter carries the exactness argument: a state whose
// repair began at the current generation covers every batch that has
// committed, so its pinned epoch IS the current topology.
//
// The server drives both computations through the one contract and
// never asks which it holds: Committed after each batch (IncrementalCC
// logs the batch's deletes there, since min-label propagation cannot
// split components), Repair in the worker (DeltaPageRank's is an
// O(delta) drain for inserts and deletes alike; IncrementalCC's first
// one is the full recompute, later ones re-derive just the components
// the logged deletes touched), and Pending for GET /v1/standing.
type standingManager struct {
	s *graphInstance

	// mu guards registry mutations (register/remove) and the writes of
	// the active list; the hook fan-out and the mutation plane's choice
	// of path (hooked) read the copy-on-write active list instead, with
	// one atomic load. seed() appends to the active list while holding
	// the instance's mutMu, so mu ranks below it.
	//
	//tufast:lockorder 40
	mu    sync.Mutex
	byKey map[string]*standingQuery

	// active lists the seeded queries, the only ones whose comp is read.
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

	// comp and summary are set by seed before the query joins the
	// active list and never change; nothing reads them before then.
	comp    algorithms.Incremental
	summary func() any

	// gen counts effective batches delivered to this query; a state
	// whose repair began at the current gen covers every one of them.
	gen atomic.Uint64
	// dirtySince is the unix-nano commit time of the oldest batch not
	// yet covered by a publish (0 = none); it feeds the repair-lag
	// histogram.
	dirtySince atomic.Int64
	notify     chan struct{} // buffered(1): coalesced repair wakeups

	// state is the last publish, nil until the first repair or failure.
	state   atomic.Pointer[standingState]
	readyCh chan struct{} // closed by the publish that replaces nil
}

// standingState is one immutable publish: a reader loads it whole, so
// result and epoch always belong together.
type standingState struct {
	result   any
	epoch    uint64
	gen      uint64 // q.gen when the repair that built result began
	seqClean bool   // no batch was mid-commit while result was built
	err      error  // the failure that retired the query
}

// publish installs st and releases the first-result waiters.
func (q *standingQuery) publish(st *standingState) {
	if q.state.Swap(st) == nil {
		close(q.readyCh)
	}
}

// repairing reports whether st may be stale: not yet published, built
// beside a batch in flight, or older than a batch delivered since.
func (q *standingQuery) repairing(st *standingState) bool {
	return st == nil || !st.seqClean || q.gen.Load() != st.gen
}

// serve returns the published view when the query is ready.
func (q *standingQuery) serve() (jobView, bool) {
	st := q.state.Load()
	if st == nil || st.err != nil {
		return jobView{}, false
	}
	e := st.epoch
	return jobView{
		Algo: q.req.Algo, Status: StatusDone,
		Standing: true, Repairing: q.repairing(st),
		Epoch: &e, Result: st.result,
	}, true
}

// onEdge is the StreamOptions.OnEdge fan-out the server installs on
// every mutation batch. It runs inside the mutation transaction and
// must be retry-safe, which holds because the computations' hooks are.
func (m *standingManager) onEdge(tx tufast.Tx, op tufast.StreamOp, changed bool, emit func(u uint32)) error {
	qs := m.active.Load()
	if qs == nil {
		return nil
	}
	for _, q := range *qs {
		if err := q.comp.OnEdge(tx, op, changed, emit); err != nil {
			return err
		}
	}
	return nil
}

// emit is the StreamOptions.Emit fan-out. Every registered query sees
// every emitted vertex (the stream has one emit channel); a vertex
// another query emitted is a spurious wakeup here, which both drains
// treat as a no-op.
func (m *standingManager) emit(u uint32) {
	qs := m.active.Load()
	if qs == nil {
		return
	}
	for _, q := range *qs {
		q.comp.Emit(u)
	}
}

// batchCommitted is called by the mutation plane after every effective
// batch, still inside the mutMu bracket: it hands each query the batch
// and wakes its repair worker. Committed runs BEFORE the gen bump: a
// repair that loads gen and sees this batch counted is then guaranteed
// (by the atomic's ordering) to also see what Committed recorded, so a
// stable publish can never have skipped a delete.
func (m *standingManager) batchCommitted(stats tufast.StreamStats, ops []tufast.StreamOp) {
	qs := m.active.Load()
	if qs == nil {
		return
	}
	now := time.Now().UnixNano()
	for _, q := range *qs {
		q.comp.Committed(ops, stats)
		q.gen.Add(1)
		q.dirtySince.CompareAndSwap(0, now)
		select {
		case q.notify <- struct{}{}:
		default:
		}
	}
}

// hooked reports whether any seeded query rides the mutation hooks. The
// list only grows in seed, under mutMu, so a batch that reads it inside
// its mutMu bracket and finds none stays hook-free to its end.
func (m *standingManager) hooked() bool {
	qs := m.active.Load()
	return qs != nil && len(*qs) > 0
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

// repairingCount reports how many seeded queries are currently stale
// (initializing or mid-repair), a /metrics gauge.
func (m *standingManager) repairingCount() int {
	qs := m.active.Load()
	if qs == nil {
		return 0
	}
	n := 0
	for _, q := range *qs {
		if q.repairing(q.state.Load()) {
			n++
		}
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
		m.fail(q, err) // a registration that joined q waits on readyCh
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
// be invisible to both. The hooks need no lock of their own: they find
// q through the active-list pointer stored last, which happens-after
// the comp assignment.
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
	switch q.req.Algo {
	case "pagerank":
		pr := algorithms.NewDeltaPageRank(m.s.dyn, q.req.Damping, q.req.Eps)
		q.comp, q.summary = pr, func() any { return pagerankSummary(pr.RanksInto(nil), q.req.TopK) }
	case "cc":
		cc, cerr := algorithms.NewIncrementalCC(m.s.dyn)
		if cerr != nil {
			return cerr
		}
		q.comp, q.summary = cc, func() any { return ccSummary(cc.ComponentsInto(nil)) }
	default:
		return fmt.Errorf("standing mode supports pagerank|cc, not %q", q.req.Algo)
	}
	m.mu.Lock()
	var qs []*standingQuery
	if cur := m.active.Load(); cur != nil {
		qs = slices.Clip(*cur)
	}
	qs = append(qs, q)
	m.active.Store(&qs)
	m.mu.Unlock()
	return nil
}

// remove unregisters q and drops it from the active list, so a later
// submission can retry registration.
func (m *standingManager) remove(q *standingQuery) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.byKey, q.key)
	if cur := m.active.Load(); cur != nil {
		qs := slices.DeleteFunc(slices.Clone(*cur), func(o *standingQuery) bool { return o == q })
		m.active.Store(&qs)
	}
}

// fail publishes q's error, releasing waiters, and unregisters it.
func (m *standingManager) fail(q *standingQuery, err error) {
	q.publish(&standingState{err: err})
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
// committing, and the published state comes from a view pinned at the
// repair's admission epoch. The ordering carries correctness:
//
//  1. load gen — any batch counted here committed before the load, so
//     its emits are in the sink and Committed has seen it;
//  2. pin the view — at an epoch ≥ every batch counted by (1);
//  3. Repair: consume what Committed logged ≤ the pinned epoch, drain;
//  4. publish (result, pinned epoch, gen from (1)): while gen still
//     equals it, no batch committed since (1), so the pinned epoch is
//     the current topology and the result is exact; once a batch
//     slips in, its own notification re-runs this cycle, and readers
//     see the state as repairing until then.
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
// else marks the state repairing for good. A mid-flight batch may turn
// out ineffective and never notify, so that path schedules its own
// re-check rather than waiting on a wakeup that might not come.
func (m *standingManager) repairOnce(q *standingQuery) error {
	s := m.s
	dirty := q.dirtySince.Swap(0)
	start := time.Now()

	seq := s.mutSeq.Load()
	gen := q.gen.Load()
	view := s.dyn.View()
	defer view.Close()
	did, err := q.comp.Repair(s.baseCtx, view)
	if err != nil {
		return err
	}
	result := q.summary()
	// seq must be re-read after the summary build: an even, unchanged
	// value brackets the build in a mutation-free window.
	seqClean := seq&1 == 0 && s.mutSeq.Load() == seq
	q.publish(&standingState{result: result, epoch: view.Epoch(), gen: gen, seqClean: seqClean})
	if !seqClean && q.gen.Load() == gen {
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
	if did.Recomputed {
		s.met.standingRecomputes.Add(1)
	}
	if did.Deletes > 0 {
		s.met.standingDeleteRepairs.Add(uint64(did.Deletes))
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
	active := m.active.Load()
	out := make([]standingView, 0, len(qs))
	for _, q := range qs {
		st := q.state.Load()
		v := standingView{
			Key: q.key, Algo: q.req.Algo,
			Status: "initializing", Repairing: q.repairing(st),
		}
		if st != nil && st.err == nil {
			e := st.epoch
			v.Status, v.Epoch = "ready", &e
		}
		if active != nil && slices.Contains(*active, q) {
			v.PendingLen = q.comp.Pending()
		}
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
		st := q.state.Load()
		return st.result, st.epoch, st.err
	case <-ctx.Done():
		return nil, s.dyn.Epoch(), ctx.Err()
	}
}
