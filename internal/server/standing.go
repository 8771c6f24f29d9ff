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
// DeltaPageRank or IncrementalCC) that hears of every effective batch
// the server applies, after it committed, through Committed. A
// per-query repair worker then runs the computation's Repair against an
// epoch-pinned view — mutation batches keep applying while it runs —
// and publishes a fresh (result, epoch) state, so standing reads
// between mutations are O(1) map hits and reads immediately after a
// mutation see either the last stable result (tagged with its epoch
// and repairing=true) or the already-repaired one — never a torn mix.
// A published result is exact at its epoch: every batch at or below it
// reached Committed before the Repair (see repairOnce), and only Repair
// writes the arrays the summary reads. It is current while no batch
// past its epoch has been delivered.
//
// The server drives both computations through the one contract and
// never asks which it holds: Committed after each batch, Repair in the
// worker (the first one computes the result at its view; later ones
// repair from the logged ops — DeltaPageRank diffs each dirty source
// between its previous view and this one, IncrementalCC merges inserts
// and re-derives just the components deletes touched), Pending for
// GET /v1/standing, and Close when the worker exits.
type standingManager struct {
	s *graphInstance

	// mu guards registry mutations (register/remove) and the writes of
	// the active list; the mutation plane's delivery reads the
	// copy-on-write active list instead, with one atomic load.
	//
	//tufast:lockorder 40
	mu    sync.Mutex
	byKey map[string]*standingQuery

	// active lists the attached queries, the only ones whose comp is read.
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

	// comp and summary are set by attach before the query joins the
	// active list and never change; nothing reads them before then.
	comp    algorithms.Incremental
	summary func() any

	// delivered is the epoch of the last batch handed to comp.Committed;
	// a state at a lower epoch is stale.
	delivered atomic.Uint64
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
	result any
	epoch  uint64
	err    error // the failure that retired the query
}

// publish installs st and releases the first-result waiters.
func (q *standingQuery) publish(st *standingState) {
	if q.state.Swap(st) == nil {
		close(q.readyCh)
	}
}

// repairing reports whether st may be stale: not yet published, or
// older than a batch delivered since.
func (q *standingQuery) repairing(st *standingState) bool {
	return st == nil || st.epoch < q.delivered.Load()
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

// batchCommitted is called by the mutation plane after every effective
// batch, still inside the mutMu bracket, so queries hear of batches in
// epoch order: it hands each query the batch, records its epoch as
// delivered and wakes the repair worker. Committed runs BEFORE the
// delivered store, and the store before the wakeup: a repair that sees
// the epoch delivered also sees what Committed logged.
func (m *standingManager) batchCommitted(stats tufast.StreamStats, ops []tufast.StreamOp) {
	qs := m.active.Load()
	if qs == nil {
		return
	}
	now := time.Now().UnixNano()
	for _, q := range *qs {
		q.comp.Committed(ops, stats)
		q.delivered.Store(stats.Epoch)
		q.dirtySince.CompareAndSwap(0, now)
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

// repairingCount reports how many attached queries are currently stale
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
// first repair is paid once, while the registration job that waits for
// it holds its admission slot.
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

	if err := m.attach(q); err != nil {
		m.fail(q, err) // a registration that joined q waits on readyCh
		return nil, err
	}
	m.wg.Add(1)
	go m.worker(q)
	q.dirtySince.CompareAndSwap(0, time.Now().UnixNano())
	q.notify <- struct{}{} // first repair publishes the initial result
	return q, nil
}

// attach constructs the resident computation and adds it to the active
// list, from which every later batch reaches its Committed. It excludes
// no batch: the first Repair computes the initial result at a view
// pinned after this returns, so a batch that committed before the
// query joined is in that view, and one after is delivered.
func (m *standingManager) attach(q *standingQuery) (err error) {
	defer func() {
		if r := recover(); r != nil {
			// Most likely shared-space exhaustion (each query allocates
			// per-vertex arrays); surface it as a job failure instead of
			// killing the daemon.
			err = fmt.Errorf("standing %s: attach failed: %v", q.req.Algo, r)
		}
	}()
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
// notifications, exiting when the server's base context dies (drain) or
// a repair fails. It closes the computation on the way out, so a dead
// query pins no view.
func (m *standingManager) worker(q *standingQuery) {
	defer m.wg.Done()
	defer q.comp.Close()
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
// mutators: batches keep applying while Repair runs, and the published
// state comes from a view pinned at the repair's admission epoch. The
// state is exact at that epoch only if every batch at or below it has
// reached Committed. A batch publishes its epoch before the mutation
// plane delivers it, so a view can be ahead of q.delivered by that one
// batch; the repair then stands down, and the batch's delivery, which
// comes next, wakes the worker again. The first repair needs no such
// wait: it computes its result from the view alone.
func (m *standingManager) repairOnce(q *standingQuery) error {
	s := m.s
	view := s.dyn.View()
	defer view.Close()
	if q.state.Load() != nil && view.Epoch() > q.delivered.Load() {
		return nil
	}
	dirty := q.dirtySince.Swap(0)
	start := time.Now()
	did, err := q.comp.Repair(s.baseCtx, view)
	if err != nil {
		return err
	}
	q.publish(&standingState{result: q.summary(), epoch: view.Epoch()})

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
