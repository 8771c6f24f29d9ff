// Package obs is the runtime's low-overhead observability layer: the
// telemetry the paper's adaptive routing (§IV-D, Fig. 10/15) is driven
// by, made inspectable. It provides
//
//   - per-mode commit / abort-reason / user-stop counters and the
//     committed reads and writes,
//   - per-mode latency and retry-count histograms (power-of-two
//     buckets, plain atomic adds, mergeable snapshots),
//   - mode-transition counters that make the H→O→L fallback ladder and
//     the adaptive-period trajectory directly observable,
//   - one per-worker table of waits by reason (an L lock, an H or O
//     commit's write-set locks, the commit gate, the retry loop's
//     backoff): how many, the wall time inside them and, for backoff,
//     how many slept,
//   - per-worker emulated-HTM counters (starts, commits, operations and
//     aborts by reason of the hardware transactions and segments a
//     worker ran) and TuFast's quiet H-attempt counters, and
//   - export paths: plain-value Snapshot (and its Totals) for programs,
//     JSON over expvar / HTTP for operators.
//
// A Probe is the only place a scheduler records a transaction's outcome
// and what its hardware transactions did: every count a scheduler reports
// — commits, aborts, stops, operations, deadlock aborts, emulated-HTM
// starts and aborts, quiet attempts — is read from one Snapshot, so no two
// views can disagree and one Reset clears them all.
//
// Hot-path budget: recording a committed transaction is three atomic
// adds into the recording worker's own block — lines no other worker
// writes — for its retry histogram and its reads and writes, plus
// the histogram's sum when the transaction retried; there is no separate
// commit counter, a mode's commits are its retry histogram's count.
// Snapshot and Reset sum and clear the per-worker blocks. Commit latency
// is sampled (1 in 64 transactions) so the timestamp reads stay off the
// common path. Aborts, stops and transitions are rarer and stay shared
// counters. The emulated-HTM and quiet-attempt counters are adds into the
// worker's own block as well.
package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Mode labels the execution mode a measurement is attributed to. TuFast
// transactions commit in one of the five Fig. 15 classes; single-mode
// baseline schedulers (OCC, STM, TO, ...) record everything under
// ModeTx.
type Mode uint8

const (
	// ModeH: committed inside a single emulated hardware transaction.
	ModeH Mode = iota
	// ModeO: committed optimistically on the first O attempt.
	ModeO
	// ModeOPlus: committed in O mode after an aborted O attempt.
	ModeOPlus
	// ModeO2L: exhausted O mode and committed under locks.
	ModeO2L
	// ModeL: routed directly to the lock-based mode.
	ModeL
	// ModeTx: single-mode baseline schedulers.
	ModeTx
	// NumModes bounds the mode enum.
	NumModes
)

// String names the mode as in Figure 15.
func (m Mode) String() string { return nameOf(modeNames[:], int(m)) }

var modeNames = [NumModes]string{"H", "O", "O+", "O2L", "L", "tx"}

// nameOf is names[i], or "?" past its end.
func nameOf(names []string, i int) string {
	if i < len(names) {
		return names[i]
	}
	return "?"
}

// Retried is the class of a commit after an abort in m: O+ for O.
func (m Mode) Retried() Mode {
	if m == ModeO {
		return ModeOPlus
	}
	return m
}

// Reason attributes an abort or terminal stop.
type Reason uint8

const (
	// ReasonNone: no attribution (placeholder).
	ReasonNone Reason = iota
	// ReasonConflict: data conflict with a concurrent transaction.
	ReasonConflict
	// ReasonCapacity: emulated-HTM cache capacity overflow.
	ReasonCapacity
	// ReasonExplicit: explicit abort (subscribed lock held, XABORT).
	ReasonExplicit
	// ReasonLocked: a line seqlock was held at access or commit.
	ReasonLocked
	// ReasonDeadlock: a lock wait that could close a cycle was refused
	// (L mode and 2PL wait only for a vertex above every lock they hold).
	ReasonDeadlock
	// ReasonUser: the transaction function returned an error.
	ReasonUser
	// ReasonPanic: the transaction function panicked.
	ReasonPanic
	// ReasonCancel: the transaction's context was cancelled.
	ReasonCancel
	// NumReasons bounds the reason enum.
	NumReasons
)

// String names the reason for snapshots and JSON.
func (r Reason) String() string { return nameOf(reasonNames[:], int(r)) }

var reasonNames = [NumReasons]string{"none", "conflict", "capacity", "explicit", "locked", "deadlock", "user", "panic", "cancel"}

// Transition labels a routing or controller state change.
type Transition uint8

const (
	// TransHO: a transaction exhausted H mode and entered O mode.
	TransHO Transition = iota
	// TransOL: a transaction exhausted O mode and escalated to L mode.
	TransOL
	// TransPeriodUp: the adaptive controller raised the O-mode period.
	TransPeriodUp
	// TransPeriodDown: the adaptive controller lowered the period.
	TransPeriodDown
	// NumTransitions bounds the transition enum.
	NumTransitions
)

// String names the transition for snapshots and JSON.
func (t Transition) String() string { return nameOf(transitionNames[:], int(t)) }

var transitionNames = [NumTransitions]string{"h_to_o", "o_to_l", "period_up", "period_down"}

// latencySampleMask selects 1 in 64 transactions for commit-latency
// timing; everything between the two timestamp reads is untouched on
// the other 63.
const latencySampleMask = 63

// Metrics is the shared observability state of one scheduler. The zero
// value is ready to use, so schedulers embed it by value; all counter
// updates are single atomic adds. What a commit records lives in the
// committing worker's workerState, not here.
type Metrics struct {
	aborts [NumModes][NumReasons]atomic.Uint64
	stops  [NumModes][NumReasons]atomic.Uint64
	trans  [NumTransitions]atomic.Uint64

	mu      sync.Mutex
	workers []*workerState
}

// workerState is what one Probe owns: what its commits record and its
// waits. Only the probe's worker writes it, so the atomics
// are uncontended — the pads keep a neighbouring allocation's writes off
// its first and last cache line; snapshots and Reset reach it through
// Metrics.workers.
type workerState struct {
	_ [64]byte

	commits [NumModes]commitState
	latency [NumModes]Histogram // sampled commit latency, nanoseconds

	waits [NumWaitReasons]waitState

	htm         HTM
	quietBegun  atomic.Uint64 // H attempts begun with no locker in flight
	quietKilled atomic.Uint64 // of those, the ones a locker's arrival killed

	_ [64]byte
}

// HTM counts one worker's emulated hardware transactions: those its
// htm.Tx runs (TuFast's H mode, a baseline's hardware path) and the
// segments O mode and H-TO open and close themselves. It lives in the
// worker's block, so its adds are uncontended; Snapshot sums it over the
// workers as Snapshot.HTM.
type HTM struct {
	Starts    atomic.Uint64
	Commits   atomic.Uint64
	Ops       atomic.Uint64 // operations of committed hardware transactions
	WastedOps atomic.Uint64 // operations discarded by aborts
	aborts    [NumReasons]atomic.Uint64
}

// Abort records one aborted hardware transaction.
func (h *HTM) Abort(r Reason) { h.aborts[r].Add(1) }

// Reattribute moves one recorded abort from reason from to reason to:
// TuFast's H mode learns only after htm.Tx recorded a failed check as a
// conflict that the attempt was killed by a locker's arrival.
func (h *HTM) Reattribute(from, to Reason) {
	h.aborts[from].Add(^uint64(0))
	h.aborts[to].Add(1)
}

func (h *HTM) reset() {
	h.Starts.Store(0)
	h.Commits.Store(0)
	h.Ops.Store(0)
	h.WastedOps.Store(0)
	for r := range h.aborts {
		h.aborts[r].Store(0)
	}
}

func (h *HTM) addTo(s *HTMSnapshot) {
	s.Starts += h.Starts.Load()
	s.Commits += h.Commits.Load()
	s.Ops += h.Ops.Load()
	s.WastedOps += h.WastedOps.Load()
	for r := range h.aborts {
		addCount(&s.Aborts, Reason(r).String(), h.aborts[r].Load())
	}
}

// WaitReason names what a worker waited for; every wait a worker makes
// is recorded once, under one of these.
type WaitReason uint8

const (
	WaitLLock      WaitReason = iota // an L-mode (2PL) lock acquisition found the lock held
	WaitHCommit                      // a subscribed H commit found a write-set lock held
	WaitOCommit                      // an O commit found a write-set lock held
	WaitCommitting                   // an L transaction waited out H commits in their gate window
	WaitBackoff                      // the retry loop's randomized backoff between attempts
	NumWaitReasons
)

// String names the wait reason for snapshots and JSON.
func (r WaitReason) String() string { return nameOf(waitNames[:], int(r)) }

var waitNames = [NumWaitReasons]string{"l_lock", "h_commit", "o_commit", "committing", "backoff"}

// waitState is one row of a worker's wait table.
type waitState struct {
	n, sleeps, ns atomic.Uint64
}

// commitState is what a mode's commits record: the operations of the
// committed transactions and, one Record each, their aborted attempts — a
// mode's commit count is that histogram's count. The counts sit beside the
// histogram's first buckets, which a commit that never retried records in.
type commitState struct {
	reads, writes atomic.Uint64
	retries       Histogram
}

// Transition records a routing or controller transition.
func (m *Metrics) Transition(t Transition) {
	m.trans[t].Add(1)
}

// Reset zeroes every counter and histogram.
func (m *Metrics) Reset() {
	for mo := range int(NumModes) {
		for r := range int(NumReasons) {
			m.aborts[mo][r].Store(0)
			m.stops[mo][r].Store(0)
		}
	}
	for t := range int(NumTransitions) {
		m.trans[t].Store(0)
	}
	for _, ws := range m.workerStates() {
		for mo := range int(NumModes) {
			c := &ws.commits[mo]
			c.reads.Store(0)
			c.writes.Store(0)
			c.retries.Reset()
			ws.latency[mo].Reset()
		}
		for r := range ws.waits {
			ws.waits[r].n.Store(0)
			ws.waits[r].sleeps.Store(0)
			ws.waits[r].ns.Store(0)
		}
		ws.htm.reset()
		ws.quietBegun.Store(0)
		ws.quietKilled.Store(0)
	}
}

func (m *Metrics) workerStates() []*workerState {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]*workerState(nil), m.workers...)
}

// NewProbe returns a per-worker recording handle, registering its
// block. Probes are not safe for concurrent use (one per goroutine, like
// workers).
func (m *Metrics) NewProbe() Probe {
	ws := &workerState{}
	m.mu.Lock()
	m.workers = append(m.workers, ws)
	m.mu.Unlock()
	return Probe{m: m, ws: ws}
}

// Span carries the sampled start timestamp of one transaction from
// TxBegin to Commit; the zero Span means "unsampled".
type Span struct {
	start int64 // UnixNano, 0 = latency not sampled for this txn
}

// Probe is the per-worker recording handle: it owns the worker's commit
// histograms and operation counts, wait table, emulated-HTM and quiet-attempt
// counters and the local sampling counter, so a commit writes no state
// another worker writes.
type Probe struct {
	m  *Metrics
	ws *workerState
	n  uint64 // worker-local transaction count (sampling clock)
}

// TxBegin opens a transaction and decides whether its latency is sampled.
func (p *Probe) TxBegin() Span {
	p.n++
	var sp Span
	if p.n&latencySampleMask == 0 {
		sp.start = time.Now().UnixNano()
	}
	return sp
}

// TxCommit closes a transaction as committed in mode after retries
// aborted attempts, its committing attempt having done reads and writes.
func (p *Probe) TxCommit(mode Mode, retries uint32, sp Span, reads, writes uint64) {
	c := &p.ws.commits[mode]
	c.reads.Add(reads)
	c.writes.Add(writes)
	c.retries.Record(uint64(retries))
	if sp.start != 0 {
		ns := time.Now().UnixNano() - sp.start
		if ns < 0 {
			ns = 0
		}
		p.ws.latency[mode].Record(uint64(ns))
	}
}

// TxAbort records one aborted attempt in mode.
func (p *Probe) TxAbort(mode Mode, reason Reason) {
	p.m.aborts[mode][reason].Add(1)
}

// TxStop closes a transaction as terminally stopped (user error,
// panic, cancellation) in mode.
func (p *Probe) TxStop(mode Mode, reason Reason) {
	p.m.stops[mode][reason].Add(1)
}

// Wait records one wait for reason r: whether it went as far as sleeping
// (only backoff sleeps), and the wall time it took.
func (p *Probe) Wait(r WaitReason, slept bool, d time.Duration) {
	w := &p.ws.waits[r]
	w.n.Add(1)
	if slept {
		w.sleeps.Add(1)
	}
	w.ns.Add(uint64(max(d, 0)))
}

// HTM returns the worker's emulated-HTM counters, for its htm.Tx and the
// segments it opens and closes itself.
func (p *Probe) HTM() *HTM { return &p.ws.htm }

// QuietBegin records an H attempt begun with no transaction able to hold
// a vertex lock in flight; QuietKilled records one such attempt that such
// a transaction's arrival killed.
func (p *Probe) QuietBegin()  { p.ws.quietBegun.Add(1) }
func (p *Probe) QuietKilled() { p.ws.quietKilled.Add(1) }
