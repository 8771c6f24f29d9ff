package obs

// Snapshot is a plain-value, JSON-serializable copy of a Metrics. It
// supersedes ad-hoc counter plumbing: one call captures mode
// populations, abort-reason breakdowns, latency and retry histograms,
// and the routing-transition counters.
type Snapshot struct {
	// Modes maps mode name (H, O, O+, O2L, L, tx) to its metrics;
	// modes with no activity are omitted.
	Modes map[string]ModeSnapshot `json:"modes"`
	// Transitions counts routing and controller transitions (h_to_o,
	// o_to_l, period_up, period_down).
	Transitions map[string]uint64 `json:"transitions,omitempty"`
	// Waits sums the workers' waits by reason (l_lock, h_commit,
	// o_commit, committing, backoff); reasons never waited for are
	// omitted. Read backoff beside the per-mode abort reasons (a conflict
	// abort is worth a wait, a capacity abort is not).
	Waits map[string]WaitSnapshot `json:"waits,omitempty"`
	// HTM counts the emulated hardware transactions (H-mode attempts,
	// O-mode and H-TO segments, a baseline's hardware attempts), summed
	// over workers.
	HTM HTMSnapshot `json:"htm"`
	// HQuiet is how much of TuFast's H mode ran without per-vertex lock
	// subscriptions, summed over workers.
	HQuiet QuietSnapshot `json:"h_quiet"`
	// Gauges carries point-in-time values (e.g. adaptive_period) the
	// caller folds in; counters above are cumulative.
	Gauges map[string]int64 `json:"gauges,omitempty"`
	// Server carries serving-layer counters when the snapshot comes
	// from a tufastd daemon (nil for bare library runs): admission,
	// cache, and lifecycle counts for the analytics job plane plus
	// batch counts for the mutation plane. On a multi-graph daemon it
	// is the fleet-wide aggregate.
	Server *ServerSnapshot `json:"server,omitempty"`
	// Graphs breaks Server down per tenant graph, keyed by graph name
	// ("default" included); nil outside a daemon.
	Graphs map[string]*ServerSnapshot `json:"graphs,omitempty"`
}

// ServerSnapshot is the serving-layer slice of a Snapshot, produced by
// internal/server: request admission and outcome counters for the
// analytics plane, batch counters for the mutation plane, and latency
// histograms for both. Counters are cumulative since server start;
// Epoch, QueueDepth, and QueueCap are gauges.
type ServerSnapshot struct {
	// Admitted counts analytics jobs accepted into the run queue;
	// Rejected counts submissions turned away with 429 (queue full).
	Admitted uint64 `json:"admitted"`
	Rejected uint64 `json:"rejected"`
	// QuotaRejected counts requests refused 429 by per-tenant quotas
	// (inflight-job cap, mutation-rate bucket) rather than shared-pool
	// backpressure.
	QuotaRejected uint64 `json:"quota_rejected,omitempty"`
	// CacheHits counts submissions served from the epoch-tagged result
	// cache without touching the queue.
	CacheHits uint64 `json:"cache_hits"`
	// Completed / Failed / DeadlineExceeded / Canceled classify
	// finished jobs by outcome.
	Completed        uint64 `json:"completed"`
	Failed           uint64 `json:"failed"`
	DeadlineExceeded uint64 `json:"deadline_exceeded"`
	Canceled         uint64 `json:"canceled"`
	// MutationBatches / MutationOps count accepted mutation batches and
	// the stream operations they carried.
	MutationBatches uint64 `json:"mutation_batches"`
	MutationOps     uint64 `json:"mutation_ops"`
	// Epoch is the graph's mutation epoch at snapshot time.
	Epoch uint64 `json:"epoch"`
	// QueueDepth / QueueCap describe the admission queue now.
	QueueDepth int `json:"queue_depth"`
	QueueCap   int `json:"queue_cap"`
	// ArenaUsedWords / ArenaCapWords gauge the graph's shared space:
	// words handed out so far and its capacity (mem.Space.Used / Cap).
	// The arena never reclaims, so the gap is all the headroom the graph
	// has; the fleet total adds the graphs' up.
	ArenaUsedWords int `json:"arena_used_words"`
	ArenaCapWords  int `json:"arena_cap_words"`
	// StandingQueries / StandingRepairing gauge the standing-query
	// registry: resident delta-maintained computations, and how many
	// of them are currently stale (initializing or mid-repair).
	StandingQueries   int `json:"standing_queries,omitempty"`
	StandingRepairing int `json:"standing_repairing,omitempty"`
	// StandingHits counts reads served inline from a resident standing
	// result; StandingRepairs counts completed repair cycles, of which
	// StandingRecomputes were full CC recomputes (seed time, or a failed
	// recompute's retry). StandingDeleteRepairs counts logged deletes
	// consumed by the localized split-repair path instead.
	StandingHits          uint64 `json:"standing_hits,omitempty"`
	StandingRepairs       uint64 `json:"standing_repairs,omitempty"`
	StandingRecomputes    uint64 `json:"standing_recomputes,omitempty"`
	StandingDeleteRepairs uint64 `json:"standing_delete_repairs,omitempty"`
	// Durability plane (all zero/omitted on an ephemeral daemon).
	// WALAppendedBatches / WALAppendedOps / WALFsyncs count write-ahead
	// log activity; WALErrors counts appends that failed (batch
	// committed in memory, client answered 5xx). Checkpoints /
	// CheckpointErrors count checkpoint outcomes. CheckpointEpoch and
	// WALLagEpochs are gauges: the newest checkpoint's epoch and how
	// many epochs the graph is ahead of it (the replay debt a crash
	// right now would incur). RecoveryReplayedBatches / ReplayedOps
	// record what the last boot's recovery re-applied.
	WALAppendedBatches      uint64 `json:"wal_appended_batches,omitempty"`
	WALAppendedOps          uint64 `json:"wal_appended_ops,omitempty"`
	WALFsyncs               uint64 `json:"wal_fsyncs,omitempty"`
	WALErrors               uint64 `json:"wal_errors,omitempty"`
	Checkpoints             uint64 `json:"checkpoints,omitempty"`
	CheckpointErrors        uint64 `json:"checkpoint_errors,omitempty"`
	CheckpointEpoch         uint64 `json:"checkpoint_epoch,omitempty"`
	WALLagEpochs            uint64 `json:"wal_lag_epochs,omitempty"`
	RecoveryReplayedBatches uint64 `json:"recovery_replayed_batches,omitempty"`
	RecoveryReplayedOps     uint64 `json:"recovery_replayed_ops,omitempty"`
	// GCPasses / GCChains count MVCC chain-compaction passes that
	// rewrote at least one adjacency chain, and the chains rewritten.
	// GCErrors counts passes abandoned on a transient error; the GC
	// loop survives them and retries on its next tick.
	GCPasses uint64 `json:"gc_passes,omitempty"`
	GCChains uint64 `json:"gc_chains,omitempty"`
	GCErrors uint64 `json:"gc_errors,omitempty"`
	// JobLatency is the end-to-end job latency histogram (nanoseconds,
	// admission to terminal state). BatchLatency times answered mutation
	// batches from handler entry — before the body is read — to the
	// response written; BatchStages splits the same interval.
	JobLatency   HistSnapshot        `json:"job_latency_ns"`
	BatchLatency HistSnapshot        `json:"batch_latency_ns"`
	BatchStages  BatchStagesSnapshot `json:"batch_stages_ns"`
	// RepairLag times standing-query repair: effective-batch commit to
	// the repaired result being published.
	RepairLag HistSnapshot `json:"repair_lag_ns,omitempty"`
	// SnapshotFolded and SnapshotFull time the CSR snapshots jobs run on
	// (nanoseconds, one sample a build): folded ones are the previous
	// snapshot with the rows changed since merged in, full ones compact
	// every chain (a graph's first, one after chain GC rebuilt a chain
	// past the previous snapshot, one for a view older than the cache).
	// Their counts are the builds of each kind; a job that found no
	// snapshot cached for its epoch paid one of these before its
	// algorithm ran.
	SnapshotFolded HistSnapshot `json:"snapshot_fold_ns,omitempty"`
	SnapshotFull   HistSnapshot `json:"snapshot_full_ns,omitempty"`
}

// BatchStagesSnapshot splits BatchLatency into the stages a mutation
// batch passes, in order (nanoseconds). One clock reading ends a stage
// and starts the next, so per batch the seven add up to its latency;
// only answered batches are recorded, each once in every histogram.
type BatchStagesSnapshot struct {
	// Decode reads the request body and decodes it; Admit is the rate
	// quota and the vertex-range validation.
	Decode HistSnapshot `json:"decode"`
	Admit  HistSnapshot `json:"admit"`
	// LockWait is the wait for the graph's single-writer bracket.
	LockWait HistSnapshot `json:"lock_wait"`
	// Apply is DynGraph.ApplyOwned; WAL the log append (zero on an
	// ephemeral graph or a no-op batch); Standing the standing-query
	// bookkeeping and leaving the bracket.
	Apply    HistSnapshot `json:"apply"`
	WAL      HistSnapshot `json:"wal"`
	Standing HistSnapshot `json:"standing"`
	// Respond encodes and writes the answer.
	Respond HistSnapshot `json:"respond"`
}

func (b BatchStagesSnapshot) merge(other BatchStagesSnapshot) BatchStagesSnapshot {
	return BatchStagesSnapshot{
		Decode:   b.Decode.Merge(other.Decode),
		Admit:    b.Admit.Merge(other.Admit),
		LockWait: b.LockWait.Merge(other.LockWait),
		Apply:    b.Apply.Merge(other.Apply),
		WAL:      b.WAL.Merge(other.WAL),
		Standing: b.Standing.Merge(other.Standing),
		Respond:  b.Respond.Merge(other.Respond),
	}
}

// Merge folds other into a copy of s: counters add, histograms merge,
// gauges from other win (matching Snapshot.Merge's gauge rule). The
// server uses it to aggregate per-graph sections into a fleet total.
func (s ServerSnapshot) Merge(other ServerSnapshot) ServerSnapshot {
	out := s
	out.Admitted += other.Admitted
	out.Rejected += other.Rejected
	out.QuotaRejected += other.QuotaRejected
	out.CacheHits += other.CacheHits
	out.Completed += other.Completed
	out.Failed += other.Failed
	out.DeadlineExceeded += other.DeadlineExceeded
	out.Canceled += other.Canceled
	out.MutationBatches += other.MutationBatches
	out.MutationOps += other.MutationOps
	out.StandingHits += other.StandingHits
	out.StandingRepairs += other.StandingRepairs
	out.StandingRecomputes += other.StandingRecomputes
	out.StandingDeleteRepairs += other.StandingDeleteRepairs
	out.GCPasses += other.GCPasses
	out.GCChains += other.GCChains
	out.GCErrors += other.GCErrors
	out.WALAppendedBatches += other.WALAppendedBatches
	out.WALAppendedOps += other.WALAppendedOps
	out.WALFsyncs += other.WALFsyncs
	out.WALErrors += other.WALErrors
	out.Checkpoints += other.Checkpoints
	out.CheckpointErrors += other.CheckpointErrors
	out.RecoveryReplayedBatches += other.RecoveryReplayedBatches
	out.RecoveryReplayedOps += other.RecoveryReplayedOps
	out.CheckpointEpoch = other.CheckpointEpoch
	out.WALLagEpochs = other.WALLagEpochs
	out.Epoch = other.Epoch
	out.QueueDepth = other.QueueDepth
	out.QueueCap = other.QueueCap
	out.ArenaUsedWords += other.ArenaUsedWords
	out.ArenaCapWords += other.ArenaCapWords
	out.StandingQueries = other.StandingQueries
	out.StandingRepairing = other.StandingRepairing
	out.JobLatency = s.JobLatency.Merge(other.JobLatency)
	out.BatchLatency = s.BatchLatency.Merge(other.BatchLatency)
	out.BatchStages = s.BatchStages.merge(other.BatchStages)
	out.RepairLag = s.RepairLag.Merge(other.RepairLag)
	out.SnapshotFolded = s.SnapshotFolded.Merge(other.SnapshotFolded)
	out.SnapshotFull = s.SnapshotFull.Merge(other.SnapshotFull)
	return out
}

// WaitSnapshot is one row of the wait table, summed over workers.
type WaitSnapshot struct {
	// Waits counts waits of any length; Sleeps counts those that
	// escalated to a timer sleep (backoff's highest levels; no lock wait
	// sleeps).
	Waits  uint64 `json:"waits"`
	Sleeps uint64 `json:"sleeps,omitempty"`
	// Ns is the wall time spent inside the waits, in nanoseconds.
	Ns uint64 `json:"ns"`
}

// HTMSnapshot counts emulated hardware transactions: begun, committed,
// the operations of the committed ones and of the aborted ones, and the
// aborts by reason (conflict, capacity, explicit, locked).
type HTMSnapshot struct {
	Starts    uint64            `json:"starts"`
	Commits   uint64            `json:"commits"`
	Ops       uint64            `json:"ops"`
	WastedOps uint64            `json:"wasted_ops"`
	Aborts    map[string]uint64 `json:"aborts,omitempty"`
}

// QuietSnapshot counts the H-mode attempts that began with no transaction
// able to hold a vertex lock in flight (they watch one word instead of a
// lock word per vertex) and those of them such a transaction's arrival
// killed. Beside Modes["H"], whose commits, aborts and stops add up to all
// H attempts, it gives the share of H mode that ran on the fast path.
type QuietSnapshot struct {
	Attempts uint64 `json:"attempts"`
	Killed   uint64 `json:"killed"`
}

// ModeSnapshot is the per-mode slice of a Snapshot.
type ModeSnapshot struct {
	// Commits counts committed transactions in this mode; Reads and
	// Writes count their operations.
	Commits uint64 `json:"commits"`
	Reads   uint64 `json:"reads"`
	Writes  uint64 `json:"writes"`
	// Aborts breaks retried attempts down by reason.
	Aborts map[string]uint64 `json:"aborts,omitempty"`
	// Stops breaks terminal non-commit outcomes down by reason.
	Stops map[string]uint64 `json:"stops,omitempty"`
	// Latency is the sampled commit-latency histogram (nanoseconds,
	// 1-in-64 sampling).
	Latency HistSnapshot `json:"latency_ns"`
	// Retries is the aborted-attempts-per-commit histogram.
	Retries HistSnapshot `json:"retries"`
}

// AbortTotal sums the abort counts across reasons.
func (m ModeSnapshot) AbortTotal() uint64 {
	var n uint64
	for _, c := range m.Aborts {
		n += c
	}
	return n
}

// Snapshot captures the current counters as plain values.
func (m *Metrics) Snapshot() Snapshot {
	s := Snapshot{Modes: make(map[string]ModeSnapshot)}
	workers := m.workerStates()
	for _, ws := range workers {
		for r := range ws.waits {
			row := &ws.waits[r]
			addWait(&s.Waits, WaitReason(r).String(), WaitSnapshot{Waits: row.n.Load(), Sleeps: row.sleeps.Load(), Ns: row.ns.Load()})
		}
		ws.htm.addTo(&s.HTM)
		s.HQuiet.Attempts += ws.quietBegun.Load()
		s.HQuiet.Killed += ws.quietKilled.Load()
	}
	for mo := Mode(0); mo < NumModes; mo++ {
		ms := ModeSnapshot{
			Latency: HistSnapshot{Counts: make([]uint64, HistBuckets)},
			Retries: HistSnapshot{Counts: make([]uint64, HistBuckets)},
		}
		for _, ws := range workers {
			c := &ws.commits[mo]
			ms.Reads += c.reads.Load()
			ms.Writes += c.writes.Load()
			c.retries.addTo(&ms.Retries)
			ws.latency[mo].addTo(&ms.Latency)
		}
		ms.Commits = ms.Retries.Count()
		for r := Reason(0); r < NumReasons; r++ {
			addCount(&ms.Aborts, r.String(), m.aborts[mo][r].Load())
			addCount(&ms.Stops, r.String(), m.stops[mo][r].Load())
		}
		if ms.Commits != 0 || ms.Aborts != nil || ms.Stops != nil {
			s.Modes[mo.String()] = ms
		}
	}
	for t := Transition(0); t < NumTransitions; t++ {
		addCount(&s.Transitions, t.String(), m.trans[t].Load())
	}
	return s
}

// Totals is a Snapshot summed over its modes: the scheduler-wide counts
// (tufast.Stats) read from the one record.
type Totals struct {
	Commits   uint64 // transactions committed
	Aborts    uint64 // attempts aborted and retried
	UserStops uint64 // transactions stopped by user error, panic or cancellation
	Panics    uint64 // the user stops that were panics
	Deadlocks uint64 // the aborts of refused lock waits
	Reads     uint64 // operations of committed transactions
	Writes    uint64
}

// Totals sums the snapshot over its modes.
func (s Snapshot) Totals() Totals {
	var t Totals
	for _, m := range s.Modes {
		t.Commits += m.Commits
		t.Aborts += m.AbortTotal()
		t.Deadlocks += m.Aborts[ReasonDeadlock.String()]
		t.Panics += m.Stops[ReasonPanic.String()]
		for _, c := range m.Stops {
			t.UserStops += c
		}
		t.Reads += m.Reads
		t.Writes += m.Writes
	}
	return t
}

// AbortReasons flattens the per-mode breakdowns into reason totals.
func (s Snapshot) AbortReasons() map[string]uint64 {
	out := make(map[string]uint64)
	for _, m := range s.Modes {
		for r, c := range m.Aborts {
			out[r] += c
		}
	}
	return out
}

// Merge folds other into a copy of s: counters add, histograms merge
// bucket-wise, gauges from other win. Snapshots from different systems
// (or the same system at different times, for deltas via subtraction
// elsewhere) merge exactly.
func (s Snapshot) Merge(other Snapshot) Snapshot {
	out := Snapshot{
		Modes: make(map[string]ModeSnapshot),
		HTM: HTMSnapshot{
			Starts:    s.HTM.Starts + other.HTM.Starts,
			Commits:   s.HTM.Commits + other.HTM.Commits,
			Ops:       s.HTM.Ops + other.HTM.Ops,
			WastedOps: s.HTM.WastedOps + other.HTM.WastedOps,
			Aborts:    mergeCounts(mergeCounts(nil, s.HTM.Aborts), other.HTM.Aborts),
		},
		HQuiet: QuietSnapshot{
			Attempts: s.HQuiet.Attempts + other.HQuiet.Attempts,
			Killed:   s.HQuiet.Killed + other.HQuiet.Killed,
		},
	}
	for _, waits := range []map[string]WaitSnapshot{s.Waits, other.Waits} {
		for k, w := range waits {
			addWait(&out.Waits, k, w)
		}
	}
	out.Server = mergeServer(s.Server, other.Server)
	if s.Graphs != nil || other.Graphs != nil {
		out.Graphs = make(map[string]*ServerSnapshot, len(s.Graphs)+len(other.Graphs))
		for _, graphs := range []map[string]*ServerSnapshot{s.Graphs, other.Graphs} {
			for name, sv := range graphs {
				out.Graphs[name] = mergeServer(out.Graphs[name], sv)
			}
		}
	}
	for name, m := range s.Modes {
		out.Modes[name] = m
	}
	for name, om := range other.Modes {
		m, ok := out.Modes[name]
		if !ok {
			out.Modes[name] = om
			continue
		}
		m.Commits += om.Commits
		m.Reads += om.Reads
		m.Writes += om.Writes
		m.Aborts = mergeCounts(m.Aborts, om.Aborts)
		m.Stops = mergeCounts(m.Stops, om.Stops)
		m.Latency = m.Latency.Merge(om.Latency)
		m.Retries = m.Retries.Merge(om.Retries)
		out.Modes[name] = m
	}
	out.Transitions = mergeCounts(mergeCounts(nil, s.Transitions), other.Transitions)
	if s.Gauges != nil || other.Gauges != nil {
		out.Gauges = make(map[string]int64, len(s.Gauges)+len(other.Gauges))
		for k, v := range s.Gauges {
			out.Gauges[k] = v
		}
		for k, v := range other.Gauges {
			out.Gauges[k] = v
		}
	}
	return out
}

// mergeServer returns a new merge of a and b, either of which may be nil.
func mergeServer(a, b *ServerSnapshot) *ServerSnapshot {
	var m ServerSnapshot
	switch {
	case a != nil && b != nil:
		m = a.Merge(*b)
	case a != nil:
		m = *a
	case b != nil:
		m = *b
	default:
		return nil
	}
	return &m
}

// mergeCounts adds src's counts into dst, made when nil.
func mergeCounts(dst, src map[string]uint64) map[string]uint64 {
	for k, c := range src {
		addCount(&dst, k, c)
	}
	return dst
}

// addCount adds c under k in *m, made on first use; a zero c adds nothing,
// so a snapshot's maps never hold a zero.
func addCount(m *map[string]uint64, k string, c uint64) {
	if c == 0 {
		return
	}
	if *m == nil {
		*m = make(map[string]uint64)
	}
	(*m)[k] += c
}

// addWait adds w's counts to row k of *m, made on first use; a row of no
// waits adds nothing.
func addWait(m *map[string]WaitSnapshot, k string, w WaitSnapshot) {
	if w.Waits == 0 {
		return
	}
	if *m == nil {
		*m = make(map[string]WaitSnapshot)
	}
	r := (*m)[k]
	(*m)[k] = WaitSnapshot{Waits: r.Waits + w.Waits, Sleeps: r.Sleeps + w.Sleeps, Ns: r.Ns + w.Ns}
}
