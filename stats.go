package tufast

import (
	"tufast/internal/algo"
	"tufast/internal/mem"
	"tufast/internal/obs"
)

// Stats is a snapshot of a System's scheduling activity.
type Stats struct {
	// Commits counts committed transactions; Aborts counts retried
	// attempts; UserStops counts transactions stopped terminally by a
	// user error, panic, or cancellation, wherever in the H→O→L ladder
	// it struck; Panics is the subset of UserStops caused by a
	// panicking TxFunc.
	Commits, Aborts, UserStops, Panics uint64
	// Reads and Writes count committed transactional operations.
	Reads, Writes uint64
	// Mode breaks committed transactions down by the path they took
	// through the three-mode router (the paper's Figure 15 classes).
	Mode map[string]ModeBucket
	// HTMStarts / HTMCommits / HTMAborts... count emulated hardware
	// transactions (H-mode bodies and O-mode segments).
	HTMStarts, HTMCommits     uint64
	HTMConflicts, HTMCapacity uint64
	HTMExplicit, HTMLocked    uint64
	// HQuiet counts the H-mode attempts that began with no transaction
	// able to hold a vertex lock in flight and so subscribed to one word
	// instead of one lock word per vertex; HQuietKilled counts those of
	// them that aborted because such a transaction (an O-mode commit, an
	// L-mode transaction) arrived. They are HTMExplicit aborts too.
	HQuiet, HQuietKilled uint64
	// Deadlocks counts L-mode attempts aborted by a refused lock wait,
	// one below a lock the attempt held that could close a cycle.
	Deadlocks uint64
	// CurrentPeriod is the adaptive O-mode segment length now in force.
	CurrentPeriod int
}

// ModeBucket is the per-class share of committed work.
type ModeBucket struct {
	Transactions uint64 // committed transactions in this class
	Operations   uint64 // their total read+write operations
}

// StatsSnapshot captures the system counters, read from one
// MetricsSnapshot: every count agrees with every other and with a
// MetricsSnapshot taken at the same moment.
func (s *System) StatsSnapshot() Stats { return statsOf(s.MetricsSnapshot()) }

// statsOf sums a metrics snapshot into a Stats.
func statsOf(snap MetricsSnapshot) Stats {
	t := snap.Totals()
	mode := make(map[string]ModeBucket, 5)
	for m := obs.ModeH; m <= obs.ModeL; m++ {
		ms := snap.Modes[m.String()]
		mode[m.String()] = ModeBucket{
			Transactions: ms.Commits,
			Operations:   ms.Reads + ms.Writes,
		}
	}
	h := snap.HTM
	return Stats{
		Commits:       t.Commits,
		Aborts:        t.Aborts,
		UserStops:     t.UserStops,
		Panics:        t.Panics,
		Reads:         t.Reads,
		Writes:        t.Writes,
		Mode:          mode,
		HTMStarts:     h.Starts,
		HTMCommits:    h.Commits,
		HTMConflicts:  h.Aborts[obs.ReasonConflict.String()],
		HTMCapacity:   h.Aborts[obs.ReasonCapacity.String()],
		HTMExplicit:   h.Aborts[obs.ReasonExplicit.String()],
		HTMLocked:     h.Aborts[obs.ReasonLocked.String()],
		HQuiet:        snap.HQuiet.Attempts,
		HQuietKilled:  snap.HQuiet.Killed,
		Deadlocks:     t.Deadlocks,
		CurrentPeriod: int(snap.Gauges["adaptive_period"]),
	}
}

// ResetStats zeroes every counter StatsSnapshot and MetricsSnapshot
// report, all of which live in the one metrics record: outcomes and their
// operations, latency and retry histograms, transition counters, the
// wait table, the emulated-HTM counters and the quiet H-mode attempts.
// It does NOT reset the adaptive period controller: its estimate of the
// workload's conflict rate remains valid across a warmup boundary
// (resetting it would re-learn from scratch and skew the measured run),
// so CurrentPeriod is a gauge that persists.
func (s *System) ResetStats() { s.core.Metrics().Reset() }

// MetricsSnapshot is the observability snapshot: per-mode commit and
// abort-reason counts, sampled commit-latency and retry histograms,
// mode-transition counters and waits by reason. See the internal/obs package
// documentation for field details.
type MetricsSnapshot = obs.Snapshot

// MetricsSnapshot captures the observability metrics. The adaptive
// period in force is exported as the "adaptive_period" gauge and the
// worker thread ids in use (of the 512 a System can hand out before it
// panics) as "workers".
func (s *System) MetricsSnapshot() MetricsSnapshot {
	snap := s.core.Metrics().Snapshot()
	if snap.Gauges == nil {
		snap.Gauges = make(map[string]int64, 2)
	}
	snap.Gauges["adaptive_period"] = int64(s.core.CurrentPeriod())
	snap.Gauges["workers"] = int64(s.core.Workers())
	return snap
}

// Space exposes the shared memory space to sibling packages in this
// module (the benchmark reads the arena's fill level from it).
func (s *System) Space() *mem.Space { return s.rt.Sp }

// Runtime exposes the System's driver — its worker pool, sweep and queued
// drain — to sibling packages in this module: package algorithms runs
// every call on it.
func (s *System) Runtime() *algo.Runtime { return s.rt }
