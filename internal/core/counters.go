package core

import (
	"slices"
	"sync/atomic"

	"tufast/internal/htm"
	"tufast/internal/obs"
)

// counters is what one worker counts that is not a transaction's outcome,
// and the flag it raises while one of its H commits may be publishing.
// Only the owning worker writes it, so on the all-H fast path no counter
// update leaves the worker's own cache lines; the pads keep a
// neighbouring allocation off its first and last line. HTMStats,
// QuietStats and ResetStats sum and clear the registered blocks.
//
// Outcomes are not counted here: the worker's obs.Probe records each
// commit (with its reads and writes), abort and stop once, and every view
// of them — Stats, ModeStats, Deadlocks, the metrics snapshot — reads
// that.
type counters struct {
	_ [64]byte

	// committing is 1 while an H commit of this worker is between
	// reading lState and finishing its publish (hmode.go, commit).
	committing atomic.Uint32

	// htm counts this worker's emulated hardware transactions: H-mode
	// attempts (written by its htm.Tx) and O-mode segments.
	htm htm.Stats

	quietBegun  atomic.Uint64 // H attempts begun quiet (hmode.go)
	quietKilled atomic.Uint64 // of those, the ones a locker's arrival killed

	_ [64]byte
}

// register adds a new worker's block to the registry. The registry is an
// immutable slice replaced whole, so the readers — every L-mode entry and
// the stats views — neither lock nor allocate.
func (s *System) register(c *counters) {
	s.regMu.Lock()
	defer s.regMu.Unlock()
	next := append(slices.Clip(s.registered()), c) // Clip: append copies
	s.registry.Store(&next)
}

func (s *System) registered() []*counters {
	if r := s.registry.Load(); r != nil {
		return *r
	}
	return nil
}

// Workers returns how many worker contexts have registered: with one pool
// over the System, the thread ids in use out of maxThreads.
func (s *System) Workers() int { return len(s.registered()) }

// obsMode is the obs label of a class: the two enums list the Fig. 15
// classes in the same order.
func (c ModeClass) obsMode() obs.Mode { return obs.Mode(c) }

// Stats sums the metrics snapshot taken now over its modes.
func (s *System) Stats() obs.Totals { return s.Metrics().Snapshot().Totals() }

// ModeStats returns the Figure 15 per-mode breakdown, read from the
// metrics snapshot taken now.
func (s *System) ModeStats() ModeStats {
	snap := s.Metrics().Snapshot()
	var m ModeStats
	for _, class := range Classes() {
		ms := snap.Modes[class.String()]
		m.count[class], m.ops[class] = ms.Commits, ms.Reads+ms.Writes
	}
	return m
}

// Deadlocks returns how many L-mode attempts were chosen as deadlock
// victims: the aborts the metrics record with obs.ReasonDeadlock.
func (s *System) Deadlocks() uint64 { return s.Stats().Deadlocks }

// HTMStats returns the emulated-HTM counters (H-mode transactions and
// O-mode segments), summed over the workers now.
func (s *System) HTMStats() htm.StatsSnapshot {
	var sum htm.StatsSnapshot
	for _, c := range s.registered() {
		sum = sum.Add(c.htm.Snapshot())
	}
	return sum
}

// QuietStats is how much of H mode ran without per-vertex subscriptions,
// summed over the workers now: Attempts counts the H attempts that began
// with no locker in flight, Killed those of them that died because one
// arrived. The rest of H's attempts (its commits, aborts and stops in the
// metrics snapshot, less Attempts) ran subscribed.
func (s *System) QuietStats() obs.QuietSnapshot {
	var q obs.QuietSnapshot
	for _, c := range s.registered() {
		q.Attempts += c.quietBegun.Load()
		q.Killed += c.quietKilled.Load()
	}
	return q
}

// ResetStats zeroes every counter Stats, ModeStats, HTMStats, QuietStats,
// Deadlocks and the metrics snapshot report: the metrics, and the htm and
// quiet counts of every worker's block. It is the only reset there is:
// the views above are sums, so resetting one of them would reset nothing.
func (s *System) ResetStats() {
	s.Metrics().Reset()
	for _, c := range s.registered() {
		c.htm.Reset()
		c.quietBegun.Store(0)
		c.quietKilled.Store(0)
	}
}
