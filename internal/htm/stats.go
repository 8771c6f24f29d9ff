package htm

import "sync/atomic"

// Stats aggregates emulated-HTM activity across all transactions that
// share it. All fields are safe for concurrent update; TuFast's core
// gives every worker its own, so the adds stay uncontended.
type Stats struct {
	Starts         atomic.Uint64
	Commits        atomic.Uint64
	Ops            atomic.Uint64
	WastedOps      atomic.Uint64 // ops discarded by aborts
	AbortConflicts atomic.Uint64
	AbortCapacity  atomic.Uint64
	AbortExplicit  atomic.Uint64
	AbortLocked    atomic.Uint64
}

func (s *Stats) record(code AbortCode) {
	switch code {
	case AbortConflict:
		s.AbortConflicts.Add(1)
	case AbortCapacity:
		s.AbortCapacity.Add(1)
	case AbortExplicit:
		s.AbortExplicit.Add(1)
	case AbortLocked:
		s.AbortLocked.Add(1)
	}
}

// Aborts returns the total number of aborts of any kind.
func (s *Stats) Aborts() uint64 {
	return s.AbortConflicts.Load() + s.AbortCapacity.Load() +
		s.AbortExplicit.Load() + s.AbortLocked.Load()
}

// AbortRate returns aborts / starts, or 0 before any start.
func (s *Stats) AbortRate() float64 {
	st := s.Starts.Load()
	if st == 0 {
		return 0
	}
	return float64(s.Aborts()) / float64(st)
}

// Reset zeroes all counters (benchmark warmup discards). Counterpart of
// Snapshot: every field Snapshot reports, Reset clears.
func (s *Stats) Reset() {
	s.Starts.Store(0)
	s.Commits.Store(0)
	s.Ops.Store(0)
	s.WastedOps.Store(0)
	s.AbortConflicts.Store(0)
	s.AbortCapacity.Store(0)
	s.AbortExplicit.Store(0)
	s.AbortLocked.Store(0)
}

// Snapshot returns a plain-value copy for reporting.
func (s *Stats) Snapshot() StatsSnapshot {
	return StatsSnapshot{
		Starts:         s.Starts.Load(),
		Commits:        s.Commits.Load(),
		Ops:            s.Ops.Load(),
		WastedOps:      s.WastedOps.Load(),
		AbortConflicts: s.AbortConflicts.Load(),
		AbortCapacity:  s.AbortCapacity.Load(),
		AbortExplicit:  s.AbortExplicit.Load(),
		AbortLocked:    s.AbortLocked.Load(),
	}
}

// StatsSnapshot is an immutable copy of Stats.
type StatsSnapshot struct {
	Starts, Commits, Ops, WastedOps                           uint64
	AbortConflicts, AbortCapacity, AbortExplicit, AbortLocked uint64
}

// Add returns the counter-wise sum of s and o (core sums its workers'
// Stats this way).
func (s StatsSnapshot) Add(o StatsSnapshot) StatsSnapshot {
	s.Starts += o.Starts
	s.Commits += o.Commits
	s.Ops += o.Ops
	s.WastedOps += o.WastedOps
	s.AbortConflicts += o.AbortConflicts
	s.AbortCapacity += o.AbortCapacity
	s.AbortExplicit += o.AbortExplicit
	s.AbortLocked += o.AbortLocked
	return s
}

// Aborts returns the total aborts in the snapshot.
func (s StatsSnapshot) Aborts() uint64 {
	return s.AbortConflicts + s.AbortCapacity + s.AbortExplicit + s.AbortLocked
}
