package sched

import (
	"sync/atomic"

	"tufast/internal/obs"
)

// Stats are the counters every scheduler reports. The baselines in this
// package update one shared Stats, their loops' Tally; TuFast's core
// counts per worker and returns a Stats summed on request
// (core.System.Stats), so resetting what it returns resets nothing —
// core.System.ResetStats does.
type Stats struct {
	Commits   atomic.Uint64 // transactions committed
	Aborts    atomic.Uint64 // attempts aborted and retried
	UserStops atomic.Uint64 // transactions stopped by user error, panic, or cancellation
	Panics    atomic.Uint64 // user stops caused by a TxFunc panic (subset of UserStops)
	Reads     atomic.Uint64 // committed read operations
	Writes    atomic.Uint64 // committed write operations
	Deadlocks atomic.Uint64 // deadlock victims (lock-based schedulers)
}

// NoteCommit counts a committed transaction and its operations.
func (s *Stats) NoteCommit(_ obs.Mode, reads, writes uint64) {
	s.Commits.Add(1)
	s.Reads.Add(reads)
	s.Writes.Add(writes)
}

// NoteAbort counts an aborted, retried attempt.
func (s *Stats) NoteAbort() { s.Aborts.Add(1) }

// NoteUserStop counts a terminal non-commit outcome, classifying panics
// separately from plain user errors and cancellations.
func (s *Stats) NoteUserStop(err error) {
	s.UserStops.Add(1)
	if _, isPanic := AsPanicError(err); isPanic {
		s.Panics.Add(1)
	}
}

// Snapshot is a plain-value copy of Stats.
type Snapshot struct {
	Commits, Aborts, UserStops, Panics, Reads, Writes, Deadlocks uint64
}

// Snapshot copies the current counters.
func (s *Stats) Snapshot() Snapshot {
	return Snapshot{
		Commits:   s.Commits.Load(),
		Aborts:    s.Aborts.Load(),
		UserStops: s.UserStops.Load(),
		Panics:    s.Panics.Load(),
		Reads:     s.Reads.Load(),
		Writes:    s.Writes.Load(),
		Deadlocks: s.Deadlocks.Load(),
	}
}

// AbortRate returns aborted attempts per started attempt.
func (s *Stats) AbortRate() float64 {
	c, a := s.Commits.Load(), s.Aborts.Load()
	if c+a == 0 {
		return 0
	}
	return float64(a) / float64(c+a)
}

// Reset zeroes all counters.
func (s *Stats) Reset() {
	s.Commits.Store(0)
	s.Aborts.Store(0)
	s.UserStops.Store(0)
	s.Panics.Store(0)
	s.Reads.Store(0)
	s.Writes.Store(0)
	s.Deadlocks.Store(0)
}
