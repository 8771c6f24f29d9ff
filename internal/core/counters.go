package core

import (
	"slices"
	"sync/atomic"

	"tufast/internal/htm"
	"tufast/internal/obs"
	"tufast/internal/sched"
)

// counters is everything one worker counts, and the flag it raises while
// one of its H commits may be publishing. Only the owning worker writes
// it, so on the all-H fast path no counter update leaves the worker's
// own cache lines; the pads keep a neighbouring allocation off its first
// and last line. System.Stats, ModeStats, HTMStats and ResetStats sum
// and clear the registered blocks.
//
// A commit itself is not counted here: the worker's obs.Probe records it
// once, in its per-mode retry histogram, and every view of "commits"
// (Stats().Commits, ModeStats.Count, the metrics snapshot) reads that.
type counters struct {
	_ [64]byte

	// committing is 1 while an H commit of this worker is between
	// reading lState and finishing its publish (hmode.go, commit).
	committing atomic.Uint32

	// htm counts this worker's emulated hardware transactions: H-mode
	// attempts (written by its htm.Tx) and O-mode segments.
	htm htm.Stats

	// reads and writes are the operations of committed transactions, by
	// the class they committed in.
	reads, writes [numClasses]atomic.Uint64

	aborts    atomic.Uint64 // attempts aborted and retried, in any mode
	userStops atomic.Uint64 // transactions stopped by user error, panic or cancellation
	panics    atomic.Uint64 // the user stops that were panics

	quietBegun  atomic.Uint64 // H attempts begun quiet (hmode.go)
	quietKilled atomic.Uint64 // of those, the ones a locker's arrival killed

	_ [64]byte
}

// NoteCommit, NoteAbort and NoteUserStop make the block a sched.Tally:
// H and O mode count through them, and so does the retry loop L mode
// runs under.
func (c *counters) NoteCommit(mode obs.Mode, reads, writes uint64) {
	c.reads[mode].Add(reads) // obs modes and classes share their order
	c.writes[mode].Add(writes)
}

func (c *counters) NoteAbort() { c.aborts.Add(1) }

func (c *counters) NoteUserStop(err error) {
	c.userStops.Add(1)
	if _, isPanic := sched.AsPanicError(err); isPanic {
		c.panics.Add(1)
	}
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

// Stats implements sched.Scheduler. The result is a sum over the workers
// taken now, not the live counters: resetting it does nothing to the
// System (use ResetStats).
func (s *System) Stats() *sched.Stats {
	out := new(sched.Stats)
	for _, c := range s.registered() {
		out.Aborts.Add(c.aborts.Load())
		out.UserStops.Add(c.userStops.Load())
		out.Panics.Add(c.panics.Load())
		for class := range numClasses {
			out.Reads.Add(c.reads[class].Load())
			out.Writes.Add(c.writes[class].Load())
		}
	}
	commits := s.Metrics().Commits()
	for _, class := range Classes() {
		out.Commits.Add(commits[class.obsMode()])
	}
	return out
}

// ModeStats returns the Figure 15 per-mode breakdown, summed over the
// workers now.
func (s *System) ModeStats() ModeStats {
	var m ModeStats
	commits := s.Metrics().Commits()
	for _, class := range Classes() {
		m.count[class] = commits[class.obsMode()]
	}
	for _, c := range s.registered() {
		for class := range numClasses {
			m.ops[class] += c.reads[class].Load() + c.writes[class].Load()
		}
	}
	return m
}

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
// Deadlocks and the metrics snapshot report. It is the only reset there
// is: the views above are sums, so resetting one of them would reset
// nothing.
func (s *System) ResetStats() {
	for _, c := range s.registered() {
		c.htm.Reset()
		for class := range numClasses {
			c.reads[class].Store(0)
			c.writes[class].Store(0)
		}
		c.aborts.Store(0)
		c.userStops.Store(0)
		c.panics.Store(0)
		c.quietBegun.Store(0)
		c.quietKilled.Store(0)
	}
	s.lmode.Stats().Reset()
	s.Metrics().Reset()
}
