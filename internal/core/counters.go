package core

import (
	"slices"
	"sync/atomic"
)

// counters is the flag a worker raises while one of its H commits may be
// publishing. Only the owning worker writes it and every L-mode entry
// reads it (awaitHCommits), so it gets cache lines of its own: the pads
// keep a neighbouring allocation off them.
//
// Nothing is counted here: the worker's obs.Probe records each commit
// (with its reads and writes), abort and stop once, its emulated-HTM
// attempts and segments and its quiet H attempts, and every view of them
// reads one metrics snapshot.
type counters struct {
	_ [64]byte

	// committing is 1 while an H commit of this worker is between
	// reading lState and finishing its publish (hmode.go, Commit).
	committing atomic.Uint32

	_ [64]byte
}

// register adds a new worker's block to the registry. The registry is an
// immutable slice replaced whole, so the readers — every L-mode entry and
// Workers — neither lock nor allocate.
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
// over the System, the thread ids in use out of sched.MaxThreads.
func (s *System) Workers() int { return len(s.registered()) }
