package sched

import (
	"runtime"
	"time"

	"tufast/internal/obs"
)

// spinYield is the one cadence of the TM core's lock waits: every
// spinYield-th Pause yields the P. It was chosen by measurement from the
// per-site cadences Spin replaced, 4, 8 and 16 (EXPERIMENTS.md "One wait
// primitive").
const spinYield = 16

// Spin is a condition wait on the vertex-lock table. The caller polls its
// condition, calls Pause between polls and Done once, however the wait
// ended; whether to give the wait up stays the caller's. The zero value is
// ready, and a wait whose first poll succeeds reads no clock and records
// nothing. Pause never sleeps (a timed park in L's wait made lib_skew 16%
// slower); a park that the releaser wakes would be a change here alone.
type Spin struct {
	n     int
	start time.Time
}

// Pause waits between two polls: the first call starts the wait's clock,
// and every spinYield-th yields the P, which the holder may need.
func (s *Spin) Pause() {
	if s.n == 0 {
		s.start = time.Now()
	}
	if s.n++; s.n%spinYield == 0 {
		runtime.Gosched()
	}
}

// Yields reports whether the next Pause yields the P: where a wait that
// may be refused or cancelled checks for it.
func (s *Spin) Yields() bool { return (s.n+1)%spinYield == 0 }

// Done records the wait on p under reason r, once, if it paused at all.
func (s *Spin) Done(p *obs.Probe, r obs.WaitReason) {
	if s.n != 0 {
		p.Wait(r, false, time.Since(s.start))
	}
}
