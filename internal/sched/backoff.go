package sched

import (
	"runtime"
	"time"

	"tufast/internal/obs"
)

// Backoff implements randomized exponential backoff for the retry loop.
// It is per-worker state (not safe for concurrent use).
type Backoff struct {
	rng   uint64
	level uint
}

func NewBackoff(seed uint64) Backoff {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return Backoff{rng: seed}
}

func (b *Backoff) Next() uint64 {
	b.rng ^= b.rng << 13
	b.rng ^= b.rng >> 7
	b.rng ^= b.rng << 17
	return b.rng
}

// WaitObserved spins for a randomized, exponentially growing number of
// iterations, yielding the processor at higher levels and sleeping at the
// highest, and records on p the wait under backoff, whether it slept and
// the wall time it took.
func (b *Backoff) WaitObserved(p *obs.Probe) {
	start := time.Now()
	if b.level < 12 {
		b.level++
	}
	spins := b.Next() % (1 << b.level)
	for range spins {
		cpuRelax()
	}
	slept := b.level > 8
	switch {
	case slept:
		// Persistent contention: sleep so the conflicting transaction
		// can actually finish (critical on few-core machines, where a
		// spinner starves the very holder it waits for). The nominal
		// 20-80 µs is a floor, not the cost: on the 2-core reference box
		// a 20 µs time.Sleep measures 1.1 ms at the median and 1.3 ms at
		// p90 (timer granularity plus a trip through the scheduler). It
		// stays all the same: an exact 20-80 µs yield loop in its place
		// made lib_skew slower, because the waiters then hammer the long
		// L transaction they are waiting for. What was wrong was reaching
		// this level for reasons waiting cannot fix: core resets the
		// level per transaction and does not wait after capacity aborts
		// (EXPERIMENTS.md "Mode ladder" has both measurements).
		time.Sleep(time.Duration(b.level-8) * 20 * time.Microsecond)
	case b.level > 3:
		runtime.Gosched()
	}
	p.Wait(obs.WaitBackoff, slept, time.Since(start))
}

// Reset returns the backoff to its minimum level, so a pooled worker's
// next transaction never inherits the previous transaction's contention
// history. A transaction begun on a loop (RunCtx, TuFast's core's Run
// and its L rung) calls it first: that covers every way the previous
// transaction can have ended (commit, user error, panic, cancellation,
// abandonment).
func (b *Backoff) Reset() { b.level = 0 }

// Level exposes the current escalation level (tests assert that every
// transaction starts at zero).
func (b *Backoff) Level() uint { return b.level }

//go:noinline
func cpuRelax() {}
