// Package core implements TuFast's contribution: the three-mode hybrid
// transactional memory of paper §IV. Transactions are routed by their
// size hint (Fig. 10) to one of three sub-schedulers that share the same
// vertex locks and memory metadata (§IV-A):
//
//	H mode  one emulated hardware transaction with per-vertex lock
//	        subscription (Algorithm 1);
//	O mode  HTM-assisted optimistic execution: private write buffer,
//	        reads monitored in HTM segments of `period` operations,
//	        commit-time validation (Algorithm 2, Fig. 9);
//	L mode  strict two-phase locking with deadlock detection
//	        (Algorithm 3) — reused from the sched package.
//
// The O-mode segment length adapts at run time: modelling a per-operation
// abort probability p, the expected committed work (1-p)^P·P is maximal
// at P = round(1/p) (§IV-D), so a monitored estimate of p drives the
// period, halving on each O abort with a floor below which the
// transaction escalates to L mode.
package core

import "tufast/internal/htm"

// Config tunes the TuFast runtime. The zero value is usable: every field
// is defaulted by normalize.
type Config struct {
	// HMaxHint is the hard ceiling on H mode: a transaction whose size
	// hint (in shared words) exceeds it never starts in H. Defaults to
	// the emulated HTM capacity in words, the sequential limit; where a
	// footprint really stops fitting depends on how its lines fall into
	// the 64 cache sets, which no static threshold captures (R-MAT
	// neighbour ids overflow one set at hints under 256), so below the
	// ceiling the router learns per size class whether H attempts end in
	// capacity aborts and starts such a class in O (see router.go).
	HMaxHint int

	// OMaxHint is the hard ceiling on O mode: larger transactions go
	// straight to L mode (Fig. 10 "size makes H/O mode impossible").
	// Below it the router learns per size class whether O entries end in
	// L anyway and sends such a class straight there.
	OMaxHint int

	// HRetries bounds H-mode retries on transient aborts (§IV-D studies
	// this knob; Intel suggests a small constant). Capacity aborts never
	// retry.
	HRetries int

	// PeriodInit is the O-mode segment length used before any adaptive
	// feedback exists (also the "static parameter" of Fig. 17).
	PeriodInit int

	// PeriodFloor is the period below which O mode gives up and the
	// transaction escalates to L mode (paper: 100).
	PeriodFloor int

	// StaticPeriod turns off the §IV-D controller: the period stays at
	// PeriodInit (Fig. 17's "static" configuration and the ablation's
	// static-period row). The zero value adapts.
	StaticPeriod bool

	// DisableEarlyAbort turns off the NOrec-style mid-transaction
	// conflict detection inside O-mode segments (ablation: the value of
	// HTM assistance in O mode).
	DisableEarlyAbort bool

	// Tax, when non-nil, is charged once per L-mode operation: the paper
	// reproduction's software-barrier cost model (internal/simcost),
	// injected by internal/bench and cmd/tufast so Fig. 13-15 compare
	// TuFast's lock-based mode with the baselines on equal terms. The
	// public API never sets it.
	Tax func()
}

// normalize fills zero fields with defaults.
func (c Config) normalize() Config {
	if c.HMaxHint <= 0 {
		c.HMaxHint = htm.CapacityWords
	}
	if c.OMaxHint <= 0 {
		// O mode pays off while the transaction is "not too far" beyond
		// the HTM capacity (§IV-A, Fig. 8); eight capacities out, the
		// validation-failure risk and re-execution cost favour locks.
		c.OMaxHint = 8 * htm.CapacityWords
	}
	if c.HRetries <= 0 {
		c.HRetries = 8
	}
	if c.PeriodInit <= 0 {
		c.PeriodInit = 1000
	}
	if c.PeriodFloor <= 0 {
		c.PeriodFloor = 100
	}
	return c
}
