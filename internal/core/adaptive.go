package core

import (
	"sync/atomic"

	"tufast/internal/htm"
	"tufast/internal/obs"
)

// periodCap bounds the adaptive period from above: the HTM capacity in
// words is a natural ceiling.
const periodCap = htm.CapacityWords

// periodController implements the §IV-D adaptive parameter selection.
//
// Model: an in-flight HTM segment aborts on its next operation with
// probability p; committing after P operations therefore yields expected
// committed work (1-p)^P · P, maximized at P = round(1/p). The controller
// estimates p from recent O-mode segment outcomes (operations executed vs
// segment aborts) in a decaying window and publishes round(1/p̂), clamped
// to [floor, cap].
type periodController struct {
	ops    atomic.Uint64 // segment operations observed in current window
	aborts atomic.Uint64 // segment aborts observed in current window
	cur    atomic.Int64  // published period

	floor, cap int
	window     uint64 // decay threshold in ops

	// m, when set, receives period_up/period_down transition counts so
	// the controller's trajectory is observable (Fig. 17 telemetry).
	m *obs.Metrics
}

func newPeriodController(initial, floor, capP int) *periodController {
	pc := &periodController{floor: floor, cap: capP, window: 1 << 16}
	pc.cur.Store(int64(initial))
	return pc
}

// Current returns the period to use for a fresh O-mode transaction.
func (pc *periodController) Current() int { return int(pc.cur.Load()) }

// Observe folds one O-mode attempt's segment telemetry into the estimate
// and republishes the period. ops counts operations executed inside
// segments; aborted reports whether a segment died (conflict or capacity).
func (pc *periodController) Observe(ops uint64, aborted bool) {
	if ops == 0 && !aborted {
		return
	}
	o := pc.ops.Add(ops)
	a := pc.aborts.Load()
	if aborted {
		a = pc.aborts.Add(1)
	}
	if o < 256 {
		return // too little signal
	}
	var period int64
	if a == 0 {
		period = int64(pc.cap)
	} else {
		period = int64(o / a) // round(1/p̂) with p̂ = a/o
		if period < int64(pc.floor) {
			period = int64(pc.floor)
		}
		if period > int64(pc.cap) {
			period = int64(pc.cap)
		}
	}
	if old := pc.cur.Swap(period); pc.m != nil && period != old {
		if period > old {
			pc.m.Transition(obs.TransPeriodUp)
		} else {
			pc.m.Transition(obs.TransPeriodDown)
		}
	}
	if o >= pc.window {
		// Exponential decay: halve both counters so the estimate tracks
		// the recent workload (§IV-D "base on the recent workload"). The
		// ops CAS makes the decay single-winner: two Observe calls that
		// both crossed the window cannot halve twice (which would quarter
		// the window), and ops recorded by concurrent Observes between our
		// Add and the decay are preserved rather than overwritten. The
		// winner halves aborts with its own CAS loop so concurrent
		// increments are folded in, not dropped.
		if pc.ops.CompareAndSwap(o, o/2) {
			for {
				cur := pc.aborts.Load()
				if pc.aborts.CompareAndSwap(cur, cur/2) {
					break
				}
			}
		}
	}
}
