package core

import "math/bits"

// Learned routing, beside Fig. 10's size thresholds. Whether a footprint
// fits the emulated L1 depends on how its lines fall into the 64 cache
// sets, not on its size alone: on an R-MAT graph neighbour ids pile into
// a few sets and transactions hinted under 256 words overflow one, while
// a sequential footprint of 4096 words fits. No static HMaxHint captures
// that (512 instead of 4096 left PageRank's capacity aborts at 52.7k of
// 57.0k), so each worker keeps, per size class bits.Len(sizeHint), what
// happened to the ladder steps it took — the low-overhead per-phase
// statistics DyAdHyTM uses to pick a hybrid-TM policy, applied to
// routing. A class whose H attempts mostly end in capacity aborts starts
// in O; one whose O entries mostly fall through to L goes straight to L.
//
// The counts are per worker, not per System: they are plain integers
// updated once per ladder step (never per operation), the all-H fast path
// writes no shared cache line for them, and a pooled worker keeps what it
// learnt. The price is that each worker needs its own routeMinSamples
// failures per class before it skips, which is noise beside a sweep.
const (
	// routeMinSamples is the evidence below which a class is never
	// rerouted.
	routeMinSamples = 32
	// routeWindow is the sample count at which a pair of counts halves,
	// so the estimate follows the recent workload (as periodController's
	// window does).
	routeWindow = 1024
	// routeProbeEvery makes a skipping class run the whole ladder once
	// per this many transactions, so a phase change is re-learnt.
	routeProbeEvery = 32

	numSizeClasses = 32
)

// classStats is one size class's decayed ladder outcomes on one worker.
type classStats struct {
	hTries, hCapacity uint32 // H steps taken; those ended by a capacity abort
	oTries, oFalls    uint32 // O steps taken; those that fell through to L
	skipping          uint32 // transactions routed while the class skips a mode (probe clock)
}

func sizeClass(sizeHint int) int {
	return min(bits.Len(uint(sizeHint)), numSizeClasses-1)
}

func mostlyFails(fails, tries uint32) bool {
	return tries >= routeMinSamples && 2*fails > tries
}

// plan decides which rungs of the ladder the next transaction of this
// class skips.
func (c *classStats) plan() (skipH, skipO bool) {
	skipH = mostlyFails(c.hCapacity, c.hTries)
	skipO = mostlyFails(c.oFalls, c.oTries)
	if skipH || skipO {
		c.skipping++
		if c.skipping%routeProbeEvery == 0 {
			return false, false
		}
	}
	return skipH, skipO
}

func (c *classStats) noteH(capacityAbort bool) { note(&c.hTries, &c.hCapacity, capacityAbort) }

func (c *classStats) noteO(fellToL bool) { note(&c.oTries, &c.oFalls, fellToL) }

func note(tries, fails *uint32, failed bool) {
	*tries++
	if failed {
		*fails++
	}
	if *tries >= routeWindow {
		*tries /= 2
		*fails /= 2
	}
}
