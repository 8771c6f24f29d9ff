// Package simcost restores the relative cost structure that software
// emulation of hardware transactional memory flattens.
//
// On real hardware, an operation inside an HTM transaction costs the same
// as a plain load/store (~1-4 cycles: conflict detection rides the cache
// coherence protocol for free), while a software concurrency-control
// barrier — an STM read/write wrapper, a 2PL lock acquisition, a
// timestamp-ordering metadata update — costs tens to hundreds of cycles.
// Our emulated HTM necessarily implements its "free" conflict detection
// in software, so without correction an emulated-HTM operation costs as
// much as an STM barrier and the paper's headline ordering (HTM-based
// schedulers beat software-only ones, Fig. 13/14) inverts.
//
// The correction: every scheduler whose per-operation barrier would be
// software on real hardware (2PL, OCC, TO, TinySTM, and the fallback
// paths of the hybrids) charges Tax() once per operation — a busy spin
// calibrated to roughly one emulated-HTM operation (~100ns). After the
// tax, a software barrier costs about twice an emulated-HTM operation;
// on real hardware the ratio is 10-50x, so this is a conservative
// compression that preserves ordering without manufacturing the paper's
// absolute speedups.
//
// The tax belongs to the reproduction, not to the library: nothing under
// internal/sched, internal/baselines or internal/core imports this
// package. internal/bench and cmd/tufast's -system comparison inject Tax
// into every baseline (the sched.Taxed each embeds) and into TuFast's L
// mode (core.Config.Tax), and
// the comparison engines under internal/engines call it directly; a
// scheduler built without the hook — tufast.NewSystem, tufastd,
// benchmark/ — runs at raw emulation cost and never links the spin
// (scripts/check.sh asserts it for the serving binaries).
package simcost

// taxIterations is sized to ~100ns of dependent ALU work on current
// hardware — about the cost of one emulated-HTM read (two map probes and
// three atomic loads).
const taxIterations = 64

//go:noinline
func spin(n int) uint64 {
	x := uint64(n) | 1
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return x
}

// Tax charges one software-barrier penalty.
func Tax() { spin(taxIterations) }
