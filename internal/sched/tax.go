package sched

// Taxed carries the paper reproduction's cost model into a scheduler
// without this package (or anything that links it) depending on it.
// Every scheduler whose per-operation barrier would be software on real
// hardware — TPL, and the baselines' OCC, TO, STM and hybrid software
// paths — embeds Taxed and charges the hook once per Read and Write. The
// hook is nil unless the reproduction installs one (internal/bench and
// cmd/tufast's -system comparison inject simcost.Tax), so the library,
// tufastd and benchmark/ pay a nil check per operation and nothing else.
type Taxed struct {
	tax func()
}

// SetTax installs the per-operation software-barrier charge (nil removes
// it). Call it before the scheduler's first transaction runs.
func (t *Taxed) SetTax(tax func()) { t.tax = tax }

// Charge runs the hook, if one is installed: one software barrier's cost.
func (t *Taxed) Charge() {
	if t.tax != nil {
		t.tax()
	}
}
