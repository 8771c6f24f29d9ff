package core

// ModeClass is the paper's Figure 15 classification of a committed
// transaction by the path it took through the Fig. 10 routing.
type ModeClass int

const (
	// ClassH committed inside a single hardware transaction.
	ClassH ModeClass = iota
	// ClassO committed in O mode on its first O attempt.
	ClassO
	// ClassOPlus committed in O mode after at least one period
	// adjustment (the paper's "O+").
	ClassOPlus
	// ClassO2L entered O mode, exhausted it, and committed in L mode.
	ClassO2L
	// ClassL was routed directly to L mode by its size hint.
	ClassL
	numClasses
)

// String names the class as in Figure 15.
func (c ModeClass) String() string {
	switch c {
	case ClassH:
		return "H"
	case ClassO:
		return "O"
	case ClassOPlus:
		return "O+"
	case ClassO2L:
		return "O2L"
	case ClassL:
		return "L"
	default:
		return "?"
	}
}

// Classes lists all classes in display order.
func Classes() []ModeClass {
	return []ModeClass{ClassH, ClassO, ClassOPlus, ClassO2L, ClassL}
}

// ModeStats is the committed-transaction count and operation workload per
// class — the data behind Figure 15 (a/c: counts, b/d: workloads) — as
// System.ModeStats summed it over the workers.
type ModeStats struct {
	count [numClasses]uint64
	ops   [numClasses]uint64
}

// Count returns the committed-transaction count of class c.
func (m ModeStats) Count(c ModeClass) uint64 { return m.count[c] }

// Ops returns the total committed operations of class c.
func (m ModeStats) Ops(c ModeClass) uint64 { return m.ops[c] }
