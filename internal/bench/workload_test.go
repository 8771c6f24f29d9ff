package bench

import (
	"testing"
	"time"

	"tufast/internal/core"
	"tufast/internal/graph/gen"
)

// TestWorkloadPerScheduler times the RM/RW micro-workload on every
// §VI-B scheduler at a small scale, guarding against pathological
// slowdowns (each cell must finish well under the deadline).
func TestWorkloadPerScheduler(t *testing.T) {
	ds, _ := gen.DatasetByName("twitter-mpi")
	g := ds.Generate(0.05)
	n := g.NumVertices()
	t.Logf("graph |V|=%d |E|=%d maxdeg=%d", n, g.NumEdges(), g.MaxDegree())
	const txns = 30000
	for _, kind := range []Workload{RM, RW} {
		for _, s := range throughputCols {
			sp, base := newWorkloadSpace(n)
			sc := newScheduler(s.id, sp, n)
			start := time.Now()
			tput := runWorkload(g, sp, sc, kind, base, txns, 4, 0)
			el := time.Since(start)
			t.Logf("%s %-7s %12.0f txn/s (%v)", kind, s.label, tput, el.Round(time.Millisecond))
			if el > 2*time.Minute {
				t.Errorf("%s %s pathologically slow: %v", kind, s.label, el)
			}
		}
	}
}

// TestReproductionInjectsTax: the figures' TuFast carries the cost model
// in its L mode (the library's does not; see the root package's
// TestLibraryCarriesNoTax), on every path that builds one.
func TestReproductionInjectsTax(t *testing.T) {
	sp, _ := newWorkloadSpace(64)
	if newScheduler("tufast", sp, 64).(*core.System).Config().Tax == nil {
		t.Error("the table's TuFast has no tax")
	}
	if newTuFast(sp, 64, core.Config{HMaxHint: 64, OMaxHint: 256}).Config().Tax == nil {
		t.Error("newTuFast dropped the tax")
	}
}
