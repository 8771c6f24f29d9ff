package bench

import (
	"testing"
	"time"

	"tufast/internal/core"
	"tufast/internal/graph/gen"
)

// TestProbeRWBreakdown dissects the RW cell: where do TuFast's cycles go
// under write-heavy contention?
func TestProbeRWBreakdown(t *testing.T) {
	ds, _ := gen.DatasetByName("twitter-mpi")
	g := ds.Generate(0.0625)
	n := g.NumVertices()
	t.Logf("|V|=%d |E|=%d maxdeg=%d", n, g.NumEdges(), g.MaxDegree())

	sp, base := newWorkloadSpace(n)
	tf := newTuFast(sp, n, core.Config{})
	start := time.Now()
	tput := runWorkload(g, sp, tf, RW, base, 6000, 8, 0)
	t.Logf("TuFast RW: %.0f txn/s in %v", tput, time.Since(start).Round(time.Millisecond))
	logBreakdown(t, tf)
	t.Logf("period=%d", tf.CurrentPeriod())
}
