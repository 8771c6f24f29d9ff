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
	tput := runWorkload(g, sp, tf, RW, base, 6000, 8)
	t.Logf("TuFast RW: %.0f txn/s in %v", tput, time.Since(start).Round(time.Millisecond))
	st := tf.Stats()
	hs := tf.HTMStats()
	t.Logf("commits=%d aborts=%d; htm starts=%d commits=%d confl=%d cap=%d expl=%d lock=%d",
		st.Commits, st.Aborts, hs.Starts, hs.Commits, hs.AbortConflicts, hs.AbortCapacity,
		hs.AbortExplicit, hs.AbortLocked)
	t.Logf("L-mode deadlocks=%d", tf.Deadlocks())
	for _, c := range core.Classes() {
		t.Logf("  %-3s %6d txns %8d ops", c, tf.ModeStats().Count(c), tf.ModeStats().Ops(c))
	}
	t.Logf("period=%d", tf.CurrentPeriod())
}
