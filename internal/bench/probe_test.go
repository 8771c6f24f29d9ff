package bench

import (
	"testing"
	"time"

	"tufast/internal/core"
	"tufast/internal/graph/gen"
)

// TestProbeTuFastRM is a minimal canary: a small RM workload on TuFast
// must finish fast. It exists to catch pathological slowdowns in the
// routing/locking machinery early.
func TestProbeTuFastRM(t *testing.T) {
	ds, _ := gen.DatasetByName("twitter-mpi")
	g := ds.Generate(0.05)
	n := g.NumVertices()
	t.Logf("|V|=%d |E|=%d maxdeg=%d", n, g.NumEdges(), g.MaxDegree())
	sp, base := newWorkloadSpace(n)
	tf := newTuFast(sp, n, core.Config{})
	start := time.Now()
	tput := runWorkload(g, sp, tf, RM, base, 20000, 4)
	t.Logf("500 txns in %v (%.0f txn/s)", time.Since(start), tput)
	st := tf.Stats()
	hs := tf.HTMStats()
	t.Logf("commits=%d aborts=%d htm{starts=%d commits=%d confl=%d cap=%d expl=%d lock=%d}",
		st.Commits, st.Aborts, hs.Starts, hs.Commits, hs.AbortConflicts, hs.AbortCapacity,
		hs.AbortExplicit, hs.AbortLocked)
	ms := tf.ModeStats()
	for _, c := range core.Classes() {
		t.Logf("  %-3s %6d txns %8d ops", c, ms.Count(c), ms.Ops(c))
	}
	if time.Since(start) > 30*time.Second {
		t.Fatal("pathologically slow")
	}
}
