package bench

import (
	"testing"
	"time"

	"tufast/internal/core"
	"tufast/internal/graph/gen"
	"tufast/internal/obs"
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
	logBreakdown(t, tf)
	if time.Since(start) > 30*time.Second {
		t.Fatal("pathologically slow")
	}
}

// logBreakdown logs where a TuFast run's transactions went, from one
// metrics snapshot: totals, emulated-HTM counts and the Figure 15 classes.
func logBreakdown(t *testing.T, tf *core.System) {
	t.Helper()
	snap := tf.Metrics().Snapshot()
	st, hs := snap.Totals(), snap.HTM
	t.Logf("commits=%d aborts=%d deadlocks=%d; htm starts=%d commits=%d aborts=%v",
		st.Commits, st.Aborts, st.Deadlocks, hs.Starts, hs.Commits, hs.Aborts)
	for c := obs.ModeH; c <= obs.ModeL; c++ {
		m := snap.Modes[c.String()]
		t.Logf("  %-3s %6d txns %8d ops", c, m.Commits, m.Reads+m.Writes)
	}
}
