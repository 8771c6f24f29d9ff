package bench

import (
	"testing"
	"time"

	"tufast/internal/graph/gen"
	"tufast/internal/sched"
	"tufast/internal/vlock"
)

// TestProbeHTORW is a canary for the timestamp-ordering livelock under
// write-heavy power-law contention (4 workers on 1 core is the worst
// case: every hub write invalidates every concurrent reader).
func TestProbeHTORW(t *testing.T) {
	ds, _ := gen.DatasetByName("twitter-mpi")
	g := ds.Generate(0.02)
	n := g.NumVertices()
	sp, base := newWorkloadSpace(n)
	s := taxed(sched.NewHTO(sp, vlock.NewTable(n), n, 1000))
	start := time.Now()
	tput := runWorkload(g, sp, s, RW, base, 2000, 4)
	el := time.Since(start)
	st := s.Metrics().Snapshot().Totals()
	t.Logf("2000 RW txns in %v (%.0f txn/s), commits=%d aborts=%d",
		el, tput, st.Commits, st.Aborts)
	if el > 60*time.Second {
		t.Fatalf("H-TO RW pathologically slow: %v", el)
	}
}
