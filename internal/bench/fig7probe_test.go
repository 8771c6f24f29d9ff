package bench

import (
	"testing"
	"time"

	"tufast/internal/graph/gen"
)

func TestProbeFig7Cells(t *testing.T) {
	n := 2500
	g := gen.Uniform(n, 8, 0x717)
	for _, name := range fig7Cols {
		for _, c := range []float64{0, 1.0} {
			sp, base := newWorkloadSpace(n)
			s := newScheduler(name, sp, n)
			start := time.Now()
			tput := runWorkload(g, sp, s, RM, base, 2000, 8, c)
			st := s.Metrics().Snapshot().Totals()
			t.Logf("%s c=%.1f: %.0f txn/s (%v) aborts=%d deadlocks=%d", name, c, tput,
				time.Since(start).Round(time.Millisecond), st.Aborts, st.Deadlocks)
		}
	}
}
