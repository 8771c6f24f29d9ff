package bench

import (
	"tufast/internal/graph/gen"
	"tufast/internal/obs"
)

// LowSkew is an extension experiment beyond the paper: the paper scopes
// itself to power-law graphs ("road networks ... are not the main focus",
// §III) — this measures what happens without skew. On a 4-regular grid
// every transaction fits H mode, the O and L machinery never engages, and
// TuFast degrades gracefully to a plain HTM scheduler; the interesting
// check is that the routing layer adds no measurable overhead when it has
// nothing to do.
func LowSkew(o Options) []Table {
	o = o.normalize()
	side := 160
	if o.Short {
		side = 64
	}
	g := gen.Grid(side, side)
	n := g.NumVertices()
	txns := 40_000
	if o.Short {
		txns = 6_000
	}

	t := &Table{
		ID:     "lowskew",
		Title:  "Extension: road-like grid (no skew) — throughput and mode mix",
		Header: []string{"workload", "TuFast_txn/s", "2PL_txn/s", "OCC_txn/s", "H_share"},
		Notes: []string{
			"expected: all transactions in H mode; TuFast ~= plain HTM, still ahead of lock/validate baselines",
		},
	}
	for _, kind := range []Workload{RM, RW} {
		row := []any{kind.String()}
		var hShare float64
		for _, id := range []string{"tufast", "2pl", "occ"} {
			sp, base := newWorkloadSpace(n)
			s := newScheduler(id, sp, n)
			row = append(row, runWorkload(g, sp, s, kind, base, txns, o.Threads, 0))
			if id == "tufast" {
				snap := s.Metrics().Snapshot()
				if total := snap.Totals().Commits; total > 0 {
					hShare = float64(snap.Modes[obs.ModeH.String()].Commits) / float64(total)
				}
			}
		}
		row = append(row, hShare)
		t.AddRow(row...)
	}
	return []Table{*t}
}
