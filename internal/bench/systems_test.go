package bench

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"tufast/internal/algo"
	"tufast/internal/graph/gen"
)

// TestEverySystemAgrees runs every application on every system of the
// table, over a small directed power-law graph and its undirected view,
// and holds each answer to the sequential reference: the figures' rows
// differ in how they schedule, never in what they compute.
func TestEverySystemAgrees(t *testing.T) {
	g := gen.PowerLaw(1_500, 12_000, 2.1, 7)
	gu := g.Symmetrized()
	const source = 0
	levels, labels, dist := algo.SeqBFS(g, source), algo.SeqWCC(gu), algo.SeqSSSP(g, source)
	ranks, triangles := algo.SeqPageRank(g, prDamping, prEps), algo.SeqTriangles(gu)
	check := func(app string, a Answer) error {
		switch app {
		case "pagerank":
			if len(a.Ranks) != len(ranks) {
				return fmt.Errorf("%d ranks, want %d", len(a.Ranks), len(ranks))
			}
			var l1 float64
			for v := range ranks {
				l1 += math.Abs(a.Ranks[v] - ranks[v])
			}
			if l1 /= float64(len(ranks)); l1 > 1e-4 {
				return fmt.Errorf("mean L1 deviation %g", l1)
			}
		case "bfs":
			if !slices.Equal(a.Levels, levels) {
				return fmt.Errorf("levels differ from SeqBFS")
			}
		case "wcc":
			return samePartition(a.Labels, labels)
		case "triangle":
			if a.Triangles != triangles {
				return fmt.Errorf("%d triangles, want %d", a.Triangles, triangles)
			}
		case "bellman-ford", "spfa":
			if !slices.Equal(a.Dist, dist) {
				return fmt.Errorf("distances differ from SeqSSSP")
			}
		case "mis":
			if len(a.InSet) != gu.NumVertices() {
				return fmt.Errorf("%d membership flags, want %d", len(a.InSet), gu.NumVertices())
			}
			return algo.VerifyMIS(gu, a.InSet)
		case "matching":
			if len(a.Match) != gu.NumVertices() {
				return fmt.Errorf("%d partners, want %d", len(a.Match), gu.NumVertices())
			}
			return algo.VerifyMatching(gu, a.Match)
		}
		return nil
	}
	for _, id := range SystemIDs() {
		t.Run(id, func(t *testing.T) {
			r, err := Open(id, g, gu, 4, 4)
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				if err := r.Close(); err != nil {
					t.Error(err)
				}
			}()
			for _, app := range Apps {
				run, err := r.Prepare(app, source)
				if r.sched == nil && app == "matching" {
					if err == nil {
						t.Errorf("%s: an engine prepared matching", app)
					}
					continue
				}
				if err != nil {
					t.Errorf("%s: %v", app, err)
					continue
				}
				a, err := run()
				if err != nil {
					t.Errorf("%s: %v", app, err)
					continue
				}
				if err := check(app, a); err != nil {
					t.Errorf("%s: %v", app, err)
				}
			}
		})
	}
	if _, err := Open("nope", g, gu, 4, 4); err == nil {
		t.Error("Open accepted an unknown id")
	}
}

// samePartition reports whether two labellings group the vertices alike.
func samePartition(got, want []uint64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d labels, want %d", len(got), len(want))
	}
	fwd, back := map[uint64]uint64{}, map[uint64]uint64{}
	for v := range want {
		if w, ok := fwd[got[v]]; ok && w != want[v] {
			return fmt.Errorf("vertex %d joins a component it is not in", v)
		}
		if g, ok := back[want[v]]; ok && g != got[v] {
			return fmt.Errorf("vertex %d splits its component", v)
		}
		fwd[got[v]], back[want[v]] = want[v], got[v]
	}
	return nil
}
