package main

import (
	"fmt"
	"math"
	"testing"

	"tufast"
	"tufast/internal/algo"
)

// TestPageRankMatchesPowerIteration holds the example's ranks to a
// sequential power iteration on a small power-law graph, within the
// tolerance the comparison engines are held to.
func TestPageRankMatchesPowerIteration(t *testing.T) {
	g := tufast.GeneratePowerLaw(3000, 30000, 2.1, 11)
	want := algo.SeqPageRank(g.CSR(), damping, eps)
	for _, threads := range []int{2, 8} {
		t.Run(fmt.Sprintf("t%d", threads), func(t *testing.T) {
			ranks, err := pageRank(tufast.NewSystem(g, tufast.Options{Threads: threads}), g)
			if err != nil {
				t.Fatal(err)
			}
			var l1 float64
			for v := range want {
				l1 += math.Abs(ranks[v] - want[v])
			}
			if l1 /= float64(len(want)); l1 > 1e-4 {
				t.Fatalf("mean L1 deviation %g from the power iteration", l1)
			}
		})
	}
}
