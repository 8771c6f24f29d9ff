package main

import (
	"fmt"
	"testing"

	"tufast"
	"tufast/internal/algo"
)

// TestQuickstartMatching checks the example's matching (symmetric, along
// edges, maximal) at 2 and 8 threads, and that its mode breakdown
// accounts for every vertex's transaction exactly once.
func TestQuickstartMatching(t *testing.T) {
	g := tufast.GeneratePowerLaw(4000, 40000, 2.1, 42).Undirect()
	for _, threads := range []int{2, 8} {
		t.Run(fmt.Sprintf("t%d", threads), func(t *testing.T) {
			match, st, err := matching(g, threads)
			if err != nil {
				t.Fatal(err)
			}
			if err := algo.VerifyMatching(g.CSR(), match); err != nil {
				t.Fatal(err)
			}
			var committed uint64
			for _, class := range modeClasses {
				committed += st.Mode[class].Transactions
			}
			if committed != uint64(g.NumVertices()) {
				t.Fatalf("mode classes sum to %d committed transactions, want |V| = %d (%+v)", committed, g.NumVertices(), st.Mode)
			}
		})
	}
}
