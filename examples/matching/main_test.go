package main

import (
	"fmt"
	"testing"

	"tufast"
	"tufast/internal/algo"
)

// TestMatchingsAreMaximal checks that both formulations return a
// matching (symmetric, along edges) that no edge can extend, the TM one
// at 2 and 8 threads.
func TestMatchingsAreMaximal(t *testing.T) {
	g := tufast.GeneratePowerLaw(4000, 40000, 2.1, 5).Undirect()
	for _, threads := range []int{2, 8} {
		t.Run(fmt.Sprintf("tm/t%d", threads), func(t *testing.T) {
			match, _, err := tmMatching(g, threads)
			if err != nil {
				t.Fatal(err)
			}
			if err := algo.VerifyMatching(g.CSR(), match); err != nil {
				t.Fatal(err)
			}
		})
	}
	t.Run("vertex-centric", func(t *testing.T) {
		match, _, _ := vertexCentricMatching(g)
		if err := algo.VerifyMatching(g.CSR(), match); err != nil {
			t.Fatal(err)
		}
	})
}
