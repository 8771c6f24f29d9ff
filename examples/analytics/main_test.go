package main

import (
	"fmt"
	"slices"
	"testing"

	"tufast"
	"tufast/internal/algo"
)

// TestAnalyticsProfile holds the example's analyses to the sequential
// references at 2 and 8 threads: components match union-find, k-core
// matches peeling, the coloring is proper within maxdeg+1 colours, and
// no label-propagation community spans two components.
func TestAnalyticsProfile(t *testing.T) {
	g := tufast.GeneratePowerLaw(3000, 24000, 2.1, 23).Undirect()
	wantComp, wantCore := algo.SeqWCC(g.CSR()), algo.SeqKCore(g.CSR())
	for _, threads := range []int{2, 8} {
		t.Run(fmt.Sprintf("t%d", threads), func(t *testing.T) {
			p, err := analyze(tufast.NewSystem(g, tufast.Options{Threads: threads}))
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(p.comp, wantComp) {
				t.Error("components differ from union-find")
			}
			if !slices.Equal(p.core, wantCore) {
				t.Error("k-core numbers differ from sequential peeling")
			}
			if err := algo.VerifyColoring(g.CSR(), p.colors); err != nil {
				t.Error(err)
			}
			compOf := map[uint64]uint64{}
			for v, l := range p.labels {
				if c, seen := compOf[l]; !seen {
					compOf[l] = p.comp[v]
				} else if c != p.comp[v] {
					t.Fatalf("community %d spans components %d and %d", l, c, p.comp[v])
				}
			}
		})
	}
}
