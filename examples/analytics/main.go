// Analytics: profile a social-network-like graph with the ready-made
// algorithm suite — connected components, k-core decomposition,
// label-propagation communities, clustering coefficients, and a greedy
// coloring — each one line over the same System.
//
// Run: go run ./examples/analytics
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"sort"
	"time"

	"tufast"
	"tufast/algorithms"
)

func main() {
	metrics := flag.Bool("metrics", false, "dump the observability snapshot as JSON after the run")
	flag.Parse()

	g := tufast.GeneratePowerLaw(25_000, 400_000, 2.1, 23).Undirect()
	sys := tufast.NewSystem(g, tufast.Options{})
	fmt.Printf("graph: |V|=%d |E|=%d maxdeg=%d\n\n", g.NumVertices(), g.NumEdges(), g.MaxDegree())

	p, err := analyze(sys)
	if err != nil {
		log.Fatal(err)
	}
	row := func(name, summary string, took time.Duration) {
		fmt.Printf("%-24s %-40s %8v\n", name, summary, took.Round(time.Millisecond))
	}

	sizes := classSizes(p.comp)
	row("components", fmt.Sprintf("%d components, largest %d", len(sizes), sizes[0]), p.took[0])

	var degeneracy uint64
	for _, c := range p.core {
		degeneracy = max(degeneracy, c)
	}
	inMax := 0
	for _, c := range p.core {
		if c == degeneracy {
			inMax++
		}
	}
	row("k-core", fmt.Sprintf("degeneracy %d (%d vertices in the %d-core)", degeneracy, inMax, degeneracy), p.took[1])

	top := classSizes(p.labels)
	row("communities", fmt.Sprintf("%d communities, top sizes %v", len(top), top[:min(3, len(top))]), p.took[2])

	var sum float64
	for _, c := range p.clustering {
		sum += c
	}
	row("clustering", fmt.Sprintf("mean local coefficient %.4f", sum/float64(len(p.clustering))), p.took[3])

	row("coloring", fmt.Sprintf("proper coloring with %d colors (maxdeg+1 = %d)",
		len(classSizes(p.colors)), g.MaxDegree()+1), p.took[4])

	st := sys.StatsSnapshot()
	fmt.Printf("\nall five analyses: %d serializable transactions, %d retried aborts\n",
		st.Commits, st.Aborts)

	if *metrics {
		buf, err := json.MarshalIndent(sys.MetricsSnapshot(), "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nmetrics:\n%s\n", buf)
	}
}

// profile is what the five analyses found, and how long each took.
type profile struct {
	comp, core, labels, colors []uint64
	clustering                 []float64
	took                       [5]time.Duration
}

// analyze runs the five analyses over sys, in the order profile lists
// their times: components, k-core, communities, clustering, coloring.
func analyze(sys *tufast.System) (*profile, error) {
	var p profile
	steps := []func() error{
		func() (err error) { p.comp, err = algorithms.ConnectedComponents(sys); return },
		func() (err error) { p.core, err = algorithms.KCore(sys); return },
		func() (err error) { p.labels, err = algorithms.LabelPropagation(sys, 8); return },
		func() (err error) { p.clustering, err = algorithms.ClusteringCoefficients(sys); return },
		func() (err error) { p.colors, err = algorithms.GreedyColoring(sys); return },
	}
	for i, step := range steps {
		start := time.Now()
		if err := step(); err != nil {
			return nil, err
		}
		p.took[i] = time.Since(start)
	}
	return &p, nil
}

// classSizes returns how many vertices share each distinct value of
// class, largest first.
func classSizes(class []uint64) []int {
	count := map[uint64]int{}
	for _, c := range class {
		count[c]++
	}
	sizes := make([]int, 0, len(count))
	for _, n := range count {
		sizes = append(sizes, n)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(sizes)))
	return sizes
}
