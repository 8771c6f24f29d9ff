// Quickstart: parallel greedy maximal matching — the paper's Figure 1
// example, written against the public tufast API.
//
// The transaction body is the sequential greedy algorithm verbatim; the
// library makes the concurrent execution serializable, so the matching
// invariants (symmetry, edges only, maximality) hold without any manual
// synchronization.
//
// Run: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"tufast"
)

func main() {
	// A power-law social-network-like graph: 50k users, ~600k edges.
	g := tufast.GeneratePowerLaw(50_000, 600_000, 2.1, 42).Undirect()
	match, st, err := matching(g, 0)
	if err != nil {
		log.Fatal(err)
	}

	pairs := 0
	for v, m := range match {
		if m != tufast.None && uint64(v) < m {
			pairs++
		}
	}
	fmt.Printf("matched %d pairs on |V|=%d |E|=%d\n", pairs, g.NumVertices(), g.NumEdges())
	fmt.Printf("transactions: %d committed, %d retried aborts\n", st.Commits, st.Aborts)
	fmt.Printf("mode breakdown (the three-mode hybrid at work):\n")
	for _, class := range modeClasses {
		b := st.Mode[class]
		fmt.Printf("  %-3s %8d txns %10d ops\n", class, b.Transactions, b.Operations)
	}
}

// modeClasses are the classes a TuFast transaction commits in (Fig. 15).
var modeClasses = []string{"H", "O", "O+", "O2L", "L"}

// matching runs Figure 1 over g on the given number of threads (0:
// GOMAXPROCS). It returns each vertex's partner (tufast.None if
// unmatched) and the System's counters after the run.
func matching(g *tufast.Graph, threads int) ([]uint64, tufast.Stats, error) {
	sys := tufast.NewSystem(g, tufast.Options{Threads: threads})
	match := sys.NewVertexArray(tufast.None)

	// parallel_for v: all vertices ... BEGIN(degree[v]) (Figure 1).
	err := sys.ForEachVertex(func(tx tufast.Tx, v uint32) error {
		if tx.Read(v, match.Addr(v)) != tufast.None {
			return nil // already matched
		}
		for _, u := range g.Neighbors(v) {
			if u == v {
				continue
			}
			if tx.Read(u, match.Addr(u)) == tufast.None {
				tx.Write(v, match.Addr(v), uint64(u))
				tx.Write(u, match.Addr(u), uint64(v))
				break
			}
		}
		return nil
	})
	out := make([]uint64, g.NumVertices())
	for v := range out {
		out[v] = match.Get(uint32(v))
	}
	return out, sys.StatsSnapshot(), err
}
