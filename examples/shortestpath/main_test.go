package main

import (
	"fmt"
	"testing"

	"tufast"
	"tufast/internal/algo"
)

// TestRunSSSPMatchesDijkstra holds both queues' distances to Dijkstra's
// on a power-law graph. Its hubs' relaxations are past the lowered O-mode
// ceiling, so they run in L mode, on vertex locks taken in whatever order
// the neighbour list gives.
func TestRunSSSPMatchesDijkstra(t *testing.T) {
	g := tufast.GeneratePowerLaw(4000, 40000, 2.1, 7)
	const source = 0
	want := algo.SeqSSSP(g.CSR(), source)
	for _, threads := range []int{2, 8} {
		for _, kind := range []string{"fifo", "pq"} {
			t.Run(fmt.Sprintf("%s/t%d", kind, threads), func(t *testing.T) {
				sys := tufast.NewSystem(g, tufast.Options{Threads: threads, OMaxHint: 64})
				var q tufast.Source
				if kind == "fifo" {
					fq := sys.NewQueue()
					fq.Push(source)
					q = fq
				} else {
					pq := sys.NewPQ()
					pq.Push(source, 0)
					q = pq
				}
				dist, _ := runSSSP(sys, g, source, algo.MaxEdgeWeight, kind, q)
				for v := range want {
					if got := dist.Get(uint32(v)); got != want[v] {
						t.Fatalf("dist[%d] = %d, want %d", v, got, want[v])
					}
				}
				st := sys.StatsSnapshot()
				if st.Mode["L"].Transactions+st.Mode["O2L"].Transactions == 0 {
					t.Errorf("no relaxation ran in L mode: %+v", st.Mode)
				}
			})
		}
	}
}
