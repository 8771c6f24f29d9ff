// Shortestpath: the paper's Figure 3 — Bellman-Ford and SPFA are the
// same transactional relaxation; switching algorithms is literally
// switching the queue (FIFO vs priority). The example runs both and
// shows the priority queue doing less work.
//
// Run: go run ./examples/shortestpath
package main

import (
	"fmt"
	"log"
	"time"

	"tufast"
)

func main() {
	g := tufast.GeneratePowerLaw(80_000, 1_200_000, 2.1, 7)
	sys := tufast.NewSystem(g, tufast.Options{})
	const source, maxW = 0, 100

	fifo := sys.NewQueue()
	fifo.Push(source)
	_, relaxations := runSSSP(sys, g, source, maxW, "bellman-ford (FIFO queue)", fifo)
	pq := sys.NewPQ()
	pq.Push(source, 0)
	_, relaxationsPQ := runSSSP(sys, g, source, maxW, "spfa (priority queue)", pq)
	fmt.Printf("\npriority scheduling saved %.1f%% of the relaxation transactions\n",
		100*(1-float64(relaxationsPQ)/float64(relaxations)))
}

// runSSSP drains q, which holds only source, relaxing out of each polled
// vertex; the queue kind is the only difference between the algorithms.
// It returns the distances and the relaxation transactions committed.
func runSSSP(sys *tufast.System, g *tufast.Graph, source uint32, maxW uint32, name string, q tufast.Source) (tufast.VertexArray, uint64) {
	dist := sys.NewVertexArray(tufast.None)
	dist.Set(source, 0)

	// Count relaxation transactions from the scheduler's commit counter:
	// an in-transaction counter would tick once per retried attempt, not
	// once per committed relaxation (tufastcheck's retryunsafe rule).
	before := sys.StatsSnapshot().Commits
	start := time.Now()
	// Figure 3: while Q not empty: v = poll(Q); BEGIN(degree[v]);
	// relax all neighbors and wake them; COMMIT. The wakeups reach Q
	// once the relaxations they announce have committed.
	err := sys.ForEachQueued(q, func(tx tufast.Tx, v uint32, emit func(uint32, uint64)) error {
		dv := tx.Read(v, dist.Addr(v))
		if dv == tufast.None {
			return nil
		}
		for _, u := range g.Neighbors(v) {
			w := uint64(tufast.EdgeWeight(v, u, maxW))
			if du := tx.Read(u, dist.Addr(u)); dv+w < du {
				tx.Write(u, dist.Addr(u), dv+w)
				emit(u, dv+w)
			}
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}

	relaxed := sys.StatsSnapshot().Commits - before
	reached := 0
	for v := uint32(0); int(v) < g.NumVertices(); v++ {
		if dist.Get(v) != tufast.None {
			reached++
		}
	}
	fmt.Printf("%-28s reached %6d vertices with %8d relaxation txns in %v\n",
		name, reached, relaxed, time.Since(start).Round(time.Millisecond))
	return dist, relaxed
}
