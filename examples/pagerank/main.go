// Pagerank: asynchronous residual PageRank with in-place updates — the
// workload where the paper's in-place-update argument shows (workers
// always read the freshest residuals instead of waiting for a BSP
// superstep). The example also prints the adaptive-period trace from
// §IV-D.
//
// Run: go run ./examples/pagerank
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"time"

	"tufast"
)

const (
	damping = 0.85
	eps     = 1e-6
)

func main() {
	metrics := flag.Bool("metrics", false, "dump the observability snapshot as JSON after the run")
	flag.Parse()

	g := tufast.GeneratePowerLaw(30_000, 600_000, 2.1, 11)
	sys := tufast.NewSystem(g, tufast.Options{})

	// Watch the adaptive O-mode period while the job runs.
	start := time.Now()
	done := make(chan struct{})
	go func() {
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				st := sys.StatsSnapshot()
				fmt.Printf("  t+%4dms: %8d commits, adaptive period = %d\n",
					time.Since(start).Milliseconds(), st.Commits, st.CurrentPeriod)
			}
		}
	}()

	ranks, err := pageRank(sys, g)
	close(done)
	if err != nil {
		log.Fatal(err)
	}

	// Report the top-ranked vertices.
	type vr struct {
		v uint32
		r float64
	}
	top := make([]vr, 0, 5)
	for v := uint32(0); int(v) < g.NumVertices(); v++ {
		r := ranks[v]
		for i := 0; i <= len(top); i++ {
			if i == len(top) {
				if len(top) < 5 {
					top = append(top, vr{v, r})
				}
				break
			}
			if r > top[i].r {
				top = append(top[:i], append([]vr{{v, r}}, top[i:]...)...)
				if len(top) > 5 {
					top = top[:5]
				}
				break
			}
		}
	}
	// Count committed vertex transactions from the scheduler stats: an
	// in-transaction counter would tick once per retried attempt, not
	// once per commit (tufastcheck's retryunsafe rule).
	fmt.Printf("\nconverged after %d vertex transactions in %v\n",
		sys.StatsSnapshot().Commits, time.Since(start).Round(time.Millisecond))
	fmt.Println("top ranked vertices (degree in parentheses):")
	for _, t := range top {
		fmt.Printf("  v%-8d rank %.4f (degree %d)\n", t.v, t.r, g.Degree(t.v))
	}

	if *metrics {
		buf, err := json.MarshalIndent(sys.MetricsSnapshot(), "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nmetrics:\n%s\n", buf)
	}
}

// pageRank runs the residual push on sys, over g, to eps and returns the
// ranks.
func pageRank(sys *tufast.System, g *tufast.Graph) ([]float64, error) {
	rank := sys.NewVertexArray(0)
	resid := sys.NewVertexArray(0)
	for v := uint32(0); int(v) < g.NumVertices(); v++ {
		rank.SetFloat(v, 1-damping)
	}
	// Seed each vertex's residual with the first push round.
	for v := uint32(0); int(v) < g.NumVertices(); v++ {
		if d := g.Degree(v); d > 0 {
			share := damping * (1 - damping) / float64(d)
			for _, u := range g.Neighbors(v) {
				resid.SetFloat(u, resid.GetFloat(u)+share)
			}
		}
	}

	q := sys.NewQueue()
	for v := uint32(0); int(v) < g.NumVertices(); v++ {
		if resid.GetFloat(v) > eps {
			q.Push(v)
		}
	}

	err := sys.ForEachQueued(q, func(tx tufast.Tx, v uint32, emit func(uint32, uint64)) error {
		rv := tx.ReadFloat(v, resid.Addr(v))
		if rv <= eps {
			return nil
		}
		tx.WriteFloat(v, resid.Addr(v), 0)
		tx.WriteFloat(v, rank.Addr(v), tx.ReadFloat(v, rank.Addr(v))+rv)
		if d := g.Degree(v); d > 0 {
			share := damping * rv / float64(d)
			for _, u := range g.Neighbors(v) {
				ru := tx.ReadFloat(u, resid.Addr(u))
				tx.WriteFloat(u, resid.Addr(u), ru+share)
				if ru <= eps && ru+share > eps {
					emit(u, 0)
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	ranks := make([]float64, g.NumVertices())
	for v := range ranks {
		ranks[v] = rank.GetFloat(uint32(v))
	}
	return ranks, nil
}
