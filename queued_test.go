package tufast_test

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"tufast"
	"tufast/internal/algo"
)

// TestForEachQueuedWakesAfterCommit forces the schedule an eager push
// loses: vertex 0's first attempt writes x[1], wakes vertex 1 and then
// stalls, so a woken vertex 1 could run while that write is still
// private. Every transaction of vertex 1 must read the write.
func TestForEachQueuedWakesAfterCommit(t *testing.T) {
	g := tufast.GenerateUniform(64, 4, 1)
	for run := 0; run < 5; run++ {
		s := tufast.NewSystem(g, tufast.Options{Threads: 2})
		x := s.NewVertexArray(0)
		q := s.NewQueue()
		q.Push(0)
		var stalled, sawZero atomic.Bool
		err := s.ForEachQueued(q, func(tx tufast.Tx, v uint32, emit func(uint32, uint64)) error {
			switch v {
			case 0:
				tx.Write(1, x.Addr(1), 1)
				emit(1, 0)
				if stalled.CompareAndSwap(false, true) {
					time.Sleep(50 * time.Millisecond)
				}
			case 1:
				if tx.Read(1, x.Addr(1)) == 0 {
					sawZero.Store(true)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if sawZero.Load() {
			t.Fatalf("run %d: vertex 1 ran before the write that woke it committed", run)
		}
	}
}

// TestForEachQueuedSSSPMatchesDijkstra runs the Figure 3 relaxation body
// (relax, then wake the neighbour) through the public driver with both
// queues at 2 and 8 threads, twenty times each (twice under -short, which
// the race-detector stage runs), and holds every run to Dijkstra.
func TestForEachQueuedSSSPMatchesDijkstra(t *testing.T) {
	g := tufast.GenerateRMAT(13, 8, 3).Undirect()
	const source = 0
	want := algo.SeqSSSP(g.CSR(), source)
	runs := 20
	if testing.Short() {
		runs = 2
	}
	for _, threads := range []int{2, 8} {
		for _, kind := range []string{"fifo", "pq"} {
			t.Run(fmt.Sprintf("%s/t%d", kind, threads), func(t *testing.T) {
				for run := 0; run < runs; run++ {
					s := tufast.NewSystem(g, tufast.Options{Threads: threads})
					dist := s.NewVertexArray(tufast.None)
					dist.Set(source, 0)
					var q tufast.Source
					if kind == "fifo" {
						fq := s.NewQueue()
						fq.Push(source)
						q = fq
					} else {
						pq := s.NewPQ()
						pq.Push(source, 0)
						q = pq
					}
					err := s.ForEachQueued(q, func(tx tufast.Tx, v uint32, emit func(uint32, uint64)) error {
						dv := tx.Read(v, dist.Addr(v))
						if dv == tufast.None {
							return nil
						}
						for _, u := range g.Neighbors(v) {
							w := uint64(tufast.EdgeWeight(v, u, algo.MaxEdgeWeight))
							if du := tx.Read(u, dist.Addr(u)); dv+w < du {
								tx.Write(u, dist.Addr(u), dv+w)
								emit(u, dv+w)
							}
						}
						return nil
					})
					if err != nil {
						t.Fatal(err)
					}
					for v := range want {
						if got := dist.Get(uint32(v)); got != want[v] {
							t.Fatalf("run %d: dist[%d] = %d, want %d", run, v, got, want[v])
						}
					}
				}
			})
		}
	}
}
