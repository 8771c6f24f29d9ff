package tufast_test

import (
	"fmt"
	"slices"

	"tufast"
	"tufast/algorithms"
)

// The README's Quickstart: parallel greedy maximal matching, the paper's
// Figure 1. The body is the sequential algorithm; the System makes the
// concurrent sweep serializable, so every match is mutual, lies on an
// edge, and leaves no edge with both ends unmatched. Which vertices match,
// and in which modes the transactions commit, vary from run to run.
func ExampleSystem_ForEachVertex() {
	g := tufast.GeneratePowerLaw(2_000, 16_000, 2.1, 42).Undirect()
	sys := tufast.NewSystem(g, tufast.Options{})

	match := sys.NewVertexArray(tufast.None)
	err := sys.ForEachVertex(func(tx tufast.Tx, v uint32) error {
		if tx.Read(v, match.Addr(v)) != tufast.None {
			return nil
		}
		for _, u := range g.Neighbors(v) {
			if tx.Read(u, match.Addr(u)) == tufast.None {
				tx.Write(v, match.Addr(v), uint64(u))
				tx.Write(u, match.Addr(u), uint64(v))
				break
			}
		}
		return nil
	})

	valid, maximal := true, true
	for v := uint32(0); int(v) < g.NumVertices(); v++ {
		m := match.Get(v)
		if m == tufast.None {
			for _, u := range g.Neighbors(v) {
				if u != v && match.Get(u) == tufast.None {
					maximal = false
				}
			}
			continue
		}
		if match.Get(uint32(m)) != uint64(v) || !slices.Contains(g.Neighbors(v), uint32(m)) {
			valid = false
		}
	}
	fmt.Println("error:", err)
	fmt.Println("valid:", valid)
	fmt.Println("maximal:", maximal)
	// Output:
	// error: <nil>
	// valid: true
	// maximal: true
}

// The README's ad-hoc transaction: Atomic runs one read-modify-write of a
// vertex's word as a transaction of its own.
func ExampleSystem_Atomic() {
	sys := tufast.NewSystem(tufast.GenerateUniform(16, 2, 1), tufast.Options{})
	arr := sys.NewVertexArray(0)

	const v = 3
	for range 5 {
		err := sys.Atomic(1, func(tx tufast.Tx) error {
			x := tx.Read(v, arr.Addr(v))
			tx.Write(v, arr.Addr(v), x+1)
			return nil // nil commits; an error aborts and is returned
		})
		if err != nil {
			fmt.Println(err)
		}
	}
	fmt.Println(arr.Get(v))
	// Output: 5
}

// The README's queued driver (Figure 3): one SSSP body drained from a FIFO
// Queue (Bellman-Ford) and from a PQ (SPFA). The body wakes a neighbour
// through emit, never by pushing into the queue, so every wakeup has a
// committed write behind it. Both queues reach the same exact distances.
func ExampleSystem_ForEachQueued() {
	g := tufast.GenerateGrid(20, 20)
	sys := tufast.NewSystem(g, tufast.Options{})

	sssp := func(q tufast.Source) tufast.VertexArray {
		dist := sys.NewVertexArray(tufast.None)
		dist.Set(0, 0)
		err := sys.ForEachQueued(q, func(tx tufast.Tx, v uint32, emit func(u uint32, prio uint64)) error {
			dv := tx.Read(v, dist.Addr(v))
			for _, u := range g.Neighbors(v) {
				if nd := dv + uint64(tufast.EdgeWeight(v, u, 9)); nd < tx.Read(u, dist.Addr(u)) {
					tx.Write(u, dist.Addr(u), nd)
					emit(u, nd) // delivered once this transaction commits
				}
			}
			return nil
		})
		if err != nil {
			fmt.Println(err)
		}
		return dist
	}

	q := sys.NewQueue() // FIFO: Bellman-Ford, ignores prio
	q.Push(0)
	pq := sys.NewPQ() // priority: SPFA, same body
	pq.Push(0, 0)
	fifo, prio := sssp(q), sssp(pq)

	same := true
	for v := uint32(0); int(v) < g.NumVertices(); v++ {
		same = same && fifo.Get(v) == prio.Get(v)
	}
	fmt.Println("same distances:", same)
	fmt.Println("to the far corner:", prio.Get(uint32(g.NumVertices()-1)))
	// Output:
	// same distances: true
	// to the far corner: 113
}

// The README's ready-made algorithms: each is a one-liner over a System.
// On a 10×10 grid the answers are exact whatever the interleaving.
func Example_algorithms() {
	g := tufast.GenerateGrid(10, 10)
	sys := tufast.NewSystem(g, tufast.Options{})

	levels, _ := algorithms.BFS(sys, 0)
	comp, _ := algorithms.ConnectedComponents(sys)
	tris, _ := algorithms.Triangles(sys)
	cores, _ := algorithms.KCore(sys)
	ranks, _ := algorithms.PageRank(sys, 0.85, 1e-6)

	sum := 0.0
	for _, r := range ranks {
		sum += r
	}
	fmt.Println("farthest BFS level:", slices.Max(levels))
	slices.Sort(comp)
	fmt.Println("components:", len(slices.Compact(comp)))
	fmt.Println("triangles:", tris)
	fmt.Println("max core:", slices.Max(cores))
	fmt.Printf("rank mass: %.2f\n", sum)
	// Output:
	// farthest BFS level: 18
	// components: 1
	// triangles: 0
	// max core: 2
	// rank mass: 100.00
}

// The README's dynamic graph: an edge and the vertex state it feeds
// change in one transaction, a batch applies as a stream, and a view
// pinned before the batch keeps reading the graph as it was. A direct
// mutation is stamped past the current epoch, so only views pinned after
// the next batch see it.
func ExampleDynGraph() {
	g := tufast.GenerateGrid(4, 4)
	sys := tufast.NewSystem(g, tufast.Options{SpaceWords: tufast.DynSpaceWords(g, 64)})
	dyn := tufast.NewDynGraph(sys)
	deg := sys.NewVertexArray(0)

	const u, v = 0, 15 // opposite corners: not yet adjacent
	err := sys.Atomic(dyn.MutationHint(u, v), func(tx tufast.Tx) error {
		if tx.AddEdge(dyn, u, v) { // read-own-writes: the degree sees the new edge
			tx.Write(u, deg.Addr(u), uint64(tx.DegreeMut(dyn, u)))
		}
		return nil
	})
	fmt.Println("error:", err, "degree stored:", deg.Get(u))

	before := dyn.View()
	defer before.Close()
	st, err := dyn.ApplyStream([]tufast.StreamOp{{U: 5, V: 10}}, tufast.StreamOptions{})
	fmt.Println("error:", err, "inserted:", st.Inserted)
	after := dyn.View()
	defer after.Close()
	fmt.Println("pinned before the batch:", before.Degree(0), before.Degree(5))
	fmt.Println("pinned after it:", after.Degree(0), after.Degree(5))
	snap, err := after.Compact() // the view as a fresh CSR
	fmt.Println("error:", err, "compacted:", snap.Degree(0), snap.Degree(5))
	// Output:
	// error: <nil> degree stored: 3
	// error: <nil> inserted: 1
	// pinned before the batch: 2 4
	// pinned after it: 3 5
	// error: <nil> compacted: 3 5
}
