package tufast_test

import (
	"fmt"
	"slices"

	"tufast"
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
