// Golden corpus for the nakedaccess analyzer: direct backing-store
// access inside a transaction body.
package naked

import (
	"tufast"
	"tufast/internal/mem"
)

func setup() (*tufast.System, tufast.VertexArray, *tufast.Graph) {
	g := tufast.GenerateUniform(16, 2, 1)
	sys := tufast.NewSystem(g, tufast.Options{})
	return sys, sys.NewVertexArray(tufast.None), g
}

func bad() {
	sys, arr, _ := setup()
	_ = sys.ForEachVertex(func(tx tufast.Tx, v uint32) error {
		if arr.Get(v) == tufast.None { // want "VertexArray.Get inside a transaction bypasses the TM"
			tx.Write(v, arr.Addr(v), 1)
		}
		arr.Set(v, 2)                               // want "VertexArray.Set inside a transaction"
		arr.SetFloat(v, arr.GetFloat(v)+0.5)        // want "VertexArray.SetFloat" "VertexArray.GetFloat"
		_ = sys.Space().Load(mem.Addr(arr.Addr(v))) // want "Space.Load inside a transaction"
		sys.Space().Store(mem.Addr(arr.Addr(v)), 3) // want "Space.Store inside a transaction"
		return nil
	})
}

func badDyn() {
	sys, arr, _ := setup()
	d := tufast.NewDynGraph(sys)
	_ = sys.ForEachVertex(func(tx tufast.Tx, v uint32) error {
		for _, u := range d.NeighborsNow(v, nil) { // want "DynGraph.NeighborsNow inside a transaction"
			tx.Write(u, arr.Addr(u), 1)
		}
		if d.HasEdgeNow(v, v+1) { // want "DynGraph.HasEdgeNow inside a transaction"
			return nil
		}
		_ = d.LiveDegree(v)                                      // want "DynGraph.LiveDegree inside a transaction"
		_, _ = d.ApplyOwned([]tufast.StreamOp{{U: v, V: v + 1}}) // want "DynGraph.ApplyOwned inside a transaction"
		return nil
	})
}

func goodDyn() {
	sys, arr, _ := setup()
	d := tufast.NewDynGraph(sys)
	_ = d.LiveDegree(0)          // nowant: quiescent read outside any transaction
	_ = d.NeighborsNow(0, nil)   // nowant: outside any transaction
	_, _ = d.ApplyOwned(nil)     // nowant: an owned batch, outside any transaction
	hint := d.MutationHint(1, 2) // nowant: size hints are computed before the transaction
	_ = sys.Atomic(hint, func(tx tufast.Tx) error {
		if !tx.HasEdgeMut(d, 1, 2) { // nowant: transactional accessor
			tx.AddEdge(d, 1, 2)
		}
		for _, u := range tx.NeighborsMut(d, 1, nil) { // nowant: transactional accessor
			tx.Write(u, arr.Addr(u), uint64(tx.DegreeMut(d, u)))
		}
		return nil
	})
}

func good() {
	sys, arr, g := setup()
	arr.Set(0, 7)       // nowant: initialization before the parallel section
	_ = arr.GetFloat(1) // nowant: outside any transaction
	_ = sys.ForEachVertex(func(tx tufast.Tx, v uint32) error {
		if tx.Read(v, arr.Addr(v)) != tufast.None { // nowant: transactional access
			return nil
		}
		for _, u := range g.Neighbors(v) {
			_ = arr.Addr(u) // nowant: Addr is pure address arithmetic, not an access
			tx.Write(u, arr.Addr(u), uint64(v))
		}
		return nil
	})
	_ = arr.Get(0) // nowant: reading results after the sweep
}
