package checkers

import (
	"go/ast"

	"tufast/internal/analysis"
)

// NakedAccess flags direct backing-store access inside a transaction
// body: Get/Set on a tufast.Array / tufast.VertexArray or Load/Store on
// the internal mem.Space. Those bypass the TM entirely — the word is
// neither conflict-checked nor rolled back on abort, and a concurrent
// L-mode writer can be mid-update — so inside a TxFunc every shared
// access must go through tx.Read / tx.Write. The non-transactional
// accessors are for initialization and for reading results after the
// parallel section, which is why they exist at all.
var NakedAccess = &analysis.Analyzer{
	Name: "nakedaccess",
	Doc:  "direct VertexArray/Space access inside a transaction body bypasses tx.Read/tx.Write",
	Run:  runNakedAccess,
}

// arrayMethods are the non-transactional accessors of tufast.Array and
// tufast.VertexArray.
var arrayMethods = map[string]bool{
	"Get": true, "Set": true, "GetFloat": true, "SetFloat": true,
}

// spaceMethods are the raw accessors of mem.Space.
var spaceMethods = map[string]bool{
	"Load": true, "Store": true, "StoreVersioned": true, "ReadConsistent": true,
}

// dynMethods are the quiescent accessors of tufast.DynGraph: they read
// (or rebuild from) the edge overlay with no transactional protection,
// so inside a TxFunc they can observe torn chains and miss the
// transaction's own uncommitted mutations — and ApplyOwned writes it
// with plain stores, for a caller no transaction can overlap. The
// transactional counterparts are tx.AddEdge / tx.RemoveEdge /
// tx.HasEdgeMut / tx.DegreeMut / tx.NeighborsMut.
var dynMethods = map[string]bool{
	"NeighborsNow": true, "HasEdgeNow": true, "LiveDegree": true,
	"LiveArcs": true, "Compact": true, "ApplyStream": true, "ApplyStreamCtx": true,
	"ApplyOwned": true, "MutationStats": true,
}

func runNakedAccess(pass *analysis.Pass) {
	forEachTxFunc(pass, func(fn *txFunc) {
		ast.Inspect(fn.body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			named := recvType(pass.Info, sel)
			if named == nil || named.Obj().Pkg() == nil {
				return true
			}
			name, pkg := named.Obj().Name(), named.Obj().Pkg().Path()
			switch {
			case isTufastPkg(pkg) && (name == "Array" || name == "VertexArray") && arrayMethods[sel.Sel.Name]:
				pass.Reportf(call.Pos(),
					"%s.%s inside a transaction bypasses the TM; use tx.Read/tx.Write with the element's Addr",
					name, sel.Sel.Name)
			case isMemPkg(pkg) && name == "Space" && spaceMethods[sel.Sel.Name]:
				pass.Reportf(call.Pos(),
					"Space.%s inside a transaction bypasses the TM; use tx.Read/tx.Write",
					sel.Sel.Name)
			case isTufastPkg(pkg) && name == "DynGraph" && dynMethods[sel.Sel.Name]:
				pass.Reportf(call.Pos(),
					"DynGraph.%s inside a transaction reads the edge overlay without TM protection; use tx.AddEdge/tx.RemoveEdge/tx.HasEdgeMut/tx.DegreeMut/tx.NeighborsMut",
					sel.Sel.Name)
			}
			return true
		})
	})
}
