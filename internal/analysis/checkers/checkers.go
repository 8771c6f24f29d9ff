// Package checkers implements tufastcheck's transaction-contract
// analyzers. TuFast's serializability guarantee holds only if user code
// honors an API contract the runtime cannot observe:
//
//   - every shared access goes through tx.Read / tx.Write (nakedaccess)
//   - the Tx handle never outlives its attempt (txescape)
//   - TxFunc bodies are idempotent, because all three modes retry
//     (retryunsafe)
//   - the owner vertex of an access matches the word it touches
//     (ownermismatch)
//
// Each of those analyzers inspects function literals and declarations
// whose first parameter is a transaction handle (tufast.Tx or the
// internal sched.Tx) — the static shape of a TxFunc.
//
// A second family polices the concurrency contract of the serving plane
// (internal/server and the stream path), where the runtime's guarantees
// stop and hand-written locking starts:
//
//   - mutex acquisitions respect the //tufast:lockorder ranks declared
//     on struct fields and form no order cycles (lockorder)
//   - epoch values are captured inside the critical section that bumped
//     them, never re-read after ApplyStream or after a mutation-bracket
//     lock (mutMu, batchMu) was dropped (epochcapture)
//   - stream hooks stay non-blocking: no mutation-bracket locks, no bare
//     channel operations, no reentrant ApplyStream (hookpurity)
//   - every Lock is released on all return and panic paths (unlockpath)
//   - a field accessed through sync/atomic is never also accessed by
//     plain load/store (atomicmix)
//
// These share the lock recognizer and //tufast:lockorder annotations in
// internal/analysis and a block-structured held-lock walker (lockflow).
package checkers

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"tufast/internal/analysis"
)

// Analyzers returns the full suite in stable order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		NakedAccess,
		TxEscape,
		RetryUnsafe,
		OwnerMismatch,
		LockOrder,
		EpochCapture,
		HookPurity,
		UnlockPath,
		AtomicMix,
	}
}

// txFunc is one transaction body found in the package: a function
// literal or declaration taking a Tx as its first parameter.
type txFunc struct {
	node ast.Node       // *ast.FuncLit or *ast.FuncDecl
	body *ast.BlockStmt // never nil
	tx   *types.Var     // the Tx parameter's object (nil if unnamed "_")
}

// contains reports whether pos lies within the transaction body.
func (fn *txFunc) contains(pos token.Pos) bool {
	return fn.node.Pos() <= pos && pos <= fn.node.End()
}

// forEachTxFunc invokes visit for every TxFunc in the package.
func forEachTxFunc(pass *analysis.Pass, visit func(fn *txFunc)) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			var ftype *ast.FuncType
			var body *ast.BlockStmt
			switch n := n.(type) {
			case *ast.FuncLit:
				ftype, body = n.Type, n.Body
			case *ast.FuncDecl:
				ftype, body = n.Type, n.Body
			default:
				return true
			}
			if body == nil || ftype.Params == nil || len(ftype.Params.List) == 0 {
				return true
			}
			first := ftype.Params.List[0]
			if !isTxType(pass.Info.Types[first.Type].Type) {
				return true
			}
			var tx *types.Var
			if len(first.Names) > 0 && first.Names[0].Name != "_" {
				tx, _ = pass.Info.Defs[first.Names[0]].(*types.Var)
			}
			visit(&txFunc{node: n, body: body, tx: tx})
			return true
		})
	}
}

// isTxType reports whether t is the transaction handle type: a type
// named Tx declared in the tufast root package or in the internal
// scheduler package.
func isTxType(t types.Type) bool {
	t = deref(t)
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Name() != "Tx" || obj.Pkg() == nil {
		return false
	}
	return isTufastPkg(obj.Pkg().Path()) || isSchedPkg(obj.Pkg().Path())
}

func isTufastPkg(path string) bool {
	return path == "tufast" || strings.HasSuffix(path, "/tufast")
}

func isSchedPkg(path string) bool {
	return path == "sched" || strings.HasSuffix(path, "internal/sched")
}

func isMemPkg(path string) bool {
	return path == "mem" || strings.HasSuffix(path, "internal/mem")
}

// deref unwraps one level of pointer.
func deref(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// recvType returns the (pointer-stripped) named type of a selector's
// receiver expression, or nil.
func recvType(info *types.Info, sel *ast.SelectorExpr) *types.Named {
	tv, ok := info.Types[sel.X]
	if !ok || tv.Type == nil {
		return nil
	}
	named, _ := deref(tv.Type).(*types.Named)
	return named
}

// calleeObj resolves the object a call invokes: a method (through
// go/types selections), a package-level function, or a builtin.
func calleeObj(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		if s, ok := info.Selections[fun]; ok {
			return s.Obj()
		}
		return info.Uses[fun.Sel] // package-qualified function
	case *ast.Ident:
		return info.Uses[fun]
	}
	return nil
}

// objPkgPath returns the import path of an object's package ("" for
// builtins and the universe scope).
func objPkgPath(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	return obj.Pkg().Path()
}

// isTxOp reports whether call is a transactional access — a
// Read/Write/ReadFloat/WriteFloat method on a Tx value — and returns
// its method name.
func isTxOp(info *types.Info, call *ast.CallExpr) (string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	switch sel.Sel.Name {
	case "Read", "Write", "ReadFloat", "WriteFloat":
	default:
		return "", false
	}
	tv, ok := info.Types[sel.X]
	if !ok || !isTxType(tv.Type) {
		return "", false
	}
	return sel.Sel.Name, true
}

// usesAny reports whether the subtree references any object in objs.
func usesAny(info *types.Info, n ast.Node, objs map[types.Object]bool) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if found {
			return false
		}
		if id, ok := n.(*ast.Ident); ok && objs[info.Uses[id]] {
			found = true
			return false
		}
		return true
	})
	return found
}

// declaredWithin reports whether obj's declaration lies inside fn's
// body — i.e. the variable is transaction-local rather than captured.
func declaredWithin(obj types.Object, fn *txFunc) bool {
	return obj != nil && obj.Pos() != token.NoPos && fn.contains(obj.Pos())
}

// rootIdent peels index, selector, star and paren expressions down to
// the base identifier of an lvalue (nil if none).
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// identArg unwraps type conversions (uint32(v), int(v), mem.Addr(v), …)
// and parens around e and returns the plain identifier underneath, if
// any.
func identArg(info *types.Info, e ast.Expr) *ast.Ident {
	for {
		e = ast.Unparen(e)
		call, ok := e.(*ast.CallExpr)
		if !ok || len(call.Args) != 1 {
			break
		}
		if tv, ok := info.Types[call.Fun]; !ok || !tv.IsType() {
			break
		}
		e = call.Args[0]
	}
	id, _ := ast.Unparen(e).(*ast.Ident)
	return id
}
