package checkers

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"tufast/internal/analysis"
)

// HookPurity checks that stream hooks stay non-blocking. OnEdge and
// Emit hooks run inside ApplyStream's critical section, on worker
// goroutines the batch's owner waits for with the graph's batch lock
// held, and whatever mutation bracket the caller applies the batch
// under; a hook that blocks stalls every later batch, and one that
// re-enters the stream path deadlocks outright. Flagged in a hook body,
// or one same-package call away from it:
//
//   - acquiring a mutation-bracket lock (a field named mutMu or
//     batchMu) — possibly held by the apply path
//   - a channel send or receive with no escape hatch: not a select arm
//     in a select that has a default or a ctx.Done() case
//   - any call to an ApplyStream-family method or ApplyOwned —
//     reentrant batch application, which waits for the batch lock its
//     own batch holds
//
// Hooks are recognized structurally: OnEdge/Emit methods and functions
// by name and signature, and function literals bound to the OnEdge/Emit
// fields of a StreamOptions composite literal.
var HookPurity = &analysis.Analyzer{
	Name: "hookpurity",
	Doc:  "stream hooks must not block: no mutation-bracket locks, bare channel ops, or reentrant ApplyStream",
	Run:  runHookPurity,
}

// hookViolation is one impure operation found in a hook body.
type hookViolation struct {
	pos token.Pos
	msg string
}

func runHookPurity(pass *analysis.Pass) {
	funcs := analysis.PackageFuncs(pass)

	for _, body := range hookBodies(pass) {
		for _, v := range hookBodyViolations(pass, body) {
			pass.Reportf(v.pos, "hook %s", v.msg)
		}
		// One call deep: same-package callees are checked with the same
		// rules, reported at the hook's call site.
		for callee, site := range analysis.LocalCallees(pass.Info, pass.Pkg, body) {
			decl, ok := funcs[callee]
			if !ok {
				continue
			}
			vs := hookBodyViolations(pass, decl.Body)
			if len(vs) == 0 {
				continue
			}
			pass.Reportf(site.Pos(), "hook calls %s, which %s", callee.Name(), vs[0].msg)
		}
	}
}

// hookBodies finds every stream-hook function body in the package.
func hookBodies(pass *analysis.Pass) []*ast.BlockStmt {
	var bodies []*ast.BlockStmt
	seen := map[*ast.BlockStmt]bool{}
	add := func(b *ast.BlockStmt) {
		if b != nil && !seen[b] {
			seen[b] = true
			bodies = append(bodies, b)
		}
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if isHookSignature(pass.Info, n.Name.Name, n.Type) {
					add(n.Body)
				}
			case *ast.CompositeLit:
				if !isStreamOptionsLit(pass.Info, n) {
					return true
				}
				for _, elt := range n.Elts {
					kv, ok := elt.(*ast.KeyValueExpr)
					if !ok {
						continue
					}
					key, ok := kv.Key.(*ast.Ident)
					if !ok || (key.Name != "OnEdge" && key.Name != "Emit") {
						continue
					}
					if lit, ok := ast.Unparen(kv.Value).(*ast.FuncLit); ok {
						add(lit.Body)
					}
				}
			}
			return true
		})
	}
	return bodies
}

// isHookSignature matches hook functions by name and shape: OnEdge
// takes a Tx first; Emit takes exactly one uint32 and returns nothing.
func isHookSignature(info *types.Info, name string, ftype *ast.FuncType) bool {
	params := ftype.Params
	switch {
	case strings.EqualFold(name, "onedge"):
		if params == nil || len(params.List) == 0 {
			return false
		}
		return isTxType(info.Types[params.List[0].Type].Type)
	case strings.EqualFold(name, "emit"):
		if params == nil || len(params.List) != 1 || len(params.List[0].Names) > 1 {
			return false
		}
		if ftype.Results != nil && len(ftype.Results.List) > 0 {
			return false
		}
		t, ok := info.Types[params.List[0].Type].Type.(*types.Basic)
		return ok && t.Kind() == types.Uint32
	}
	return false
}

// isStreamOptionsLit matches composite literals of a type named
// StreamOptions.
func isStreamOptionsLit(info *types.Info, lit *ast.CompositeLit) bool {
	tv, ok := info.Types[lit]
	if !ok || tv.Type == nil {
		return false
	}
	named, ok := deref(tv.Type).(*types.Named)
	return ok && named.Obj().Name() == "StreamOptions"
}

// hookBodyViolations scans one body (function literals included — a
// closure defined by a hook runs in hook context) for blocking
// operations.
func hookBodyViolations(pass *analysis.Pass, body *ast.BlockStmt) []hookViolation {
	var out []hookViolation
	safeComms := safeSelectComms(pass, body)
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if op := analysis.RecognizeLockOp(pass.Info, n); op != nil {
				if op.Acquire() && op.Field != nil && bracketLockNames[op.Field.Name()] {
					out = append(out, hookViolation{n.Pos(),
						"acquires " + op.Name() + ": the mutation-bracket lock is already held by the apply path"})
				}
				return true
			}
			if isBatchCall(n) {
				sel := ast.Unparen(n.Fun).(*ast.SelectorExpr)
				out = append(out, hookViolation{n.Pos(),
					"calls " + sel.Sel.Name + ": reentrant stream application deadlocks"})
			}
		case *ast.SendStmt:
			if !safeComms[n] {
				out = append(out, hookViolation{n.Pos(),
					"may block on a channel send with no default or ctx.Done() arm"})
			}
			return true
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && !safeComms[n] {
				out = append(out, hookViolation{n.Pos(),
					"may block on a channel receive with no default or ctx.Done() arm"})
			}
		}
		return true
	})
	return out
}

// safeSelectComms collects the channel operations that appear as select
// arms in selects offering an escape: a default clause or a ctx.Done()
// case. Those cannot wedge the hook.
func safeSelectComms(pass *analysis.Pass, body *ast.BlockStmt) map[ast.Node]bool {
	safe := map[ast.Node]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return true
		}
		escape := false
		for _, cs := range sel.Body.List {
			cc, ok := cs.(*ast.CommClause)
			if !ok {
				continue
			}
			if cc.Comm == nil || commIsDone(cc.Comm) {
				escape = true
				break
			}
		}
		if !escape {
			return true
		}
		for _, cs := range sel.Body.List {
			if cc, ok := cs.(*ast.CommClause); ok && cc.Comm != nil {
				markCommSafe(cc.Comm, safe)
			}
		}
		return true
	})
	return safe
}

// markCommSafe marks the send statement or receive expression a select
// arm performs.
func markCommSafe(comm ast.Stmt, safe map[ast.Node]bool) {
	switch comm := comm.(type) {
	case *ast.SendStmt:
		safe[comm] = true
	case *ast.ExprStmt:
		if u, ok := ast.Unparen(comm.X).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
			safe[u] = true
		}
	case *ast.AssignStmt:
		for _, r := range comm.Rhs {
			if u, ok := ast.Unparen(r).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
				safe[u] = true
			}
		}
	}
}

// commIsDone matches a select arm receiving from a context's Done
// channel: <-ctx.Done() in any receive form.
func commIsDone(comm ast.Stmt) bool {
	isDone := func(e ast.Expr) bool {
		u, ok := ast.Unparen(e).(*ast.UnaryExpr)
		if !ok || u.Op != token.ARROW {
			return false
		}
		call, ok := ast.Unparen(u.X).(*ast.CallExpr)
		if !ok {
			return false
		}
		s, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		return ok && s.Sel.Name == "Done"
	}
	switch comm := comm.(type) {
	case *ast.ExprStmt:
		return isDone(comm.X)
	case *ast.AssignStmt:
		for _, r := range comm.Rhs {
			if isDone(r) {
				return true
			}
		}
	}
	return false
}
