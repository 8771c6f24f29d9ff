package checkers

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"tufast/internal/analysis"
)

// EpochCapture polices how graph epochs reach responses and cache keys.
// An epoch is only meaningful relative to the critical section that
// bumped it — or, since the MVCC refactor, relative to the view that
// pinned it; re-reading Epoch() after the fact observes concurrent
// batches. Three patterns are flagged:
//
//  1. An Epoch() call positioned after an ApplyStream/ApplyStreamCtx/
//     ApplyOwned call in the same function body. The stream's own bump is already
//     in the returned StreamStats.Epoch; re-reading the graph races
//     with the next writer (the PR 6 handleEdges bug).
//  2. An Epoch() call (or a read of an unexported epoch counter field)
//     reached with no mutex held after the function released a
//     mutation-bracket lock — a field named mutMu or batchMu — earlier
//     on. The value read belongs to nobody's critical section.
//  3. A non-view Epoch() call positioned after a View()/ViewAt() call
//     that pinned a GraphView in the same function body. Everything the
//     function reads through the view is fixed at the view's epoch;
//     tagging it with a fresh graph epoch misattributes batches that
//     committed after the pin. GraphView.Epoch() is the blessed read
//     and is exempt.
//
// Deliberately lock-free reads, such as an optimistic cache probe that
// revalidates under the lock, take //tufast:ignore epochcapture with a
// reason.
var EpochCapture = &analysis.Analyzer{
	Name: "epochcapture",
	Doc:  "epoch values must be captured inside the critical section that bumped them",
	Run:  runEpochCapture,
}

// bracketLockNames are the struct fields recognized as the locks held
// around a mutation batch: the serving plane's mutMu (apply, log,
// standing delivery) and DynGraph's batchMu (one batch, one epoch
// stamp, and any OnEdge/Emit hooks the batch runs).
var bracketLockNames = map[string]bool{"mutMu": true, "batchMu": true}

func runEpochCapture(pass *analysis.Pass) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch n := n.(type) {
			case *ast.FuncDecl:
				body = n.Body
			case *ast.FuncLit:
				body = n.Body
			}
			if body == nil {
				return true
			}
			checkEpochCapture(pass, body)
			return true
		})
	}
}

// isEpochCall matches a no-argument method call named Epoch.
func isEpochCall(call *ast.CallExpr) (ast.Expr, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Epoch" || len(call.Args) != 0 {
		return nil, false
	}
	return sel.X, true
}

// isBatchCall matches calls to the methods that apply a batch: the
// ApplyStream family and ApplyOwned.
func isBatchCall(call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	return ok && (strings.HasPrefix(sel.Sel.Name, "ApplyStream") || sel.Sel.Name == "ApplyOwned")
}

// isGraphViewType reports whether t is a GraphView (or a pointer to
// one) — the epoch-pinned read handle whose Epoch() is always safe.
func isGraphViewType(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	return ok && n.Obj().Name() == "GraphView"
}

// isViewPinCall matches View()/ViewAt() calls that return a GraphView,
// i.e. the moment a function pins an epoch.
func isViewPinCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "View" && sel.Sel.Name != "ViewAt") {
		return false
	}
	return isGraphViewType(pass.Info.TypeOf(call))
}

func checkEpochCapture(pass *analysis.Pass, body *ast.BlockStmt) {
	// Rules 1 and 3 are positional within the body — literal interiors
	// excluded, they run in their own context.
	var applyPos, viewPos token.Pos = token.NoPos, token.NoPos
	topoReleased := false
	walkLocks(pass, body, lockEvents{
		release: func(op *analysis.LockOp) {
			if op.Field != nil && bracketLockNames[op.Field.Name()] {
				topoReleased = true
			}
		},
		call: func(held []*heldLock, call *ast.CallExpr) {
			if isBatchCall(call) {
				if applyPos == token.NoPos || call.Pos() < applyPos {
					applyPos = call.Pos()
				}
				return
			}
			if isViewPinCall(pass, call) {
				// Threshold at the call's end: ViewAt's own epoch argument
				// is read before the pin exists and stays legal.
				if viewPos == token.NoPos || call.End() < viewPos {
					viewPos = call.End()
				}
				return
			}
			recv, ok := isEpochCall(call)
			if !ok {
				return
			}
			if applyPos != token.NoPos && call.Pos() > applyPos {
				pass.Reportf(call.Pos(),
					"%s.Epoch() read after ApplyStream/ApplyOwned: use the StreamStats.Epoch captured at the batch's own bump",
					exprString(recv))
				return
			}
			if viewPos != token.NoPos && call.Pos() > viewPos &&
				!isGraphViewType(pass.Info.TypeOf(recv)) {
				pass.Reportf(call.Pos(),
					"%s.Epoch() read after pinning a view: use the view's pinned epoch instead",
					exprString(recv))
				return
			}
			if topoReleased && len(held) == 0 {
				pass.Reportf(call.Pos(),
					"%s.Epoch() read outside the critical section: the mutation-bracket lock was released earlier in this function",
					exprString(recv))
			}
		},
	})

	// Reads of an unexported epoch counter field follow rule 2 only; the
	// blessed StreamStats.Epoch field is exported and so never matches.
	if !topoReleased {
		return
	}
	checkEpochFieldReads(pass, body)
}

// checkEpochFieldReads flags accesses to a field named epoch that occur
// after a bracket-lock release with no bracket lock covering them.
// The held-at-position computation is positional (acquires and releases
// of topo-family locks in source order), which matches the straight-line
// shape this bug class takes in practice.
func checkEpochFieldReads(pass *analysis.Pass, body *ast.BlockStmt) {
	type event struct {
		pos   token.Pos
		delta int // +1 acquire, -1 release
	}
	var events []event
	walkLocks(pass, body, lockEvents{
		acquire: func(_ []*heldLock, op *analysis.LockOp) {
			if op.Field != nil && bracketLockNames[op.Field.Name()] {
				events = append(events, event{op.Call.Pos(), +1})
			}
		},
		release: func(op *analysis.LockOp) {
			if op.Field != nil && bracketLockNames[op.Field.Name()] {
				events = append(events, event{op.Call.Pos(), -1})
			}
		},
	})
	sort.Slice(events, func(i, j int) bool { return events[i].pos < events[j].pos })
	// Assignment targets are publishes of an already-captured value, not
	// reads; only reads leak a stale epoch into a response or cache key.
	writes := map[ast.Node]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		if as, ok := n.(*ast.AssignStmt); ok {
			for _, lhs := range as.Lhs {
				writes[ast.Unparen(lhs)] = true
			}
		}
		return true
	})
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		sel, ok := n.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "epoch" || writes[sel] {
			return true
		}
		s, ok := pass.Info.Selections[sel]
		if !ok || s.Kind() != types.FieldVal {
			return true
		}
		held, releasedBefore := 0, false
		for _, e := range events {
			if e.pos >= sel.Pos() {
				break
			}
			held += e.delta
			if e.delta < 0 {
				releasedBefore = true
			}
		}
		if releasedBefore && held <= 0 {
			pass.Reportf(sel.Pos(),
				"epoch field read outside the critical section: the mutation-bracket lock was released earlier in this function")
		}
		return true
	})
}

// exprString prints the receiver expression for diagnostics.
func exprString(e ast.Expr) string {
	return types.ExprString(e)
}
