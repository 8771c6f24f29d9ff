package checkers

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"tufast/internal/analysis"
)

// RetryUnsafe flags non-idempotent operations inside a transaction body.
// All three TM modes re-run the TxFunc: H mode on conflict aborts, O
// mode on validation failure, L mode when chosen as a deadlock victim —
// so any effect that is not undone by the rollback executes once per
// attempt, not once per commit. Channel sends, goroutine launches,
// mutations of variables captured from outside the body, I/O, clock and
// randomness reads, mutex operations and bare atomics all fall in that
// class. So does a push into a tufast Queue or PQ: it publishes the
// wakeup before the commit (and on attempts that abort), so the woken
// vertex can run before the write that woke it is visible; a
// ForEachQueued body wakes vertices through its emit instead.
//
// Allowed by design: the idempotent buffer reset x = x[:0] (a
// post-commit emit pattern re-arms its buffer at the top of every
// attempt).
var RetryUnsafe = &analysis.Analyzer{
	Name: "retryunsafe",
	Doc:  "non-idempotent operation in a retryable transaction body",
	Run:  runRetryUnsafe,
}

// timeFuncs are the clock-dependent functions of package time (pure
// construction and parsing helpers like Date or ParseDuration are fine).
var timeFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "Tick": true, "NewTimer": true, "NewTicker": true,
	"AfterFunc": true,
}

// mutexMethods are the lock-family methods of sync.Mutex / sync.RWMutex.
var mutexMethods = map[string]bool{
	"Lock": true, "Unlock": true, "RLock": true, "RUnlock": true,
	"TryLock": true, "TryRLock": true,
}

func runRetryUnsafe(pass *analysis.Pass) {
	forEachTxFunc(pass, func(fn *txFunc) {
		ast.Inspect(fn.body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				pass.Reportf(n.Pos(), "goroutine launched inside a transaction runs once per retried attempt")
			case *ast.SendStmt:
				pass.Reportf(n.Pos(), "channel send inside a transaction is re-sent by every retried attempt")
			case *ast.IncDecStmt:
				checkCapturedWrite(pass, fn, n.X, n.Pos(), false)
			case *ast.AssignStmt:
				checkRetryAssign(pass, fn, n)
			case *ast.CallExpr:
				checkRetryCall(pass, fn, n)
			}
			return true
		})
	})
}

// checkRetryAssign flags assignments whose target is captured from
// outside the transaction body.
func checkRetryAssign(pass *analysis.Pass, fn *txFunc, as *ast.AssignStmt) {
	if as.Tok == token.DEFINE {
		return // new transaction-local variable
	}
	for i, lhs := range as.Lhs {
		// Allow the idempotent buffer reset x = x[:0].
		if as.Tok == token.ASSIGN && len(as.Lhs) == len(as.Rhs) && isSelfReset(pass.Info, lhs, as.Rhs[i]) {
			continue
		}
		isAppend := as.Tok == token.ASSIGN && len(as.Lhs) == len(as.Rhs) &&
			isBuiltinAppend(pass, as.Rhs[i])
		checkCapturedWrite(pass, fn, lhs, as.Pos(), isAppend)
	}
}

// checkCapturedWrite reports a write whose root variable is declared
// outside the transaction body.
func checkCapturedWrite(pass *analysis.Pass, fn *txFunc, lhs ast.Expr, pos token.Pos, isAppend bool) {
	id := rootIdent(lhs)
	if id == nil || id.Name == "_" {
		return
	}
	obj, ok := pass.Info.Uses[id].(*types.Var)
	if !ok || declaredWithin(obj, fn) {
		return
	}
	what := "assignment to"
	if isAppend {
		what = "append to"
	}
	pass.Reportf(pos, "%s captured variable %q inside a transaction repeats on every retried attempt; move it after the commit or make it idempotent",
		what, id.Name)
}

// isSelfReset matches x = x[:0] (and x = x[0:0]).
func isSelfReset(info *types.Info, lhs, rhs ast.Expr) bool {
	lid, ok := ast.Unparen(lhs).(*ast.Ident)
	if !ok {
		return false
	}
	sl, ok := ast.Unparen(rhs).(*ast.SliceExpr)
	if !ok || sl.High == nil || sl.Max != nil {
		return false
	}
	rid, ok := ast.Unparen(sl.X).(*ast.Ident)
	if !ok || info.Uses[rid] == nil || info.Uses[rid] != info.Uses[lid] {
		return false
	}
	if hv, ok := info.Types[sl.High]; !ok || hv.Value == nil || hv.Value.String() != "0" {
		return false
	}
	if sl.Low != nil {
		lv, ok := info.Types[sl.Low]
		if !ok || lv.Value == nil || lv.Value.String() != "0" {
			return false
		}
	}
	return true
}

// checkRetryCall flags side-effecting calls: I/O, clock, randomness,
// locks, bare atomics, close, and the print builtins.
func checkRetryCall(pass *analysis.Pass, fn *txFunc, call *ast.CallExpr) {
	obj := calleeObj(pass.Info, call)
	if obj == nil {
		return
	}
	name := obj.Name()
	// Builtins.
	if obj.Pkg() == nil {
		switch name {
		case "close":
			pass.Reportf(call.Pos(), "close inside a transaction closes the channel on the first attempt and panics on retry")
		case "print", "println":
			pass.Reportf(call.Pos(), "I/O inside a transaction repeats on every retried attempt")
		}
		return
	}
	// Methods: locks, atomics, queue pushes.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if _, isMethod := pass.Info.Selections[sel]; isMethod {
			named := recvType(pass.Info, sel)
			if named == nil || named.Obj().Pkg() == nil {
				return
			}
			recvPkg := named.Obj().Pkg().Path()
			recvName := named.Obj().Name()
			switch {
			case isTufastPkg(recvPkg) && (recvName == "Queue" || recvName == "PQ") && name == "Push":
				pass.Reportf(call.Pos(), "%s.Push inside a transaction publishes the wakeup before the commit, so the woken vertex can miss the write; wake it through ForEachQueued's emit",
					recvName)
			case recvPkg == "sync" && (recvName == "Mutex" || recvName == "RWMutex") && mutexMethods[name]:
				pass.Reportf(call.Pos(), "%s.%s inside a transaction: retried attempts re-lock (or double-unlock) and L-mode lock waits can deadlock against it",
					recvName, name)
			case recvPkg == "sync" && recvName == "WaitGroup":
				pass.Reportf(call.Pos(), "WaitGroup.%s inside a transaction repeats on every retried attempt", name)
			case recvPkg == "sync/atomic" && !strings.HasPrefix(name, "Load"):
				pass.Reportf(call.Pos(), "atomic %s inside a transaction applies once per retried attempt, not once per commit; derive the metric from Stats or move it after the commit",
					name)
			case recvPkg == "math/rand" || recvPkg == "math/rand/v2":
				pass.Reportf(call.Pos(), "randomness inside a transaction gives each retried attempt a different value")
			}
			return
		}
	}
	// Package-level functions.
	switch pkg := objPkgPath(obj); pkg {
	case "time":
		if timeFuncs[name] {
			pass.Reportf(call.Pos(), "time.%s inside a transaction gives each retried attempt a different value (and Sleep stalls the whole attempt)", name)
		}
	case "math/rand", "math/rand/v2", "crypto/rand":
		pass.Reportf(call.Pos(), "randomness inside a transaction gives each retried attempt a different value")
	case "fmt":
		if strings.HasPrefix(name, "Print") || strings.HasPrefix(name, "Fprint") {
			pass.Reportf(call.Pos(), "fmt.%s inside a transaction repeats on every retried attempt", name)
		}
	case "log":
		if name != "New" {
			pass.Reportf(call.Pos(), "log.%s inside a transaction repeats on every retried attempt", name)
		}
	case "os":
		pass.Reportf(call.Pos(), "os.%s inside a transaction: I/O and process state are not rolled back on abort", name)
	case "sync/atomic":
		if !strings.HasPrefix(name, "Load") {
			pass.Reportf(call.Pos(), "atomic %s inside a transaction applies once per retried attempt, not once per commit; derive the metric from Stats or move it after the commit", name)
		}
	}
}
