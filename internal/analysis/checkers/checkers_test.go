package checkers_test

import (
	"testing"

	"tufast/internal/analysis/analysistest"
	"tufast/internal/analysis/checkers"
)

func TestNakedAccess(t *testing.T) {
	analysistest.Run(t, "testdata/nakedaccess", checkers.NakedAccess)
}

func TestTxEscape(t *testing.T) {
	analysistest.Run(t, "testdata/txescape", checkers.TxEscape)
}

func TestRetryUnsafe(t *testing.T) {
	analysistest.Run(t, "testdata/retryunsafe", checkers.RetryUnsafe)
}

func TestOwnerMismatch(t *testing.T) {
	analysistest.Run(t, "testdata/ownermismatch", checkers.OwnerMismatch)
}

func TestLockOrder(t *testing.T) {
	analysistest.Run(t, "testdata/lockorder", checkers.LockOrder)
}

func TestEpochCapture(t *testing.T) {
	analysistest.Run(t, "testdata/epochcapture", checkers.EpochCapture)
}

func TestHookPurity(t *testing.T) {
	analysistest.Run(t, "testdata/hookpurity", checkers.HookPurity)
}

func TestUnlockPath(t *testing.T) {
	analysistest.Run(t, "testdata/unlockpath", checkers.UnlockPath)
}

func TestAtomicMix(t *testing.T) {
	analysistest.Run(t, "testdata/atomicmix", checkers.AtomicMix)
}

// TestSuppression runs the full suite over a corpus whose violations
// carry //tufast:ignore directives: only the finding whose directive
// names the wrong analyzer may survive.
func TestSuppression(t *testing.T) {
	analysistest.Run(t, "testdata/suppress", checkers.Analyzers()...)
}

// TestSelfApplication runs the full suite over the repo's own example
// programs and algorithm implementations — the self-check the gate
// script enforces repo-wide, kept here as a focused regression.
func TestSelfApplication(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks half the module; skipped in -short")
	}
	for _, dir := range []string{
		"../../../examples/quickstart",
		"../../../examples/matching",
		"../../../examples/pagerank",
		"../../../examples/shortestpath",
		"../../../examples/analytics",
		"../../../algorithms",
		"../../algo",
		"../../server",
		"../../dyngraph",
		"../../mem",
	} {
		analysistest.Run(t, dir, checkers.Analyzers()...)
	}
}
