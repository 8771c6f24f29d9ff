package obs

import (
	"testing"
	"time"
)

// TestOverheadSmoke pins the documented hot-path budget: recording one
// committed transaction (TxBegin + TxCommit: retry histogram, reads and
// writes, 1-in-64 latency sampling) must stay in the atomic-add cost
// class. The ceiling is deliberately loose — 2µs
// average per commit, ~two orders of magnitude above the expected cost
// — so it only fails when the path regresses to something structurally
// heavier (a lock, an allocation, an unconditional clock read), not on
// slow CI machines.
func TestOverheadSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("timing smoke test")
	}
	var m Metrics
	p := m.NewProbe()
	const n = 200_000
	start := time.Now()
	for i := 0; i < n; i++ {
		sp := p.TxBegin()
		p.TxCommit(ModeTx, 0, sp, 1, 1)
	}
	avg := time.Since(start) / n
	t.Logf("instrumented commit record: %v avg over %d", avg, n)
	if avg > 2*time.Microsecond {
		t.Fatalf("instrumented commit record costs %v avg, budget is 2µs", avg)
	}
	if got := m.Snapshot().Modes["tx"].Commits; got != n {
		t.Fatalf("commits = %d, want %d", got, n)
	}
}

// BenchmarkCommitRecord measures the per-commit recording cost.
func BenchmarkCommitRecord(b *testing.B) {
	var m Metrics
	p := m.NewProbe()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := p.TxBegin()
		p.TxCommit(ModeTx, 0, sp, 1, 1)
	}
}
