package simcost

import (
	"testing"
	"time"
)

//go:noinline
func untaxed() {}

func TestTaxCostsSomethingWhenEnabled(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation distorts the timing ratio")
	}
	const n = 20000
	start := time.Now()
	for i := 0; i < n; i++ {
		Tax()
	}
	taxed := time.Since(start)

	// What a scheduler built without the hook pays instead: a call that
	// does nothing.
	start = time.Now()
	for i := 0; i < n; i++ {
		untaxed()
	}
	free := time.Since(start)

	if taxed < 5*free {
		t.Fatalf("tax too cheap: taxed=%v untaxed=%v", taxed, free)
	}
	// Calibration sanity: one tax should be tens to a few hundred ns.
	per := taxed / n
	if per < 10*time.Nanosecond || per > 2*time.Microsecond {
		t.Fatalf("per-op tax %v outside calibration band", per)
	}
}

func BenchmarkTax(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Tax()
	}
}
