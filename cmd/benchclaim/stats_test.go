package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestQuartilesInterpolate(t *testing.T) {
	for _, c := range []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{7}, 7, 7, 7},
		{[]float64{2, 1}, 1.25, 1.5, 1.75},
		{[]float64{1, 2, 3, 4, 5}, 2, 3, 4},
		// Ten values, out of order: positions 2.25, 4.5 and 6.75.
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 3.25, 5.5, 7.75},
	} {
		q1, med, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(med, c.med) || !near(q3, c.q3) {
			t.Fatalf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, med, q3, c.q1, c.med, c.q3)
		}
	}
	if q1, med, q3 := quartiles(nil); !math.IsNaN(q1) || !math.IsNaN(med) || !math.IsNaN(q3) {
		t.Fatalf("quartiles(nil) = %v %v %v, want NaNs", q1, med, q3)
	}
}

func TestWinsCountNoTies(t *testing.T) {
	parent := []float64{5, 5, 5, 5}
	change := []float64{4, 5, 6, 3}
	if k := wins(parent, change, "lower"); k != 2 {
		t.Fatalf("lower is better: %d wins, want 2 (the tie counts for neither)", k)
	}
	if k := wins(parent, change, "higher"); k != 1 {
		t.Fatalf("higher is better: %d wins, want 1", k)
	}
}

// TestClaimOnCannedRecovery is the claim table of a recovery-time gain
// on canned numbers: ten pairs, the change faster in nine and tied in
// one, its median 25% below the parent's and the gap wider than the
// parent's spread.
func TestClaimOnCannedRecovery(t *testing.T) {
	parent := []float64{0.058, 0.060, 0.055, 0.057, 0.059, 0.056, 0.061, 0.058, 0.054, 0.058}
	change := []float64{0.043, 0.044, 0.042, 0.045, 0.043, 0.042, 0.044, 0.046, 0.054, 0.043}
	c := judgeClaim(parent, change, "lower")
	if !near(c.ParentMedian, 0.058) || !near(c.ChangeMedian, 0.0435) {
		t.Fatalf("medians %v %v, want 0.058 0.0435", c.ParentMedian, c.ChangeMedian)
	}
	if c.Wins != 9 || c.Pairs != 10 {
		t.Fatalf("%d wins of %d, want 9 of 10", c.Wins, c.Pairs)
	}
	if !near(c.ParentIQR, 0.05875-0.05625) || !near(c.Gap, 0.0145) {
		t.Fatalf("parent IQR %v gap %v", c.ParentIQR, c.Gap)
	}
	if !near(c.Delta, -0.0145/0.058) || !c.Holds {
		t.Fatalf("delta %v holds %v, want -25%% and true", c.Delta, c.Holds)
	}

	// Eight wins of ten is not enough, however wide the gap.
	change[0], change[1] = 0.058, 0.070
	if c := judgeClaim(parent, change, "lower"); c.Wins != 7 || c.Holds {
		t.Fatalf("%d wins, holds %v: want 7 and false", c.Wins, c.Holds)
	}
	// Ten wins by less than the parent's spread is not enough either.
	narrow := make([]float64, len(parent))
	for i, p := range parent {
		narrow[i] = p - 0.0005
	}
	if c := judgeClaim(parent, narrow, "lower"); c.Wins != 10 || c.Holds {
		t.Fatalf("%d wins, gap %v against IQR %v, holds %v: want 10 and false", c.Wins, c.Gap, c.ParentIQR, c.Holds)
	}
}

func TestBoundVerdicts(t *testing.T) {
	parent := []float64{100, 102, 98}
	for _, c := range []struct {
		change []float64
		dir    string
		ok     bool
	}{
		{[]float64{124, 125, 126}, "lower", true}, // +25%: at the bound
		{[]float64{126, 127, 128}, "lower", false},
		{[]float64{50, 60, 70}, "lower", true}, // better by any amount
		{[]float64{76, 75, 74}, "higher", true},
		{[]float64{70, 74, 72}, "higher", false},
		{[]float64{100, 100, 100}, "higher", true},
	} {
		v := judgeBound(parent, c.change, c.dir, 0.25)
		if v.OK != c.ok {
			t.Fatalf("%v against %v (%s better, bound 25%%): delta %v ok %v, want %v",
				c.change, parent, c.dir, v.Delta, v.OK, c.ok)
		}
	}
	// Parent runs that spread wider than the bound leave an in-bound
	// median unresolved, unless every change run beats every parent run.
	wide := []float64{60, 80, 100, 120, 140}
	if v := judgeBound(wide, []float64{110, 105, 120, 90, 100}, "lower", 0.25); !v.OK || !v.Unresolved {
		t.Fatalf("spread %v against bound 25%%: %+v, want in bound and unresolved", v.ParentSpread, v)
	}
	if v := judgeBound(wide, []float64{50, 55, 58, 52, 51}, "lower", 0.25); !v.OK || v.Unresolved {
		t.Fatalf("every change run better: %+v, want resolved", v)
	}
	// A metric the parent measured as zero moves nowhere when the change
	// does too.
	if v := judgeBound([]float64{0, 0}, []float64{0, 0}, "lower", 0.05); !v.OK {
		t.Fatalf("zero against zero: %+v", v)
	}
}
