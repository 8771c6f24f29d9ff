package main

import (
	"fmt"
	"math"
	"slices"
)

// quartiles returns q1, the median and q3 of xs, each by linear
// interpolation between the two nearest order statistics (position
// p*(n-1) of the sorted values): the quartiles a spreadsheet's
// QUARTILE.INC or R's default give. All three are NaN when xs is empty.
func quartiles(xs []float64) (q1, med, q3 float64) {
	if len(xs) == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	at := func(p float64) float64 {
		pos := p * float64(len(s)-1)
		lo := int(math.Floor(pos))
		if lo+1 >= len(s) {
			return s[lo]
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return at(0.25), at(0.5), at(0.75)
}

// better reports whether a beats b on a metric whose better direction
// is "lower" or "higher". Equal values beat neither.
func better(a, b float64, dir string) bool {
	if dir == "higher" {
		return a > b
	}
	return a < b
}

// wins counts the pairs in which the change beat the parent; a tie
// counts for neither side. Pair i is parent[i] against change[i].
func wins(parent, change []float64, dir string) int {
	k := 0
	for i := range min(len(parent), len(change)) {
		if better(change[i], parent[i], dir) {
			k++
		}
	}
	return k
}

// claim is the verdict on a claimed gain: the change's median against
// the parent's, how many pairs it won, and whether the gap between the
// medians is wider than the parent's interquartile range.
type claim struct {
	ParentQ1, ParentMedian, ParentQ3 float64
	ChangeQ1, ChangeMedian, ChangeQ3 float64
	// Delta is the change's median relative to the parent's:
	// (change - parent) / parent.
	Delta     float64
	Wins      int
	Pairs     int
	Gap       float64 // |change median - parent median|
	ParentIQR float64
	// Holds is true when the change is better at the medians and by more
	// than the parent's IQR, and wins at least nine pairs in ten.
	Holds bool
}

func judgeClaim(parent, change []float64, dir string) claim {
	var c claim
	c.ParentQ1, c.ParentMedian, c.ParentQ3 = quartiles(parent)
	c.ChangeQ1, c.ChangeMedian, c.ChangeQ3 = quartiles(change)
	c.Delta = relative(c.ParentMedian, c.ChangeMedian)
	c.Pairs = min(len(parent), len(change))
	c.Wins = wins(parent, change, dir)
	c.Gap = math.Abs(c.ChangeMedian - c.ParentMedian)
	c.ParentIQR = c.ParentQ3 - c.ParentQ1
	c.Holds = better(c.ChangeMedian, c.ParentMedian, dir) && c.Gap > c.ParentIQR &&
		c.Pairs > 0 && 10*c.Wins >= 9*c.Pairs
	return c
}

// bounded is a must-not-move verdict: the change's median may be worse
// than the parent's by at most bound, a fraction of the parent's. Where
// the parent's own runs spread wider than the bound (their IQR against
// their median), a verdict within the bound is unresolved unless every
// change run is better than every parent run.
type bounded struct {
	ParentMedian, ChangeMedian float64
	Delta                      float64 // (change - parent) / parent
	Bound                      float64
	ParentSpread               float64 // the parent's IQR / its median
	OK                         bool
	Unresolved                 bool
}

func judgeBound(parent, change []float64, dir string, bound float64) bounded {
	q1, pm, q3 := quartiles(parent)
	_, cm, _ := quartiles(change)
	v := bounded{ParentMedian: pm, ChangeMedian: cm, Bound: bound, ParentSpread: relative(pm, pm+q3-q1)}
	v.Delta = relative(pm, cm)
	worse := v.Delta
	if dir == "higher" {
		worse = -v.Delta
	}
	v.OK = worse <= bound
	if pm == 0 {
		v.OK = !better(pm, cm, dir)
	}
	v.Unresolved = v.OK && v.ParentSpread > bound && !allBetter(change, parent, dir)
	return v
}

// allBetter reports whether every value of a beats every value of b.
func allBetter(a, b []float64, dir string) bool {
	for _, x := range a {
		for _, y := range b {
			if !better(x, y, dir) {
				return false
			}
		}
	}
	return true
}

// relative is (change - parent) / parent, and 0 where the parent's value
// is 0 (no ratio is defined there, and JSON has no infinities).
func relative(parent, change float64) float64 {
	if parent == 0 {
		return 0
	}
	return (change - parent) / parent
}

// pct formats a relative change as a signed percentage.
func pct(x float64) string { return fmt.Sprintf("%+.1f%%", 100*x) }
