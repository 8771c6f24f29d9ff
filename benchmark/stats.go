package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// pluck maps f over xs: one field out of each round or sample.
func pluck[T, U any](xs []T, f func(T) U) []U {
	out := make([]U, len(xs))
	for i, x := range xs {
		out[i] = f(x)
	}
	return out
}

// percentile returns the p-quantile (0 ≤ p ≤ 1) of xs by linear
// interpolation between closest ranks; 0 for an empty sample.
func percentile(xs []float64, p float64) float64 {
	s := sorted(xs)
	if len(s) == 0 {
		return 0
	}
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// median is the 0.5 percentile. Every end-to-end metric but
// serve_write's two (see fastQuartile) is a median: of the samples of
// one phase, or of one value per round.
func median(xs []float64) float64 { return percentile(xs, 0.5) }

// roundMedian reduces per-round sample sets to one number: stat of
// each round, then the median over rounds. A round's outlier sample
// moves that round's statistic; an outlier round moves nothing.
func roundMedian(rounds [][]float64, stat func([]float64) float64) float64 {
	per := make([]float64, 0, len(rounds))
	for _, r := range rounds {
		if len(r) > 0 {
			per = append(per, stat(r))
		}
	}
	return median(per)
}

// fastQuartile is the quartile of xs on its good side: the third
// quartile of rates (higher true), the first of times. On a shared
// host a neighbour can slow a round and nothing speeds one up, so the
// slow side of a run's rounds is the host's and the fast side the
// program's. The median of the rounds moves once half of them are
// disturbed, this only once three quarters are; and unlike the best
// round it does not follow a single lucky one (a recovery that found its
// arena's pages still mapped ran a quarter faster than its seven peers).
func fastQuartile(xs []float64, higher bool) float64 {
	q1, _, q3 := quartiles(xs)
	if higher {
		return q3
	}
	return q1
}

// tailLevels are the tail percentiles a report may quote, ascending,
// in per mille so that "ten samples beyond" is integer arithmetic.
var tailLevels = []int{900, 950, 990, 999}

// tailPercentile returns the highest level of tailLevels that still
// has at least ten samples beyond it, and its value; level 0 when even
// p90 has fewer (n < 100). A p99 over 200 samples rests on two points
// and is not reported.
func tailPercentile(xs []float64) (level, value float64) {
	for _, l := range tailLevels {
		if len(xs)*(1000-l) >= 10*1000 {
			level = float64(l) / 1000
		}
	}
	if level == 0 {
		return 0, 0
	}
	return level, percentile(xs, level)
}

// quartiles returns the first quartile, median and third quartile of
// xs the way Python's statistics.quantiles(xs, n=4) does (exclusive
// method), which is how the acceptance check computes spreads.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	m := len(s)
	switch m {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j, delta := i*(m+1)/4, i*(m+1)%4
		if j < 1 {
			j, delta = 1, 0
		}
		if j > m-1 {
			j, delta = m-1, 4
		}
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}
