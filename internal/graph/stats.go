package graph

import "math"

// DegreeHistogram returns, bucketed by log2(degree), how many vertices
// fall into each bucket (Figure 5's log-log degree distribution). Index i
// counts vertices with degree in [2^i, 2^(i+1)); index 0 additionally
// holds degree-1, and zero-degree vertices are returned separately.
func (g *CSR) DegreeHistogram() (buckets []uint64, zeros uint64) {
	for v := uint32(0); int(v) < g.n; v++ {
		d := g.Degree(v)
		if d == 0 {
			zeros++
			continue
		}
		b := 0
		for dd := d; dd > 1; dd >>= 1 {
			b++
		}
		for len(buckets) <= b {
			buckets = append(buckets, 0)
		}
		buckets[b]++
	}
	return buckets, zeros
}

// PowerLawFit estimates the degree-distribution exponent alpha via the
// maximum-likelihood estimator over vertices with degree >= dmin
// (Clauset-Shalizi-Newman): alpha = 1 + n / sum(ln(d_i / (dmin - 0.5))).
func (g *CSR) PowerLawFit(dmin int) float64 {
	if dmin < 1 {
		dmin = 1
	}
	var n int
	var s float64
	for v := uint32(0); int(v) < g.n; v++ {
		d := g.Degree(v)
		if d >= dmin {
			n++
			s += math.Log(float64(d) / (float64(dmin) - 0.5))
		}
	}
	if n == 0 || s == 0 {
		return 0
	}
	return 1 + float64(n)/s
}
