package obs

import (
	"math/bits"
	"sync/atomic"
)

// HistBuckets is the bucket count of every histogram. Bucket 0 holds
// exact zeros; bucket i (i ≥ 1) holds values in [2^(i-1), 2^i). 48
// buckets cover every value up to 2^47 (≈ 39 hours in nanoseconds);
// anything larger clamps into the last bucket.
const HistBuckets = 48

// Histogram is a power-of-two-bucket histogram with atomic counters.
// The zero value is ready to use. Record is two atomic adds (one for a
// zero value); Snapshot is wait-free and mergeable with other snapshots.
type Histogram struct {
	counts [HistBuckets]atomic.Uint64
	sum    atomic.Uint64
}

// bucketOf maps a value to its bucket index.
func bucketOf(v uint64) int {
	b := bits.Len64(v) // 0 for 0, k for [2^(k-1), 2^k)
	if b >= HistBuckets {
		b = HistBuckets - 1
	}
	return b
}

// Record folds v into the histogram.
func (h *Histogram) Record(v uint64) {
	h.counts[bucketOf(v)].Add(1)
	if v != 0 {
		h.sum.Add(v)
	}
}

// addTo folds the histogram into s, which must have HistBuckets counts.
func (h *Histogram) addTo(s *HistSnapshot) {
	for i := range h.counts {
		s.Counts[i] += h.counts[i].Load()
	}
	s.Sum += h.sum.Load()
}

// Reset zeroes the histogram.
func (h *Histogram) Reset() {
	for i := range h.counts {
		h.counts[i].Store(0)
	}
	h.sum.Store(0)
}

// Snapshot returns a plain-value copy.
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{Counts: make([]uint64, HistBuckets)}
	h.addTo(&s)
	return s
}

// HistSnapshot is an immutable copy of a Histogram.
type HistSnapshot struct {
	// Counts[0] counts exact zeros; Counts[i] counts values in
	// [2^(i-1), 2^i).
	Counts []uint64 `json:"counts"`
	// Sum is the exact sum of all recorded values.
	Sum uint64 `json:"sum"`
}

// BucketUpper returns the inclusive upper bound of bucket i.
func BucketUpper(i int) uint64 {
	if i <= 0 {
		return 0
	}
	return 1<<uint(i) - 1
}

// Count returns the total number of recorded values.
func (s HistSnapshot) Count() uint64 {
	var n uint64
	for _, c := range s.Counts {
		n += c
	}
	return n
}

// Mean returns the exact mean of recorded values (0 when empty).
func (s HistSnapshot) Mean() float64 {
	n := s.Count()
	if n == 0 {
		return 0
	}
	return float64(s.Sum) / float64(n)
}

// Quantile returns an estimate of the q-quantile (q in [0,1]) within
// the bucket the quantile falls in: the bucket's values are taken as
// spread evenly over its range, so the k-th of c values in [lo, hi]
// reads lo + (hi-lo)·(k+½)/c. The estimate never exceeds the bucket's
// upper edge (so Quantile(1) is at most the top occupied bucket's edge)
// and is 0 for an empty histogram.
func (s HistSnapshot) Quantile(q float64) uint64 {
	n := s.Count()
	if n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(q * float64(n))
	if rank >= n {
		rank = n - 1
	}
	var cum uint64
	for i, c := range s.Counts {
		if cum+c > rank {
			if i == 0 {
				return 0
			}
			lo, hi := uint64(1)<<uint(i-1), BucketUpper(i)
			return lo + uint64(float64(hi-lo)*(float64(rank-cum)+0.5)/float64(c))
		}
		cum += c
	}
	return BucketUpper(len(s.Counts) - 1)
}

// Merge folds other into s and returns the merged snapshot. Snapshots
// taken from different histograms (different workers, different runs)
// merge exactly because buckets are fixed.
func (s HistSnapshot) Merge(other HistSnapshot) HistSnapshot {
	out := HistSnapshot{Counts: make([]uint64, HistBuckets), Sum: s.Sum + other.Sum}
	copy(out.Counts, s.Counts)
	for i, c := range other.Counts {
		if i < len(out.Counts) {
			out.Counts[i] += c
		}
	}
	return out
}
