package worklist

import "sort"

// Ranges cuts [0, n) into at most parts contiguous ranges of near-equal
// weight and returns their bounds: range k is [b[k], b[k+1]), b[0] is 0
// and the last bound is n. prefix(i) is the weight of items [0, i): it
// never decreases, and prefix(0) is 0. This is the prefix-sum cost model
// of Mithril's NaiveCostModel: a range's cost is the difference of two
// prefix sums, so cutting takes a binary search per cut and no pass over
// the items.
//
// Cut k lands on the first item at which the prefix reaches k shares of
// the total, so a range outweighs its share by less than one item. An
// item heavier than a share (a hub's row) makes the next cuts land
// together, and the empty ranges between them are dropped: there may be
// fewer ranges than parts. With n = 0 there are none, and b is [0].
func Ranges(n, parts int, prefix func(i int) uint64) []int {
	if n <= 0 {
		return []int{0}
	}
	parts = max(1, min(parts, n))
	total, p := prefix(n), uint64(parts)
	b := make([]int, 1, parts+1)
	for k := uint64(1); k < p; k++ {
		// k shares of the total, floor(total*k/parts) without overflow.
		share := total/p*k + total%p*k/p
		lo := b[len(b)-1]
		cut := lo + sort.Search(n-lo, func(i int) bool { return prefix(lo+i) >= share })
		if cut > lo && cut < n {
			b = append(b, cut)
		}
	}
	return append(b, n)
}

// EachRange runs fn(k, lo, hi) for every range k of bounds (Ranges'
// form) on up to workers goroutines, each claiming the next range not
// yet run (Range with a grain of one range), and returns once all of
// them have run.
func EachRange(bounds []int, workers int, fn func(k, lo, hi int)) {
	Range(len(bounds)-1, workers, 1, func(_, k, end int) {
		for ; k < end; k++ {
			fn(k, bounds[k], bounds[k+1])
		}
	})
}
