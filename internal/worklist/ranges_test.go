package worklist

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// checkRanges holds b to Ranges' contract over weights w: it starts at 0
// and ends at len(w), rises strictly, has at most parts ranges, and no
// range outweighs its share of the total by a whole item.
func checkRanges(t *testing.T, w []uint64, parts int, b []int) {
	t.Helper()
	n := len(w)
	if n == 0 {
		if len(b) != 1 || b[0] != 0 {
			t.Fatalf("n=0: bounds %v, want [0]", b)
		}
		return
	}
	if b[0] != 0 || b[len(b)-1] != n {
		t.Fatalf("bounds %v do not span [0, %d)", b, n)
	}
	if len(b)-1 > parts {
		t.Fatalf("%d ranges for %d parts: %v", len(b)-1, parts, b)
	}
	var total uint64
	for _, x := range w {
		total += x
	}
	share := total / uint64(min(parts, n))
	for k := 0; k+1 < len(b); k++ {
		lo, hi := b[k], b[k+1]
		if lo >= hi {
			t.Fatalf("range %d empty or reversed: %v", k, b)
		}
		var sum, heaviest uint64
		for _, x := range w[lo:hi] {
			sum += x
			heaviest = max(heaviest, x)
		}
		// Each cut stops on the first item that reaches its share, so a
		// range is its share plus less than its heaviest item, give or
		// take the rounding of the shares.
		if sum > share+heaviest+1 {
			t.Fatalf("range %d [%d, %d) weighs %d, share %d, heaviest item %d", k, lo, hi, sum, share, heaviest)
		}
	}
}

// ranges runs Ranges over the weights w.
func ranges(w []uint64, parts int) []int {
	pre := make([]uint64, len(w)+1)
	for i, x := range w {
		pre[i+1] = pre[i] + x
	}
	return Ranges(len(w), parts, func(i int) uint64 { return pre[i] })
}

func TestRangesBalanceWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(200)
		w := make([]uint64, n)
		for i := range w {
			switch rng.Intn(4) {
			case 0: // weightless items
			case 1: // a hub
				w[i] = uint64(rng.Intn(10_000))
			default:
				w[i] = uint64(rng.Intn(20))
			}
		}
		for _, parts := range []int{1, 2, 3, 4, 8, 300} {
			checkRanges(t, w, parts, ranges(w, parts))
		}
	}
}

func TestRangesEdges(t *testing.T) {
	for _, c := range []struct {
		w     []uint64
		parts int
		want  []int
	}{
		{nil, 4, []int{0}},
		{[]uint64{5}, 4, []int{0, 1}},
		{[]uint64{1, 1, 1, 1}, 2, []int{0, 2, 4}},
		{[]uint64{1, 1, 1, 1}, 0, []int{0, 4}},
		{[]uint64{0, 0, 0}, 3, []int{0, 3}},
		// One item holds nearly all the weight: the cuts that would split
		// it land together and the empty ranges are dropped.
		{[]uint64{1, 100, 1, 1}, 4, []int{0, 2, 4}},
		{[]uint64{100, 1, 1, 1}, 4, []int{0, 1, 4}},
	} {
		if got := ranges(c.w, c.parts); !slices.Equal(got, c.want) {
			t.Fatalf("%v in %d parts: %v, want %v", c.w, c.parts, got, c.want)
		}
	}
}

func TestEachRangeRunsEveryRangeOnce(t *testing.T) {
	for _, b := range [][]int{{0}, {0, 7}, {0, 3, 4, 9}, {0, 1, 2, 3, 4, 5}} {
		var mu sync.Mutex
		seen := map[int][2]int{}
		EachRange(b, 3, func(k, lo, hi int) {
			mu.Lock()
			defer mu.Unlock()
			if _, dup := seen[k]; dup {
				t.Errorf("bounds %v: range %d ran twice", b, k)
			}
			seen[k] = [2]int{lo, hi}
		})
		if len(seen) != len(b)-1 {
			t.Fatalf("bounds %v: %d ranges ran, want %d", b, len(seen), len(b)-1)
		}
		for k, r := range seen {
			if r != [2]int{b[k], b[k+1]} {
				t.Fatalf("bounds %v: range %d ran as %v", b, k, r)
			}
		}
	}
}
