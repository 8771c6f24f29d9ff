package bench

import (
	"fmt"
	"sync"

	"tufast/internal/graph/gen"
	"tufast/internal/htm"
	"tufast/internal/mem"
)

// Fig4 reproduces the §III abort-probability experiment: two workers
// repeatedly execute transactions of a given footprint at random
// locations of a large region and report the abort fraction. Random
// access overflows the set-associative capacity model well before 32 KB;
// a sequential column shows the dense-packing limit for contrast.
func Fig4(o Options) []Table {
	o = o.normalize()
	spaceWords := 1 << 24 // 128 MiB of data: "1 GB" scaled; the capacity
	// model only sees line counts, so the curve is identical.
	if o.Short {
		spaceWords = 1 << 20
	}
	sp := mem.NewSpace(spaceWords)
	trials := 400
	if o.Short {
		trials = 60
	}

	t := &Table{
		ID:     "fig4",
		Title:  "HTM abort probability vs transaction size (2 workers, random locations)",
		Header: []string{"size_kb", "abort_prob_random", "abort_prob_sequential"},
		Notes: []string{
			"paper shape: rises with size, ~1.0 beyond 30KB for random access",
		},
	}
	sizes := []int{1, 2, 4, 8, 12, 16, 20, 24, 28, 30, 32, 36, 40}
	for _, kb := range sizes {
		words := kb * 1024 / 8
		t.AddRow(kb, abortProb(sp, words, trials, true), abortProb(sp, words, trials, false))
	}
	return []Table{*t}
}

// abortProb measures the abort fraction of transactions touching `words`
// words, at random or sequential addresses, with two concurrent workers.
func abortProb(sp *mem.Space, words, trials int, random bool) float64 {
	var wg sync.WaitGroup
	results := make([]float64, 2)
	for core := 0; core < 2; core++ {
		wg.Add(1)
		go func(coreID int) {
			defer wg.Done()
			tx := htm.NewTx(sp, nil)
			rng := uint64(coreID)*0xD1342543DE82EF95 + 99
			next := func() uint64 {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				return rng
			}
			aborts := 0
			for trial := 0; trial < trials; trial++ {
				tx.Begin()
				ok := true
				if random {
					for i := 0; i < words; i += mem.WordsPerLine {
						a := mem.Addr(next() % uint64(sp.Cap()))
						if _, code := tx.Read(a); code != htm.AbortNone {
							ok = false
							break
						}
					}
				} else {
					start := mem.Addr(next() % uint64(sp.Cap()-words))
					for i := 0; i < words; i += mem.WordsPerLine {
						if _, code := tx.Read(start + mem.Addr(i)); code != htm.AbortNone {
							ok = false
							break
						}
					}
				}
				if ok && tx.Commit() != htm.AbortNone {
					ok = false
				}
				if !ok {
					aborts++
				}
			}
			results[coreID] = float64(aborts) / float64(trials)
		}(core)
	}
	wg.Wait()
	return (results[0] + results[1]) / 2
}

// Fig5 reproduces the degree-distribution plot: log2-bucketed vertex
// counts for the twitter-mpi stand-in, plus the MLE power-law exponent.
func Fig5(o Options) []Table {
	o = o.normalize()
	ds, _ := gen.DatasetByName("twitter-mpi")
	g := ds.Generate(o.Scale)
	buckets, zeros := g.DegreeHistogram()
	t := &Table{
		ID:     "fig5",
		Title:  "Out-degree distribution, twitter-mpi stand-in (log-log)",
		Header: []string{"degree_bucket", "vertices"},
		Notes: []string{
			fmt.Sprintf("zero-degree vertices: %d", zeros),
			fmt.Sprintf("MLE power-law exponent alpha = %.2f (paper: straight line in log-log)", g.PowerLawFit(4)),
			fmt.Sprintf("max degree = %d (HTM capacity is %d words)", g.MaxDegree(), htm.CapacityWords),
		},
	}
	for b, c := range buckets {
		if c == 0 {
			continue
		}
		t.AddRow(fmt.Sprintf("[%d,%d)", 1<<b, 1<<(b+1)), c)
	}
	return []Table{*t}
}

// Fig6 reproduces the contention heat map: for two concurrent vertex
// jobs (read v and neighbors, write v), the probability their footprints
// conflict, bucketed by the two degrees.
func Fig6(o Options) []Table {
	o = o.normalize()
	ds, _ := gen.DatasetByName("twitter-mpi")
	g := ds.Generate(o.Scale)
	n := g.NumVertices()

	// Bucket vertices by log2(degree).
	const nb = 8
	buckets := make([][]uint32, nb)
	for v := uint32(0); int(v) < n; v++ {
		d := g.Degree(v)
		b := 0
		for dd := d; dd > 1 && b < nb-1; dd >>= 2 {
			b++
		}
		buckets[b] = append(buckets[b], v)
	}

	samples := 400
	if o.Short {
		samples = 80
	}
	rng := uint64(0xFEED)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	// Conflict: writer set {v} intersects reader set {u} ∪ N(u) or vice
	// versa (write-write and write-read conflicts of the RM job).
	conflict := func(a, b uint32) bool {
		if a == b {
			return true
		}
		return hasNeighbor(g.Neighbors(a), b) || hasNeighbor(g.Neighbors(b), a)
	}
	t := &Table{
		ID:     "fig6",
		Title:  "P(conflict) of two concurrent vertex jobs by degree bucket",
		Header: []string{"deg_bucket_a", "deg_bucket_b", "p_conflict"},
		Notes: []string{
			"paper shape: probability grows with both degrees; hot corner at high-high",
		},
	}
	for a := 0; a < nb; a++ {
		for b := a; b < nb; b++ {
			if len(buckets[a]) == 0 || len(buckets[b]) == 0 {
				continue
			}
			hits := 0
			for s := 0; s < samples; s++ {
				va := buckets[a][int(next()%uint64(len(buckets[a])))]
				vb := buckets[b][int(next()%uint64(len(buckets[b])))]
				if conflict(va, vb) {
					hits++
				}
			}
			t.AddRow(fmt.Sprintf("4^%d", a), fmt.Sprintf("4^%d", b),
				float64(hits)/float64(samples))
		}
	}
	return []Table{*t}
}

func hasNeighbor(nb []uint32, x uint32) bool {
	lo, hi := 0, len(nb)
	for lo < hi {
		mid := (lo + hi) / 2
		if nb[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(nb) && nb[lo] == x
}

// fig7Cols are the ids of Fig. 7's 2PL, OCC and TO columns; its 2PL locks
// exclusively up front.
var fig7Cols = []string{"2pl-exclusive", "occ", "to"}

// Fig7 reproduces the §III scheduler-vs-contention study: a uniform
// degree graph, with the contention rate dialled by routing a fraction
// of transactions to a small hot vertex set; 2PL, OCC and TO throughput
// are reported per contention level.
func Fig7(o Options) []Table {
	o = o.normalize()
	n := int(20_000 * o.Scale)
	if n < 1000 {
		n = 1000
	}
	g := gen.Uniform(n, 8, 0x717)
	txns := 60_000
	if o.Short {
		txns = 8_000
	}

	t := &Table{
		ID:     "fig7",
		Title:  "Scheduler throughput (txn/s) vs contention rate, uniform graph",
		Header: []string{"contention", "2PL", "OCC", "TO"},
		Notes: []string{
			"paper shape: OCC wins near zero contention, 2PL wins at high contention (crossover)",
		},
	}
	for _, contention := range []float64{0, 0.2, 0.4, 0.6, 0.8, 1.0} {
		row := []any{fmt.Sprintf("%.1f", contention)}
		for _, id := range fig7Cols {
			sp, base := newWorkloadSpace(n)
			row = append(row, runWorkload(g, sp, newScheduler(id, sp, n), RM, base, txns, o.Threads, contention))
		}
		t.AddRow(row...)
	}
	return []Table{*t}
}
