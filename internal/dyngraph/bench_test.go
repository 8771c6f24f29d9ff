package dyngraph

import (
	"math/rand"
	"runtime"
	"strconv"
	"testing"

	"tufast/internal/graph"
	"tufast/internal/graph/gen"
	"tufast/internal/mem"
)

// benchStore is an R-MAT base (16k vertices, hubs at low ids) under the
// chain history a serving graph carries: ops preferential mutations
// spread over 64 epochs, 70% inserts, targets drawn from the base's own
// arc list so hubs collect the long chains.
func benchStore(b *testing.B, ops int) *Store {
	b.Helper()
	base := gen.RMAT(14, 8, 1)
	n := base.NumVertices()
	s := New(mem.NewSpace(SpaceWords(n, 2*ops)), base)
	tx := directTx{s.sp}
	rng := rand.New(rand.NewSource(1))
	pick := func() uint32 { // preferential: an endpoint of a random base arc
		for {
			u := uint32(rng.Intn(n))
			if nb := base.Neighbors(u); len(nb) > 0 {
				return nb[rng.Intn(len(nb))]
			}
		}
	}
	for i := 0; i < ops; i++ {
		s.SetWriteStamp(uint64(1 + i*64/ops))
		u, v := uint32(rng.Intn(n)), pick()
		if rng.Intn(10) < 3 {
			s.RemoveArc(tx, u, v)
			s.RemoveArc(tx, v, u)
		} else {
			s.AddArc(tx, u, v)
			s.AddArc(tx, v, u)
		}
	}
	return s
}

func BenchmarkCompactAt(b *testing.B) {
	s := benchStore(b, 100_000)
	for _, threads := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run("threads="+strconv.Itoa(threads), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := s.CompactAt(32, threads); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCompactFrom is a job snapshot folded from the one before:
// the snapshot at epoch 62 with the last two epochs' ~3k mutations
// merged in, beside BenchmarkCompactAt's full compaction of the same
// store at epoch 64.
func BenchmarkCompactFrom(b *testing.B) {
	s := benchStore(b, 100_000)
	prev, err := s.CompactAt(62, 2)
	if err != nil {
		b.Fatal(err)
	}
	for _, threads := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run("threads="+strconv.Itoa(threads), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, folded, err := s.CompactFrom(prev, 62, 64, threads); err != nil || !folded {
					b.Fatal(folded, err)
				}
			}
		})
	}
}

func BenchmarkNeighborsAt(b *testing.B) {
	s := benchStore(b, 100_000)
	var hub, leaf, free uint32
	for u := uint32(0); int(u) < s.n; u++ {
		w := s.ChainWords(u)
		switch {
		case w > s.ChainWords(hub):
			hub = u
		case w == blockWords:
			leaf = u
		case w == 0:
			free = u
		}
	}
	for _, c := range []struct {
		name string
		u    uint32
	}{{"leaf", leaf}, {"hub", hub}, {"chain-free", free}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			buf := s.NeighborsAt(c.u, 32, nil) // warm the scratch and the buffer
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = s.NeighborsAt(c.u, 32, buf)
			}
			b.ReportMetric(float64(s.ChainWords(c.u)), "chain-words")
		})
	}
}

// foldTail draws a serve_write-shaped WAL tail of nops ops over base:
// 70% inserts with preferential targets (and sources one time in five),
// 30% deletes of base arcs.
func foldTail(base *graph.CSR, nops int) []Op {
	n := base.NumVertices()
	var arcs [][2]uint32
	for u := uint32(0); int(u) < n; u++ {
		for _, v := range base.Neighbors(u) {
			arcs = append(arcs, [2]uint32{u, v})
		}
	}
	rng := rand.New(rand.NewSource(1))
	ops := make([]Op, nops)
	for i := range ops {
		a := arcs[rng.Intn(len(arcs))]
		if rng.Intn(10) < 3 {
			ops[i] = Op{U: a[0], V: a[1], Del: true}
			continue
		}
		u := uint32(rng.Intn(n))
		if rng.Intn(5) == 0 {
			u = arcs[rng.Intn(len(arcs))][0]
		}
		ops[i] = Op{U: u, V: a[1]}
	}
	return ops
}

// benchFold times one whole fold of ops into base per iteration on the
// given number of workers.
func benchFold(b *testing.B, base *graph.CSR, ops []Op, workers int) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := fold(base, ops, workers); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFold folds a serve_write-shaped WAL tail into serve_write's
// base, 255k ops into a directed R-MAT-16 graph, one whole fold per
// iteration, on one worker and on two.
func BenchmarkFold(b *testing.B) {
	base := gen.RMAT(16, 8, 1)
	ops := foldTail(base, 255_000)
	for _, workers := range []int{1, 2} {
		b.Run("threads="+strconv.Itoa(workers), func(b *testing.B) {
			benchFold(b, base, ops, workers)
			b.ReportMetric(float64(base.NumEdges()), "base-arcs")
		})
	}
}

// BenchmarkFoldCutoff is the table minFoldArcs was set from: folds of
// serve_write's shape scaled down, an R-MAT base of 2^scale vertices and
// a tail of half its arcs, on one worker and on two.
func BenchmarkFoldCutoff(b *testing.B) {
	for scale := 7; scale <= 13; scale++ {
		base := gen.RMAT(scale, 8, 1)
		ops := foldTail(base, base.NumEdges()/2)
		for _, workers := range []int{1, 2} {
			name := "arcs=" + strconv.Itoa(base.NumEdges()+len(ops)) + "/threads=" + strconv.Itoa(workers)
			b.Run(name, func(b *testing.B) { benchFold(b, base, ops, workers) })
		}
	}
}
