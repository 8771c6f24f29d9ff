package dyngraph

import (
	"math/rand"
	"runtime"
	"strconv"
	"testing"

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
