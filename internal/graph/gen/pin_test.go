package gen

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"runtime"
	"strings"
	"testing"

	"tufast/internal/graph"
)

// hashCSR is FNV-64a over a CSR's vertex count, direction flag, degree
// sequence and adjacency: two graphs hash alike only if every row is
// the same, in the same order.
func hashCSR(g *graph.CSR) uint64 {
	h := fnv.New64a()
	var buf []byte
	buf = binary.LittleEndian.AppendUint64(buf, uint64(g.NumVertices()))
	if g.Undirected() {
		buf = append(buf, 1)
	}
	for v := uint32(0); int(v) < g.NumVertices(); v++ {
		nb := g.Neighbors(v)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(len(nb)))
		for _, u := range nb {
			buf = binary.LittleEndian.AppendUint32(buf, u)
		}
		if len(buf) > 1<<16 {
			h.Write(buf)
			buf = buf[:0]
		}
	}
	h.Write(buf)
	return h.Sum64()
}

// pinEdges has duplicates, self-loops, both directions of one edge and
// ids in no order.
var pinEdges = func() []graph.Edge {
	pairs := []uint32{7, 2, 0, 9, 3, 3, 9, 0, 5, 1, 7, 2, 1, 5, 8, 8, 2, 7,
		4, 6, 6, 4, 6, 4, 9, 1, 0, 0, 1, 9, 2, 3, 3, 2, 7, 9}
	es := make([]graph.Edge, 0, len(pairs)/2)
	for i := 0; i < len(pairs); i += 2 {
		es = append(es, graph.Edge{U: pairs[i], V: pairs[i+1]})
	}
	return es
}()

// pinText is one edge-list file: comments, blank lines, extra columns,
// duplicates and a self-loop.
const pinText = "# pinned\n% comment\n3 1\n\n0 2 7\n  2 0\n5 5\n1 3\n4 0\n3 1\n6 4 x\n"

// TestGraphsPinned holds every generator, the builder under each option
// set and the edge-list loader to the graphs they made before the
// builder counted and R-MAT drew in parallel. The hashes do not depend
// on GOMAXPROCS: the generators run at 1 and at 4.
func TestGraphsPinned(t *testing.T) {
	type pin struct {
		name string
		make func() *graph.CSR
		want uint64
	}
	pins := []pin{
		{"rmat-10", func() *graph.CSR { return RMAT(10, 8, 1) }, 0xdd1dd8e1416d1ade},
		{"rmat-10-sym", func() *graph.CSR { return RMAT(10, 8, 1).Symmetrized() }, 0x5d51f53445852f95},
		{"rmat-14", func() *graph.CSR { return RMAT(14, 8, 1) }, 0x969f588d4a145bd8},
		{"rmat-14-sym", func() *graph.CSR { return RMAT(14, 8, 1).Symmetrized() }, 0x34a6f37ef69cab35},
		{"rmat-16", func() *graph.CSR { return RMAT(16, 8, 1) }, 0x55f5a01230f565f4},
		{"rmat-16-sym", func() *graph.CSR { return RMAT(16, 8, 1).Symmetrized() }, 0x943d1f4a8d7128ef},
		{"rmat-8-seed0", func() *graph.CSR { return RMAT(8, 4, 0) }, 0xf29cdd9906eb263},
		{"uniform", func() *graph.CSR { return Uniform(50_000, 8, 1) }, 0x2e246bce0da91472},
		{"uniform-sym", func() *graph.CSR { return Uniform(50_000, 8, 1).Symmetrized() }, 0xf0ce96f8261494db},
		{"powerlaw", func() *graph.CSR { return PowerLaw(20_000, 300_000, 2.1, 1) }, 0x5693f1c5861a7b13},
		{"grid", func() *graph.CSR { return Grid(40, 60) }, 0x29423fc5aaea6672},
		{"star", func() *graph.CSR { return Star(1000) }, 0x23b217737f666790},
	}
	datasets := map[string]uint64{
		"friendster": 0x8b26d75d0b836717, "twitter-mpi": 0xb7cd7f995b05e40e,
		"sk-2005": 0xaccfd940cccf0a7f, "uk-2007-05": 0x1c7e64ef050ab7e8,
	}
	for _, d := range Datasets() {
		pins = append(pins, pin{"dataset-" + d.Name, func() *graph.CSR { return d.Generate(0.1) }, datasets[d.Name]})
	}
	for _, b := range []struct {
		opt  graph.BuildOptions
		want uint64
	}{
		{graph.BuildOptions{}, 0x7eb1260e5e30ccd2},
		{graph.BuildOptions{KeepSelfLoops: true}, 0x50195d872ac2cc48},
		{graph.BuildOptions{Symmetrize: true}, 0x1058e27a85ab5705},
		{graph.BuildOptions{Symmetrize: true, KeepSelfLoops: true}, 0x1bf7400d0f2fe46f},
	} {
		pins = append(pins, pin{fmt.Sprintf("build-%+v", b.opt),
			func() *graph.CSR { return graph.MustBuild(12, pinEdges, b.opt) }, b.want})
	}
	pins = append(pins,
		pin{"build-keep-then-sym", func() *graph.CSR {
			return graph.MustBuild(12, pinEdges, graph.BuildOptions{KeepSelfLoops: true}).Symmetrized()
		}, 0x1058e27a85ab5705},
		pin{"rmat-10-reverse", func() *graph.CSR { return RMAT(10, 8, 1).Reverse() }, 0xe05066f088d35ba})
	pins = append(pins, pin{"read-edge-list", func() *graph.CSR {
		g, err := graph.ReadEdgeList(strings.NewReader(pinText), 0, graph.BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}, 0xae1a0e1d94dec6f6})

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for _, p := range pins {
			g := p.make()
			if err := g.Validate(); err != nil {
				t.Fatalf("GOMAXPROCS %d: %s: %v", procs, p.name, err)
			}
			if got := hashCSR(g); got != p.want {
				t.Errorf("GOMAXPROCS %d: %s hashes %#x, want %#x", procs, p.name, got, p.want)
			}
		}
	}
}
