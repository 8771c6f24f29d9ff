package graph

import (
	"bytes"
	"slices"
	"strings"
	"testing"
)

// FuzzBuild holds Build to a map-and-sort reference: arcs over n
// vertices come from pairs of bytes, so ids reach past n as often as
// not, and an id out of range must be an error.
func FuzzBuild(f *testing.F) {
	f.Fuzz(func(t *testing.T, n uint8, data []byte, sym, keep bool) {
		edges := make([]Edge, 0, len(data)/2)
		inRange := n > 0
		for i := 0; i+1 < len(data); i += 2 {
			edges = append(edges, Edge{U: uint32(data[i]), V: uint32(data[i+1])})
			inRange = inRange && data[i] < n && data[i+1] < n
		}
		opt := BuildOptions{Symmetrize: sym, KeepSelfLoops: keep}
		g, err := Build(int(n), edges, opt)
		if !inRange {
			if err == nil {
				t.Fatalf("n=%d %v: no error for an id out of range", n, edges)
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
		rows := make([][]uint32, n)
		add := func(u, v uint32) {
			if u != v || keep {
				rows[u] = append(rows[u], v)
			}
		}
		for _, e := range edges {
			add(e.U, e.V)
			if sym {
				add(e.V, e.U)
			}
		}
		for v := range rows {
			slices.Sort(rows[v])
			want := slices.Compact(rows[v])
			if got := g.Neighbors(uint32(v)); !slices.Equal(got, want) {
				t.Fatalf("n=%d %+v: row %d is %v, want %v", n, opt, v, got, want)
			}
		}
		if g.Undirected() != sym {
			t.Fatalf("Undirected() = %v with Symmetrize %v", g.Undirected(), sym)
		}
		if !sym {
			// The undirected view of the directed graph is the
			// symmetrized build without self-loops, row for row.
			u := g.Symmetrized()
			want := MustBuild(int(n), edges, BuildOptions{Symmetrize: true})
			if !sameCSR(u, want) || u.Validate() != nil {
				t.Fatalf("n=%d %v: Symmetrized differs from the symmetrized build", n, edges)
			}
		}
	})
}

// FuzzReadEdgeList feeds the loader arbitrary text: it returns a graph
// or an error, never panics, and what it returns round-trips through
// WriteEdgeList. The text is read with 1024 vertices first, so a large
// id is an error there rather than a huge allocation, and only text that
// fits is read again with the count left to the loader.
func FuzzReadEdgeList(f *testing.F) {
	f.Fuzz(func(t *testing.T, text string, sym bool) {
		opt := BuildOptions{Symmetrize: sym}
		if _, err := ReadEdgeList(strings.NewReader(text), 1024, opt); err != nil {
			return
		}
		g, err := ReadEdgeList(strings.NewReader(text), 0, opt)
		if err != nil {
			t.Fatalf("fits 1024 vertices but not its own count: %v", err)
		}
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := g.WriteEdgeList(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := ReadEdgeList(&buf, g.NumVertices(), opt)
		if err != nil {
			t.Fatal(err)
		}
		if !sameCSR(back, g) {
			t.Fatal("graph differs after WriteEdgeList and ReadEdgeList")
		}
	})
}

func sameCSR(a, b *CSR) bool {
	return a.n == b.n && a.undirected == b.undirected &&
		slices.Equal(a.offsets, b.offsets) && slices.Equal(a.adj, b.adj)
}
