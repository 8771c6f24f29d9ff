package dyngraph

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"tufast/internal/graph"
	"tufast/internal/graph/gen"
)

// refFold is the fold's definition, op by op on a set of arcs per row:
// the oracle every worker count is held to.
func refFold(base *graph.CSR, ops []Op) ([][]uint32, FoldStats) {
	n := base.NumVertices()
	rows := make([]map[uint32]bool, n)
	for u := uint32(0); int(u) < n; u++ {
		rows[u] = map[uint32]bool{}
		for _, v := range base.Neighbors(u) {
			if v != u {
				rows[u][v] = true
			}
		}
	}
	// flip sets arc u->v to live, reporting whether that changed it.
	flip := func(u, v uint32, live bool) bool {
		if rows[u][v] == live {
			return false
		}
		if live {
			rows[u][v] = true
		} else {
			delete(rows[u], v)
		}
		return true
	}
	var st FoldStats
	for _, op := range ops {
		changed := false
		if op.U != op.V {
			changed = flip(op.U, op.V, !op.Del)
			if base.Undirected() {
				changed = flip(op.V, op.U, !op.Del) || changed
			}
		}
		switch {
		case !changed:
			st.NoOps++
		case op.Del:
			st.Removed++
		default:
			st.Inserted++
		}
	}
	out := make([][]uint32, n)
	for u, row := range rows {
		for v := range row {
			out[u] = append(out[u], v)
		}
		slices.Sort(out[u])
	}
	return out, st
}

// foldOps draws nops ops over base where every case a split fold can get
// wrong appears: self-loops, the same arc inserted, deleted and inserted
// again (in either orientation, so an undirected op's two arcs fall in
// different ranges), deletes of base arcs and of absent ones, and a hub,
// vertex hub, on one end of half the ops, so its row outweighs a range's
// share.
func foldOps(base *graph.CSR, nops int, hub uint32, seed int64) []Op {
	rng := rand.New(rand.NewSource(seed))
	n := base.NumVertices()
	ops := make([]Op, 0, nops)
	for len(ops) < nops {
		var op Op
		switch k := rng.Intn(16); {
		case k == 0:
			u := uint32(rng.Intn(n))
			op = Op{U: u, V: u}
		case k < 4 && len(ops) > 0:
			op = ops[rng.Intn(len(ops))]
			if rng.Intn(2) == 0 {
				op.U, op.V = op.V, op.U
			}
		case k < 6:
			u := uint32(rng.Intn(n))
			if nb := base.Neighbors(u); len(nb) > 0 {
				op = Op{U: u, V: nb[rng.Intn(len(nb))]}
			} else {
				op = Op{U: u, V: uint32(rng.Intn(n))}
			}
		case k < 14:
			op = Op{U: hub, V: uint32(rng.Intn(n))}
			if rng.Intn(2) == 0 {
				op.U, op.V = op.V, op.U
			}
		default:
			op = Op{U: uint32(rng.Intn(n)), V: uint32(rng.Intn(n))}
		}
		op.Del = rng.Intn(3) == 0
		ops = append(ops, op)
	}
	return ops
}

// TestFoldParallelMatchesSerial folds the same tails into directed and
// undirected bases, with self-loops in the base and without, on 1, 2 and
// 4 workers: every worker count must build the same CSR row for row, and
// count the same stats, as the op-by-op definition.
func TestFoldParallelMatchesSerial(t *testing.T) {
	directed := gen.RMAT(10, 8, 3)
	var edges []graph.Edge
	for u := uint32(0); int(u) < directed.NumVertices(); u++ {
		for _, v := range directed.Neighbors(u) {
			edges = append(edges, graph.Edge{U: u, V: v})
		}
		if u%7 == 0 {
			edges = append(edges, graph.Edge{U: u, V: u})
		}
	}
	n := directed.NumVertices()
	bases := map[string]*graph.CSR{"directed": directed}
	for _, sym := range []bool{false, true} {
		g, err := graph.Build(n, edges, graph.BuildOptions{Symmetrize: sym, KeepSelfLoops: true})
		if err != nil {
			t.Fatal(err)
		}
		bases[fmt.Sprintf("self-loops undirected=%v", sym)] = g
	}
	for name, base := range bases {
		for _, nops := range []int{1, 500, 20_000} {
			for seed := int64(1); seed <= 2; seed++ {
				ops := foldOps(base, nops, uint32(seed*37)%uint32(n), seed)
				wantRows, wantSt := refFold(base, ops)
				for _, workers := range []int{1, 2, 4} {
					what := fmt.Sprintf("%s, %d ops, seed %d, %d workers", name, nops, seed, workers)
					got, st, err := fold(base, ops, workers)
					if err != nil {
						t.Fatalf("%s: %v", what, err)
					}
					if st != wantSt {
						t.Fatalf("%s: stats %+v, want %+v", what, st, wantSt)
					}
					if got.NumVertices() != n || got.Undirected() != base.Undirected() {
						t.Fatalf("%s: %d vertices undirected=%v", what, got.NumVertices(), got.Undirected())
					}
					for u := uint32(0); int(u) < n; u++ {
						if row := got.Neighbors(u); !slices.Equal(row, wantRows[u]) {
							t.Fatalf("%s: row %d is %v, want %v", what, u, row, wantRows[u])
						}
					}
				}
			}
		}
	}
}

// TestFoldRefusesOutOfRange checks that a bad op is an error naming it on
// any worker count, wherever it sits: the count runs over chunks of the
// log, and the first bad op in log order must win.
func TestFoldRefusesOutOfRange(t *testing.T) {
	base := gen.RMAT(10, 8, 1)
	n := uint32(base.NumVertices())
	ops := foldOps(base, 5000, 1, 1)
	for _, at := range []int{0, 2499, 2500, 4999} {
		bad := slices.Clone(ops)
		bad[at] = Op{U: 1, V: n}
		bad[4999-at/2] = Op{U: n + 3, V: 0}
		first := min(at, 4999-at/2)
		for _, workers := range []int{1, 2, 4} {
			_, _, err := fold(base, bad, workers)
			want := fmt.Sprintf("fold op %d ", first)
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("bad ops at %d and %d, %d workers: error %v, want one naming op %d", at, 4999-at/2, workers, err, first)
			}
		}
	}
}

// TestFoldKeyLayout checks the op-count guard against the key layout: the
// last op index the guard lets through keeps its target, its order and
// its arc's flag in the key, and one op more is refused.
func TestFoldKeyLayout(t *testing.T) {
	last := maxFoldOps - 1
	for _, side := range []bool{false, true} {
		for _, del := range []bool{false, true} {
			k := foldKey(math.MaxUint32, last, side, del)
			wantArc := uint32(2 * last)
			if side {
				wantArc++
			}
			if uint32(k>>32) != math.MaxUint32 || foldArc(k) != wantArc || (k&1 != 0) != del {
				t.Fatalf("key %#x of op %d side=%v del=%v decodes to target %d arc %d", k, last, side, del, k>>32, foldArc(k))
			}
			if foldKey(7, last-1, true, true) >= foldKey(7, last, false, false) {
				t.Fatalf("op %d's key does not sort before op %d's", last-1, last)
			}
		}
	}
	if foldLenErr(maxFoldOps) != nil || foldLenErr(maxFoldOps+1) == nil {
		t.Fatalf("the guard lets %d ops through: %v; %d: %v",
			maxFoldOps, foldLenErr(maxFoldOps), maxFoldOps+1, foldLenErr(maxFoldOps+1))
	}
}
