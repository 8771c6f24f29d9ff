// fold_test.go — FoldStream, the one-pass fold of a log into a base
// graph: it must end where applying the same records through ApplyOwned,
// one batch each, ends — row for row after Compact, and in the mutation
// counters, whether a record applies on one owner or fans out — and
// refuse an op out of range.
package tufast_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"tufast"
)

// foldLog draws records of perRecord ops over g in which every case a
// fold can get wrong appears: the same edge inserted, deleted and
// re-inserted within a record and across records (in either
// orientation), self-loops, deletes of absent arcs, inserts of live ones,
// and enough ops on the hubs that their chains outgrow a walked chain
// and get an index. Times rise along the log, so ApplyOwned keeps each
// record's order.
func foldLog(g *tufast.Graph, records, perRecord int, seed int64) [][]tufast.StreamOp {
	rng := rand.New(rand.NewSource(seed))
	n := g.NumVertices()
	var log [][]tufast.StreamOp
	var seen []tufast.StreamOp // every op so far: the pool repeats draw from
	time := uint64(0)
	for r := 0; r < records; r++ {
		var rec []tufast.StreamOp
		for len(rec) < perRecord {
			var op tufast.StreamOp
			switch k := rng.Intn(10); {
			case k == 0: // self-loop
				u := uint32(rng.Intn(n))
				op = tufast.StreamOp{U: u, V: u}
			case k < 4 && len(seen) > 0: // repeat an earlier edge
				op = seen[rng.Intn(len(seen))]
				if rng.Intn(2) == 0 {
					op.U, op.V = op.V, op.U
				}
			case k < 6: // a base arc: a live insert or a delete that lands
				u := uint32(rng.Intn(8))
				if rng.Intn(2) == 0 {
					u = uint32(rng.Intn(n))
				}
				if nb := g.Neighbors(u); len(nb) > 0 {
					op = tufast.StreamOp{U: u, V: nb[rng.Intn(len(nb))]}
				} else {
					op = tufast.StreamOp{U: u, V: uint32(rng.Intn(n))}
				}
			default: // mostly absent arcs, hubs over-drawn
				op = tufast.StreamOp{U: skewedVertex(rng, n), V: skewedVertex(rng, n)}
			}
			op.Del = rng.Intn(3) == 0
			time++
			op.Time = time
			rec = append(rec, op)
			seen = append(seen, op)
		}
		log = append(log, rec)
	}
	return log
}

// TestFoldMatchesApplyOwned folds logs into directed and undirected
// R-MAT bases and applies the same records to a DynGraph on each base,
// one ApplyOwned call per record, on 1, 2 and 4 threads: the folded
// graph must equal the DynGraph's Compact row for row, and the fold's
// counts its MutationStats. Records of 150 ops apply on one owner; the
// larger ones fan out, over two owners and over as many as four, and
// each record's outcome must be the same whatever the owner count.
func TestFoldMatchesApplyOwned(t *testing.T) {
	shapes := []struct {
		seeds, records, perRecord int
	}{
		{3, 40, 150},
		{1, 3, 2 * tufast.MinOwnerOps},
		{1, 2, 4 * tufast.MinOwnerOps},
	}
	for _, sh := range shapes {
		for seed := int64(1); seed <= int64(sh.seeds); seed++ {
			directed := tufast.GenerateRMAT(9, 8, uint64(seed))
			for _, g := range []*tufast.Graph{directed, directed.Undirect()} {
				name := fmt.Sprintf("seed %d undirected=%v records of %d", seed, g.Undirected(), sh.perRecord)
				foldMatchesOnThreads(t, name, g, foldLog(g, sh.records, sh.perRecord, seed))
			}
		}
	}
}

// foldMatchesOnThreads folds log into g and applies its records to a
// DynGraph on g at 1, 2 and 4 threads, holding each to the fold and
// every record's outcome to the one-thread run's.
func foldMatchesOnThreads(t *testing.T, name string, g *tufast.Graph, log [][]tufast.StreamOp) {
	t.Helper()
	var all []tufast.StreamOp
	for _, rec := range log {
		all = append(all, rec...)
	}
	folded, st, err := tufast.FoldStream(g, all)
	if err != nil {
		t.Fatal(err)
	}
	var oneThread []tufast.StreamStats
	for _, threads := range []int{1, 2, 4} {
		name := fmt.Sprintf("%s, threads %d", name, threads)
		_, d := newDynFixture(t, g, len(all), tufast.Options{Threads: threads})
		var outcomes []tufast.StreamStats
		for _, rec := range log {
			stats, err := d.ApplyOwned(slices.Clone(rec))
			if err != nil {
				t.Fatal(err)
			}
			outcomes = append(outcomes, stats)
		}
		if threads == 1 {
			oneThread = outcomes
		}
		for r := range outcomes {
			if outcomes[r] != oneThread[r] {
				t.Fatalf("%s: record %d applied %+v, on one thread %+v", name, r, outcomes[r], oneThread[r])
			}
		}
		foldMatches(t, name, g, folded, st, d, len(all))
	}
}

// foldMatches holds d, which applied the n ops FoldStream folded into
// folded with counts st, to the fold: row for row after Compact, and in
// MutationStats.
func foldMatches(t *testing.T, name string, g, folded *tufast.Graph, st tufast.StreamStats, d *tufast.DynGraph, n int) {
	t.Helper()
	want, err := d.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if folded.NumVertices() != want.NumVertices() || folded.Undirected() != want.Undirected() {
		t.Fatalf("%s: folded %d vertices undirected=%v, compacted %d undirected=%v",
			name, folded.NumVertices(), folded.Undirected(), want.NumVertices(), want.Undirected())
	}
	for v := uint32(0); int(v) < g.NumVertices(); v++ {
		if got, exp := folded.Neighbors(v), want.Neighbors(v); !slices.Equal(got, exp) {
			t.Fatalf("%s: row %d folded %v, ApplyOwned %v", name, v, got, exp)
		}
	}
	ins, rem, noops := d.MutationStats()
	if uint64(st.Inserted) != ins || uint64(st.Removed) != rem || uint64(st.NoOps) != noops ||
		st.Applied != n {
		t.Fatalf("%s: fold counted %d/%d/%d of %d, ApplyOwned %d/%d/%d",
			name, st.Inserted, st.Removed, st.NoOps, st.Applied, ins, rem, noops)
	}
	if ins == 0 || rem == 0 || noops == 0 {
		t.Fatalf("%s: log exercised %d/%d/%d inserts/removes/no-ops, want all three", name, ins, rem, noops)
	}
}

// TestFoldRefusesOutOfRangeOp checks an op naming a vertex past the
// graph is an error, not a panic, wherever it sits in the log.
func TestFoldRefusesOutOfRangeOp(t *testing.T) {
	g := tufast.GenerateRMAT(6, 4, 1)
	n := uint32(g.NumVertices())
	for _, bad := range []tufast.StreamOp{{U: n, V: 1}, {U: 1, V: n}, {U: n + 7, V: n + 7}} {
		ops := []tufast.StreamOp{{U: 0, V: 1}, bad, {U: 2, V: 3, Del: true}}
		if _, _, err := tufast.FoldStream(g, ops); err == nil {
			t.Fatalf("fold accepted op (%d, %d) on %d vertices", bad.U, bad.V, n)
		}
	}
}
