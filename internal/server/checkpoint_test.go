package server

import (
	"fmt"
	"math/rand"
	"net/http"
	"path/filepath"
	"testing"

	"tufast"
	"tufast/internal/graph"
)

// checkpointFile loads the newest checkpoint g's manifest names.
func checkpointFile(t *testing.T, g *graphInstance) (*tufast.Graph, uint64) {
	t.Helper()
	newest := g.man.Checkpoints[len(g.man.Checkpoints)-1]
	ck, err := tufast.LoadGraphBinary(filepath.Join(ckptDir(g.dur.DataDir), newest.File))
	if err != nil {
		t.Fatalf("load checkpoint %s: %v", newest.File, err)
	}
	return ck, newest.Epoch
}

// assertCheckpointIsCompact compares, row by row, the newest checkpoint
// file of g with the live graph compacted at the checkpoint's epoch.
func assertCheckpointIsCompact(t *testing.T, g *graphInstance, what string) {
	t.Helper()
	ck, e := checkpointFile(t, g)
	view := g.dyn.ViewAt(e)
	defer view.Close()
	want, err := view.Compact()
	if err != nil {
		t.Fatalf("%s: compact at epoch %d: %v", what, e, err)
	}
	if ck.NumVertices() != want.NumVertices() || ck.NumEdges() != want.NumEdges() {
		t.Fatalf("%s: checkpoint at epoch %d has |V|=%d |E|=%d, compact %d and %d",
			what, e, ck.NumVertices(), ck.NumEdges(), want.NumVertices(), want.NumEdges())
	}
	for u := uint32(0); int(u) < want.NumVertices(); u++ {
		if got, w := ck.Neighbors(u), want.Neighbors(u); fmt.Sprint(got) != fmt.Sprint(w) {
			t.Fatalf("%s: checkpoint at epoch %d, vertex %d: %v, compact %v", what, e, u, got, w)
		}
	}
}

// repeatedEdgeBatch is a batch of size ops over few vertices, so that
// most arcs take several ops in one batch: inserts of live arcs, deletes
// of absent ones, and insert-delete runs whose last op differs from the
// first.
func repeatedEdgeBatch(rng *rand.Rand, n, size int) []edgeOp {
	ops := make([]edgeOp, 0, size)
	for len(ops) < size {
		u, v := uint32(rng.Intn(n)), uint32(rng.Intn(n))
		if u == v {
			continue
		}
		ops = append(ops, edgeOp{U: u, V: v, Del: rng.Intn(2) == 0})
		if rng.Intn(2) == 0 {
			ops = append(ops, edgeOp{U: u, V: v, Del: !ops[len(ops)-1].Del})
		}
	}
	return ops
}

// TestCheckpointFoldMatchesCompact holds a checkpoint, the fold of the
// previous checkpoint file and the log above it, to a compaction of the
// live graph at the same epoch: the day-zero checkpoint (no ops), then
// checkpoints over batches of inserts, deletes and arcs repeated within
// one batch, on directed and undirected bases with and without
// self-loops.
func TestCheckpointFoldMatchesCompact(t *testing.T) {
	const n = 24
	for _, undirected := range []bool{false, true} {
		for _, selfLoops := range []bool{false, true} {
			name := fmt.Sprintf("undirected=%v/self-loops=%v", undirected, selfLoops)
			t.Run(name, func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(len(name))))
				var edges []graph.Edge
				for i := 0; i < 3*n; i++ {
					edges = append(edges, graph.Edge{U: uint32(rng.Intn(n)), V: uint32(rng.Intn(n))})
				}
				if selfLoops {
					edges = append(edges, graph.Edge{U: 3, V: 3}, graph.Edge{U: 7, V: 7})
				}
				csr, err := graph.Build(n, edges, graph.BuildOptions{Symmetrize: undirected, KeepSelfLoops: selfLoops})
				if err != nil {
					t.Fatal(err)
				}
				s := startDurableServerOn(t, t.TempDir(), DurabilityConfig{}, tufast.WrapCSR(csr), 2)
				defer shutdownServer(t, s)
				client := &http.Client{}
				defer client.CloseIdleConnections()
				g := s.def
				assertCheckpointIsCompact(t, g, "day zero")

				for round := 1; round <= 4; round++ {
					for b := 0; b < 5; b++ {
						if code, _ := postBatch(t, client, "http://"+s.Addr(), repeatedEdgeBatch(rng, n, 40)); code != http.StatusOK {
							t.Fatalf("round %d batch %d: status %d", round, b, code)
						}
					}
					e, err := g.checkpointNow()
					if err != nil || e != g.dyn.Epoch() {
						t.Fatalf("round %d: checkpoint at %d, %v; the graph is at epoch %d", round, e, err, g.dyn.Epoch())
					}
					assertCheckpointIsCompact(t, g, fmt.Sprintf("round %d", round))
				}
			})
		}
	}
}

// TestStaleCheckpointAfterRecreate runs a deleted graph's checkpoint
// after a graph of the same name was created again in its directory:
// the checkpoint must be refused, so the new graph recovers its own
// topology, not the deleted one's.
func TestStaleCheckpointAfterRecreate(t *testing.T) {
	dir := t.TempDir()
	const n = 40
	s := startDurableServer(t, dir, DurabilityConfig{})
	base := "http://" + s.Addr()
	client := &http.Client{}
	defer client.CloseIdleConnections()

	putGraph(t, client, base, "a", map[string]any{"vertices": n, "undirected": true})
	if code, _ := postTenantBatch(t, client, base, "a", distinctBatch(rand.New(rand.NewSource(5)), n, 30)); code != http.StatusOK {
		t.Fatalf("batch: status %d", code)
	}
	old := s.lookupGraph("a")
	if code, out, _ := doJSON(t, client, http.MethodDelete, base+"/v1/graphs/a", nil); code != http.StatusOK {
		t.Fatalf("DELETE: %d %v", code, out)
	}
	edges := [][2]uint32{{0, 1}, {1, 2}, {2, 3}}
	putGraph(t, client, base, "a", map[string]any{"vertices": n, "undirected": true, "edges": edges})

	if e, err := old.checkpointNow(); err == nil {
		t.Errorf("the deleted graph checkpointed at epoch %d", e)
	}
	if code, _, _ := doJSON(t, client, http.MethodPost, base+"/v1/graphs/a/checkpoint", nil); code != http.StatusOK {
		t.Fatalf("the new graph's checkpoint: status %d", code)
	}
	shutdownServer(t, s)

	s2 := startDurableServer(t, dir, DurabilityConfig{})
	defer shutdownServer(t, s2)
	want, err := tufast.BuildGraph(n, []tufast.EdgePair{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}}, true)
	if err != nil {
		t.Fatal(err)
	}
	assertTenantTopology(t, s2.lookupGraph("a"), want, nil)
}
