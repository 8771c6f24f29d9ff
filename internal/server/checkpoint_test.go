package server

import (
	"fmt"
	"math/rand"
	"net/http"
	"path/filepath"
	"sync"
	"testing"

	"tufast"
	"tufast/internal/graph"
	"tufast/internal/wal"
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

// TestCheckpointReadsEachSegmentOnce takes a checkpoint after live
// appends, when the log no longer holds its boot scan's bytes: the fold
// must read each segment above the checkpoint's base at most once.
// Recovery, before any append, reads each segment once too, in Open's
// scan, and decodes the scanned bytes.
func TestCheckpointReadsEachSegmentOnce(t *testing.T) {
	dir := t.TempDir()
	var mu sync.Mutex
	reads := make(map[string]int)
	dcfg := DurabilityConfig{Sync: wal.SyncNone, SegmentBytes: 2048, walHooks: &wal.Hooks{ReadSegment: func(path string) {
		mu.Lock()
		reads[path]++
		mu.Unlock()
	}}}
	counted := func(what string) {
		t.Helper()
		mu.Lock()
		defer mu.Unlock()
		if len(reads) < 3 {
			t.Fatalf("%s read %d segments, want several", what, len(reads))
		}
		for path, c := range reads {
			if c != 1 {
				t.Errorf("%s read %s %d times", what, filepath.Base(path), c)
			}
		}
		clear(reads)
	}
	s := startDurableServer(t, dir, dcfg)
	client := &http.Client{}
	defer client.CloseIdleConnections()
	rng := rand.New(rand.NewSource(5))
	post := func() {
		for i := 0; i < 12; i++ {
			if code, _ := postBatch(t, client, "http://"+s.Addr(), distinctBatch(rng, 200, 24)); code != http.StatusOK {
				t.Fatalf("batch %d: status %d", i, code)
			}
		}
	}
	post()
	mu.Lock()
	clear(reads)
	mu.Unlock()
	if _, err := s.def.checkpointNow(); err != nil {
		t.Fatal(err)
	}
	counted("checkpoint after appends")

	post()
	crashServer(s)
	s = startDurableServer(t, dir, dcfg)
	defer shutdownServer(t, s)
	if rec := s.Recovery(); rec.ReplayedBatches == 0 {
		t.Fatal("nothing replayed")
	}
	counted("recovery")
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
