// dyngraph_api_test.go — the dynamic-graph subsystem from the user's
// side of the fence: transactional mutation semantics through Tx,
// the randomized streaming oracle (concurrent mutations → compact ==
// replay-built CSR), degree-routed mode attribution of mutation
// transactions, and the post-commit emit driver.
package tufast_test

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"tufast"
	"tufast/internal/dyngraph"
	"tufast/internal/graph"
)

func newDynFixture(t *testing.T, g *tufast.Graph, mutations int, opt tufast.Options) (*tufast.System, *tufast.DynGraph) {
	t.Helper()
	if opt.SpaceWords <= 0 {
		opt.SpaceWords = tufast.DynSpaceWords(g, mutations)
	}
	s := tufast.NewSystem(g, opt)
	return s, tufast.NewDynGraph(s)
}

func TestTxMutationSemantics(t *testing.T) {
	g, err := tufast.BuildGraph(8, []tufast.EdgePair{{U: 0, V: 1}, {U: 2, V: 3}}, true)
	if err != nil {
		t.Fatal(err)
	}
	s, d := newDynFixture(t, g, 64, tufast.Options{Threads: 2})

	mutate := func(f func(tx tufast.Tx) bool) bool {
		var got bool
		note := func(b bool) { got = b }
		if err := s.Atomic(16, func(tx tufast.Tx) error {
			note(f(tx))
			return nil
		}); err != nil {
			t.Fatalf("Atomic: %v", err)
		}
		return got
	}

	if mutate(func(tx tufast.Tx) bool { return tx.AddEdge(d, 0, 1) }) {
		t.Error("AddEdge of existing edge should report false")
	}
	if !mutate(func(tx tufast.Tx) bool { return tx.AddEdge(d, 1, 4) }) {
		t.Error("AddEdge of new edge should report true")
	}
	if !mutate(func(tx tufast.Tx) bool { return tx.RemoveEdge(d, 2, 3) }) {
		t.Error("RemoveEdge of live edge should report true")
	}
	if mutate(func(tx tufast.Tx) bool { return tx.RemoveEdge(d, 2, 3) }) {
		t.Error("RemoveEdge twice should report false")
	}
	if mutate(func(tx tufast.Tx) bool { return tx.AddEdge(d, 5, 5) }) {
		t.Error("self-loop AddEdge should report false")
	}
	// Read-own-writes: a transaction observes its uncommitted mutation.
	sawOwnWrite := mutate(func(tx tufast.Tx) bool {
		if tx.HasEdgeMut(d, 6, 7) {
			return false
		}
		tx.AddEdge(d, 6, 7)
		return tx.HasEdgeMut(d, 6, 7) && tx.DegreeMut(d, 6) == 1
	})
	if !sawOwnWrite {
		t.Error("transaction does not see its own AddEdge")
	}
	// Undirected: both arcs visible after commit.
	if !d.HasEdgeNow(7, 6) || !d.HasEdgeNow(6, 7) {
		t.Error("undirected AddEdge should create both arcs")
	}
	if got := d.NeighborsNow(1, nil); !reflect.DeepEqual(got, []uint32{0, 4}) {
		t.Errorf("NeighborsNow(1) = %v, want [0 4]", got)
	}
	if d.LiveDegree(2) != 0 {
		t.Errorf("LiveDegree(2) = %d after removal, want 0", d.LiveDegree(2))
	}
}

// skewedVertex biases ~5% of endpoints onto eight hub ids, giving the
// degree skew the H/O/L router needs to spread modes.
func skewedVertex(rng *rand.Rand, n int) uint32 {
	if rng.Intn(20) == 0 {
		return uint32(rng.Intn(8))
	}
	return uint32(rng.Intn(n))
}

// makeOracleStream builds an undirected base graph plus nOps mutations
// over pairwise-distinct edges, so any concurrent application order
// yields the same final graph and ReplayEdges is an exact oracle.
func makeOracleStream(n, baseEdges, nOps int, seed int64) (*tufast.Graph, *dyngraph.Stream) {
	rng := rand.New(rand.NewSource(seed))
	key := func(u, v uint32) uint64 {
		if u > v {
			u, v = v, u
		}
		return uint64(u)<<32 | uint64(v)
	}
	baseSet := map[uint64]tufast.EdgePair{}
	for len(baseSet) < baseEdges {
		u, v := skewedVertex(rng, n), skewedVertex(rng, n)
		if u == v {
			continue
		}
		baseSet[key(u, v)] = tufast.EdgePair{U: u, V: v}
	}
	var edges []tufast.EdgePair
	for _, e := range baseSet {
		edges = append(edges, e)
	}
	g, err := tufast.BuildGraph(n, edges, true)
	if err != nil {
		panic(err)
	}
	st := &dyngraph.Stream{N: n, Undirected: true}
	for u := uint32(0); int(u) < n; u++ {
		for _, v := range g.Neighbors(u) {
			if u < v {
				st.Base = append(st.Base, graph.Edge{U: u, V: v})
			}
		}
	}
	// Ops over distinct pairs (each pair touched at most once), mixing
	// live-edge deletes, fresh inserts, and no-ops of both kinds.
	used := map[uint64]bool{}
	for len(st.Ops) < nOps {
		u, v := skewedVertex(rng, n), skewedVertex(rng, n)
		if u == v {
			continue
		}
		k := key(u, v)
		if used[k] {
			continue
		}
		used[k] = true
		_, inBase := baseSet[k]
		var del bool
		if inBase {
			del = rng.Intn(4) != 0 // mostly deletes of live edges, some no-op adds
		} else {
			del = rng.Intn(5) == 0 // mostly fresh inserts, some no-op deletes
		}
		st.Ops = append(st.Ops, tufast.StreamOp{
			Time: uint64(len(st.Ops) + 1), U: u, V: v, Del: del,
		})
	}
	return g, st
}

// TestStreamingOracle is the acceptance test: ≥100k randomized
// inserts/deletes applied through transactions under ≥8 workers, then
// the compacted CSR must equal the CSR built from the replayed edge
// list, and the mutation commits must be attributed across at least H
// and L modes (degree routing engaged).
func TestStreamingOracle(t *testing.T) {
	const (
		n     = 4000
		baseE = 30_000
		nOps  = 100_000
	)
	g, st := makeOracleStream(n, baseE, nOps, 99)
	s, d := newDynFixture(t, g, len(st.Ops), tufast.Options{
		Threads: 8,
		// Scaled-down routing thresholds so this graph's degree skew
		// spreads mutations across H (leaves), O (middle) and L (hubs).
		HMaxHint: 64,
		OMaxHint: 256,
	})
	s.ResetStats()

	stats, err := d.ApplyStream(st.Ops, tufast.StreamOptions{Window: 4096})
	if err != nil {
		t.Fatalf("ApplyStream: %v", err)
	}
	if stats.Applied != len(st.Ops) {
		t.Fatalf("Applied = %d, want %d", stats.Applied, len(st.Ops))
	}
	if stats.Inserted == 0 || stats.Removed == 0 {
		t.Fatalf("stream had no effect: %+v", stats)
	}
	ins, rem, noops := d.MutationStats()
	if int(ins) != stats.Inserted || int(rem) != stats.Removed || int(noops) != stats.NoOps {
		t.Errorf("MutationStats (%d,%d,%d) != StreamStats %+v", ins, rem, noops, stats)
	}

	// Oracle: compact == replay-built.
	var replay []tufast.EdgePair
	for _, e := range st.ReplayEdges() {
		replay = append(replay, tufast.EdgePair{U: e.U, V: e.V})
	}
	want, err := tufast.BuildGraph(n, replay, true)
	if err != nil {
		t.Fatalf("replay build: %v", err)
	}
	got, err := d.Compact()
	if err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if got.NumEdges() != want.NumEdges() {
		t.Fatalf("compacted edges = %d, replay has %d", got.NumEdges(), want.NumEdges())
	}
	for v := uint32(0); int(v) < n; v++ {
		gn, wn := got.Neighbors(v), want.Neighbors(v)
		if len(gn) == 0 && len(wn) == 0 {
			continue
		}
		if !reflect.DeepEqual(gn, wn) {
			t.Fatalf("Neighbors(%d): compact %v, replay %v", v, gn, wn)
		}
		if ld := d.LiveDegree(v); ld != len(wn) {
			t.Fatalf("LiveDegree(%d) = %d, replay degree %d", v, ld, len(wn))
		}
	}
	if !got.Undirected() {
		t.Error("Compact dropped the Undirected flag")
	}

	// Degree routing engaged: mutation commits attributed to H and L.
	snap := s.MetricsSnapshot()
	h, l := snap.Modes["H"].Commits, snap.Modes["L"].Commits
	if h == 0 || l == 0 {
		t.Errorf("mode mix: H=%d L=%d — want both nonzero (modes: %+v)", h, l, snap.Modes)
	}
}

func TestForEachQueuedEmitFlushesPostCommit(t *testing.T) {
	g := tufast.GenerateUniform(64, 4, 3)
	s := tufast.NewSystem(g, tufast.Options{Threads: 4})
	val := s.NewVertexArray(0)
	q := s.NewQueue()
	q.Push(0)
	// Each unmarked vertex v < 32 marks itself and emits v+1: the
	// post-commit chain must visit vertices 0..32 exactly, and never
	// reach past the last emitter.
	err := s.ForEachQueuedEmit(q, func(v uint32) int { return 4 },
		func(tx tufast.Tx, v uint32, emit func(u uint32)) error {
			if tx.Read(v, val.Addr(v)) != 0 {
				return nil
			}
			tx.Write(v, val.Addr(v), 1)
			if v < 32 {
				emit(v + 1)
			}
			return nil
		})
	if err != nil {
		t.Fatalf("ForEachQueuedEmit: %v", err)
	}
	for v := uint32(0); v < 64; v++ {
		want := uint64(0)
		if v <= 32 {
			want = 1
		}
		if got := val.Get(v); got != want {
			t.Fatalf("val[%d] = %d, want %d", v, got, want)
		}
	}
}

// TestMutationEpoch pins the epoch contract the serving layer's result
// cache depends on: ApplyStream bumps the epoch exactly when a batch
// changed topology, and a pure no-op batch leaves it alone.
func TestMutationEpoch(t *testing.T) {
	g, err := tufast.BuildGraph(8, []tufast.EdgePair{{U: 0, V: 1}}, true)
	if err != nil {
		t.Fatal(err)
	}
	_, d := newDynFixture(t, g, 64, tufast.Options{Threads: 2})
	if d.Epoch() != 0 {
		t.Fatalf("fresh graph epoch = %d, want 0", d.Epoch())
	}

	// Effective batch: one fresh insert.
	if _, err := d.ApplyStream([]tufast.StreamOp{{Time: 1, U: 2, V: 3}}, tufast.StreamOptions{}); err != nil {
		t.Fatal(err)
	}
	if d.Epoch() != 1 {
		t.Fatalf("epoch after effective batch = %d, want 1", d.Epoch())
	}

	// Pure no-op batch: re-insert a live edge, delete a missing one.
	if _, err := d.ApplyStream([]tufast.StreamOp{
		{Time: 2, U: 0, V: 1},
		{Time: 3, U: 4, V: 5, Del: true},
	}, tufast.StreamOptions{}); err != nil {
		t.Fatal(err)
	}
	if d.Epoch() != 1 {
		t.Fatalf("epoch after no-op batch = %d, want still 1", d.Epoch())
	}

	// A delete of a live edge is effective again.
	if _, err := d.ApplyStream([]tufast.StreamOp{{Time: 4, U: 0, V: 1, Del: true}}, tufast.StreamOptions{}); err != nil {
		t.Fatal(err)
	}
	if d.Epoch() != 2 {
		t.Fatalf("epoch after effective delete = %d, want 2", d.Epoch())
	}
}

// TestPartialBatchBumpsEpoch pins the error-path half of the epoch
// contract: a batch that fails after some windows committed (client
// disconnect mid-stream, OnEdge error) has still mutated the topology,
// so the epoch must move — otherwise epoch-keyed consumers (the serving
// layer's result cache, lazy snapshots) would keep treating
// pre-mutation state as current. A failing batch that committed
// nothing must still leave the epoch alone.
func TestPartialBatchBumpsEpoch(t *testing.T) {
	g, err := tufast.BuildGraph(8, []tufast.EdgePair{{U: 0, V: 1}}, true)
	if err != nil {
		t.Fatal(err)
	}
	_, d := newDynFixture(t, g, 64, tufast.Options{Threads: 2})

	boom := errors.New("boom")
	failAt := func(at uint64) func(tufast.Tx, tufast.StreamOp, bool, func(uint32)) error {
		return func(_ tufast.Tx, op tufast.StreamOp, _ bool, _ func(uint32)) error {
			if op.Time >= at {
				return boom
			}
			return nil
		}
	}

	// Window 1 commits a fresh insert; window 2's transaction aborts.
	stats, err := d.ApplyStream([]tufast.StreamOp{
		{Time: 1, U: 2, V: 3},
		{Time: 2, U: 4, V: 5},
	}, tufast.StreamOptions{Window: 1, OnEdge: failAt(2)})
	if !errors.Is(err, boom) {
		t.Fatalf("ApplyStream err = %v, want %v", err, boom)
	}
	if stats.Applied != 1 || stats.Inserted != 1 {
		t.Fatalf("partial stats = %+v, want Applied=1 Inserted=1", stats)
	}
	if d.Epoch() != 1 {
		t.Fatalf("epoch after partially-applied batch = %d, want 1", d.Epoch())
	}
	if ins, _, _ := d.MutationStats(); ins != 1 {
		t.Fatalf("MutationStats inserted = %d, want 1", ins)
	}

	// A batch whose every transaction aborted changed nothing: no bump.
	stats, err = d.ApplyStream([]tufast.StreamOp{{Time: 1, U: 6, V: 7}},
		tufast.StreamOptions{Window: 1, OnEdge: failAt(0)})
	if !errors.Is(err, boom) {
		t.Fatalf("ApplyStream err = %v, want %v", err, boom)
	}
	if stats.Applied != 0 {
		t.Fatalf("aborted-batch stats = %+v, want Applied=0", stats)
	}
	if d.Epoch() != 1 {
		t.Fatalf("epoch after fully-aborted batch = %d, want still 1", d.Epoch())
	}
}

// TestStreamStatsEpoch pins the per-batch epoch capture: an effective
// batch's StreamStats.Epoch is the exact value its own bump produced —
// even when other batches commit concurrently — and a no-op batch
// reports the unchanged current epoch. Re-reading Epoch() after the
// batch returns would instead leak a later concurrent batch's value.
func TestStreamStatsEpoch(t *testing.T) {
	g, err := tufast.BuildGraph(64, []tufast.EdgePair{{U: 0, V: 1}}, true)
	if err != nil {
		t.Fatal(err)
	}
	_, d := newDynFixture(t, g, 4096, tufast.Options{Threads: 4})

	// Sequential: each effective batch reports its own bump.
	stats, err := d.ApplyStream([]tufast.StreamOp{{Time: 1, U: 2, V: 3}}, tufast.StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Epoch != 1 || d.Epoch() != 1 {
		t.Fatalf("effective batch: stats.Epoch=%d Epoch()=%d, want 1,1", stats.Epoch, d.Epoch())
	}
	// No-op batch: current epoch, no bump.
	stats, err = d.ApplyStream([]tufast.StreamOp{{Time: 2, U: 0, V: 1}}, tufast.StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Epoch != 1 || d.Epoch() != 1 {
		t.Fatalf("no-op batch: stats.Epoch=%d Epoch()=%d, want 1,1", stats.Epoch, d.Epoch())
	}

	// Concurrent effective batches on disjoint vertices: every batch
	// must observe a distinct epoch (its own bump), covering 2..K+1.
	const k = 8
	epochs := make([]uint64, k)
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			u := uint32(8 + 2*i)
			st, err := d.ApplyStream([]tufast.StreamOp{{Time: 1, U: u, V: u + 1}}, tufast.StreamOptions{})
			if err != nil {
				t.Errorf("batch %d: %v", i, err)
				return
			}
			epochs[i] = st.Epoch
		}(i)
	}
	wg.Wait()
	seen := make(map[uint64]bool)
	for i, e := range epochs {
		if e < 2 || e > k+1 {
			t.Errorf("batch %d: epoch %d outside [2,%d]", i, e, k+1)
		}
		if seen[e] {
			t.Errorf("epoch %d reported by two concurrent batches", e)
		}
		seen[e] = true
	}
	if d.Epoch() != k+1 {
		t.Fatalf("final epoch = %d, want %d", d.Epoch(), k+1)
	}
}

func TestDirectMutationDuringStreamRejected(t *testing.T) {
	g, err := tufast.BuildGraph(16, []tufast.EdgePair{{U: 0, V: 1}}, true)
	if err != nil {
		t.Fatal(err)
	}
	s, d := newDynFixture(t, g, 256, tufast.Options{Threads: 2})

	entered := make(chan struct{})
	release := make(chan struct{})
	var gate sync.Once
	streamDone := make(chan error, 1)
	go func() {
		_, err := d.ApplyStream([]tufast.StreamOp{{Time: 1, U: 2, V: 3}}, tufast.StreamOptions{
			OnEdge: func(tufast.Tx, tufast.StreamOp, bool, func(uint32)) error {
				// Retry-safe: only the first attempt parks the batch.
				gate.Do(func() { close(entered); <-release })
				return nil
			},
		})
		streamDone <- err
	}()
	<-entered

	// The panic fires before any chain word is touched; recovering
	// inside the body turns it into a clean transactional abort.
	var msg string
	err = s.Atomic(16, func(tx tufast.Tx) (err error) {
		defer func() {
			if r := recover(); r != nil {
				msg = fmt.Sprint(r)
				err = errors.New(msg)
			}
		}()
		tx.AddEdge(d, 4, 5)
		return nil
	})
	if err == nil || !strings.Contains(msg, "ApplyStream") {
		t.Errorf("direct AddEdge during a batch: err=%v msg=%q, want an ApplyStream contract panic", err, msg)
	}

	close(release)
	if err := <-streamDone; err != nil {
		t.Fatalf("ApplyStream: %v", err)
	}
	// Once the batch has drained, direct mutations are legal again.
	var added bool
	if err := s.Atomic(16, func(tx tufast.Tx) error {
		added = tx.AddEdge(d, 4, 5)
		return nil
	}); err != nil {
		t.Fatalf("direct AddEdge after the batch: %v", err)
	}
	if !added || !d.HasEdgeNow(4, 5) {
		t.Error("direct AddEdge after the batch did not take effect")
	}
}
