// replay_owned_test.go — DynGraph.ReplayOwned, the transaction-free
// batch for a caller that owns the graph outright: it must end where
// applying the same ops one at a time through transactions ends, on any
// thread count, and it must refuse — changing nothing — whatever it can
// see of another party: a pinned view, a batch in flight, an op out of
// range.
package tufast_test

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"tufast"
)

// ownedState is what a replay must reproduce: the epoch, the mutation
// counters, and every vertex's live degree and neighbours.
type ownedState struct {
	epoch           uint64
	ins, rem, noops uint64
	degrees         []int
	neighbors       [][]uint32
	liveArcs        int
}

func captureOwnedState(d *tufast.DynGraph) ownedState {
	st := ownedState{epoch: d.Epoch(), liveArcs: d.LiveArcs()}
	st.ins, st.rem, st.noops = d.MutationStats()
	for v := uint32(0); int(v) < d.NumVertices(); v++ {
		st.degrees = append(st.degrees, d.LiveDegree(v))
		st.neighbors = append(st.neighbors, d.NeighborsNow(v, nil))
	}
	return st
}

// repeatStream is a log with hubs and with the same edges inserted,
// deleted and re-inserted many ops apart, base edges among them: unlike
// makeOracleStream's, its ops do not commute, so only an in-order
// application reproduces it.
func repeatStream(n, nOps int, seed int64) (*tufast.Graph, []tufast.StreamOp) {
	rng := rand.New(rand.NewSource(seed))
	g := tufast.GenerateUniform(n, 4, uint64(seed)).Undirect()
	var ops []tufast.StreamOp
	for len(ops) < nOps {
		u, v := skewedVertex(rng, n), skewedVertex(rng, n)
		if rng.Intn(3) == 0 && g.Degree(u) > 0 {
			v = g.Neighbors(u)[rng.Intn(g.Degree(u))] // a base edge
		}
		if rng.Intn(2) == 0 {
			u, v = v, u
		}
		ops = append(ops, tufast.StreamOp{Time: uint64(len(ops) + 1), U: u, V: v, Del: rng.Intn(3) == 0})
	}
	return g, ops
}

// TestReplayOwnedMatchesSequentialApply replays a log of repeated edges
// owned, on 1, 2 and 4 threads, and applies it through transactions one
// op per window (in order): epoch, counters, degrees and neighbours must
// agree.
func TestReplayOwnedMatchesSequentialApply(t *testing.T) {
	const n, nOps = 600, 6000
	g, ops := repeatStream(n, nOps, 5)
	_, ref := newDynFixture(t, g, nOps, tufast.Options{Threads: 2})
	for lo := 0; lo < len(ops); lo += 500 {
		batch := append([]tufast.StreamOp(nil), ops[lo:lo+500]...)
		if _, err := ref.ApplyStream(batch, tufast.StreamOptions{Window: 1}); err != nil {
			t.Fatal(err)
		}
	}
	want := captureOwnedState(ref)
	if want.ins == 0 || want.rem == 0 || want.noops == 0 {
		t.Fatalf("log exercises too little: %+v", want)
	}
	for _, threads := range []int{1, 2, 4} {
		_, d := newDynFixture(t, g, nOps, tufast.Options{Threads: threads})
		for lo := 0; lo < len(ops); lo += 500 {
			stats, err := d.ReplayOwned(ops[lo : lo+500])
			if err != nil {
				t.Fatalf("threads %d: %v", threads, err)
			}
			if stats.Applied != 500 || stats.Epoch != d.Epoch() {
				t.Fatalf("threads %d: stats %+v at epoch %d", threads, stats, d.Epoch())
			}
		}
		if got := captureOwnedState(d); !reflect.DeepEqual(got, want) {
			t.Fatalf("threads %d: owned replay ended at epoch %d (%d/%d/%d), %d arcs; sequential apply at %d (%d/%d/%d), %d arcs",
				threads, got.epoch, got.ins, got.rem, got.noops, got.liveArcs,
				want.epoch, want.ins, want.rem, want.noops, want.liveArcs)
		}
	}
}

// ownedFixture is a small undirected graph with one batch applied, and
// the ops a refused replay would have applied.
func ownedFixture(t *testing.T) (*tufast.DynGraph, []tufast.StreamOp) {
	t.Helper()
	g, ops := repeatStream(64, 80, 9)
	_, d := newDynFixture(t, g, 200, tufast.Options{Threads: 2})
	// One op per window: the ops repeat edges, and the fixture must be
	// the same graph every time it is built.
	if _, err := d.ApplyStream(ops[:40], tufast.StreamOptions{Window: 1}); err != nil {
		t.Fatal(err)
	}
	return d, ops[40:]
}

// TestReplayOwnedRefusesPinnedView: a view pinned anywhere means a
// reader the replay does not own; it is refused and the graph does not
// move, and once the view is closed the same replay goes through.
func TestReplayOwnedRefusesPinnedView(t *testing.T) {
	d, ops := ownedFixture(t)
	before := captureOwnedState(d)
	view := d.View()
	if _, err := d.ReplayOwned(ops); err == nil {
		t.Fatal("ReplayOwned with a pinned view succeeded")
	}
	view.Close()
	if got := captureOwnedState(d); !reflect.DeepEqual(got, before) {
		t.Fatalf("refused replay moved the graph: epoch %d→%d, arcs %d→%d", before.epoch, got.epoch, before.liveArcs, got.liveArcs)
	}
	if stats, err := d.ReplayOwned(ops); err != nil || stats.Epoch != before.epoch+1 {
		t.Fatalf("replay after the view closed: %+v, %v", stats, err)
	}
}

// TestReplayOwnedRefusesBatchInFlight: a replay attempted while an
// ApplyStream batch is parked mid-window is refused without touching the
// graph; the graph ends where the batch alone leaves it.
func TestReplayOwnedRefusesBatchInFlight(t *testing.T) {
	d, ops := ownedFixture(t)
	alone, _ := ownedFixture(t)
	batch := []tufast.StreamOp{{Time: 1, U: 0, V: 63}}
	if _, err := alone.ApplyStream(append([]tufast.StreamOp(nil), batch...), tufast.StreamOptions{}); err != nil {
		t.Fatal(err)
	}
	want := captureOwnedState(alone)

	entered, release := make(chan struct{}), make(chan struct{})
	var gate sync.Once
	done := make(chan error, 1)
	go func() {
		_, err := d.ApplyStream(batch, tufast.StreamOptions{
			OnEdge: func(tufast.Tx, tufast.StreamOp, bool, func(uint32)) error {
				// Retry-safe: only the first attempt parks the batch.
				gate.Do(func() { close(entered); <-release })
				return nil
			},
		})
		done <- err
	}()
	<-entered
	_, err := d.ReplayOwned(ops)
	close(release)
	if err == nil {
		t.Fatal("ReplayOwned during a batch succeeded")
	}
	if err := <-done; err != nil {
		t.Fatalf("ApplyStream: %v", err)
	}
	if got := captureOwnedState(d); !reflect.DeepEqual(got, want) {
		t.Fatalf("graph after the refused replay: epoch %d, arcs %d; the batch alone: epoch %d, arcs %d",
			got.epoch, got.liveArcs, want.epoch, want.liveArcs)
	}
}

// TestReplayOwnedRefusesOutOfRangeOp: an op naming a vertex past the
// graph is found before anything is applied, so the ops ahead of it in
// the slice do not land either.
func TestReplayOwnedRefusesOutOfRangeOp(t *testing.T) {
	d, ops := ownedFixture(t)
	before := captureOwnedState(d)
	bad := append(append([]tufast.StreamOp(nil), ops...), tufast.StreamOp{U: 1, V: 64})
	if _, err := d.ReplayOwned(bad); err == nil {
		t.Fatal("ReplayOwned with an out-of-range op succeeded")
	}
	if got := captureOwnedState(d); !reflect.DeepEqual(got, before) {
		t.Fatalf("refused replay moved the graph: epoch %d→%d, arcs %d→%d", before.epoch, got.epoch, before.liveArcs, got.liveArcs)
	}
}
