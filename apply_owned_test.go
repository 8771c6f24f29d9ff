// apply_owned_test.go — DynGraph.ApplyOwned, the transaction-free
// batch: it must end where applying the same ops one at a time through
// transactions ends, on any thread count; a view pinned across owned
// batches must keep reading its own epoch; an owned batch must queue
// behind a batch in flight and take turns with GC passes, which are
// batches too; it must refuse, changing nothing, an op out of range;
// and a panic in it must come back as an error that closes the graph to
// batches.
package tufast_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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
// through ApplyOwned, on 1, 2 and 4 threads, and applies it through transactions one
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
			stats, err := d.ApplyOwned(ops[lo : lo+500])
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
// the ops a later batch applies.
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

// compactImage is g's binary encoding: two graphs with equal images have
// the same vertices, arcs and orientation.
func compactImage(t *testing.T, compact func() (*tufast.Graph, error)) []byte {
	t.Helper()
	g, err := compact()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := g.CSR().WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestApplyOwnedKeepsPinnedView pins a view, runs owned batches past it
// and checks that the view still compacts to the image it had before
// them, byte for byte, while the graph itself moved on.
func TestApplyOwnedKeepsPinnedView(t *testing.T) {
	g, ops := repeatStream(300, 3000, 11)
	_, d := newDynFixture(t, g, len(ops), tufast.Options{Threads: 2})
	if _, err := d.ApplyOwned(slices.Clone(ops[:500])); err != nil {
		t.Fatal(err)
	}
	view := d.View()
	defer view.Close()
	before := compactImage(t, view.Compact)
	for lo := 500; lo < len(ops); lo += 250 {
		if _, err := d.ApplyOwned(slices.Clone(ops[lo : lo+250])); err != nil {
			t.Fatal(err)
		}
		if got := compactImage(t, view.Compact); !bytes.Equal(got, before) {
			t.Fatalf("view at epoch %d changed after the owned batch at ops %d", view.Epoch(), lo)
		}
	}
	if d.Epoch() <= view.Epoch() || bytes.Equal(compactImage(t, d.Compact), before) {
		t.Fatalf("the owned batches moved nothing: epoch %d, view at %d", d.Epoch(), view.Epoch())
	}
}

// TestApplyOwnedWaitsForBatchInFlight parks an ApplyStream batch
// mid-window and starts an owned batch beside it: the owned batch waits
// for the lock, then publishes an epoch of its own, and the graph ends
// where the two batches applied one after the other leave it.
func TestApplyOwnedWaitsForBatchInFlight(t *testing.T) {
	d, ops := ownedFixture(t)
	alone, _ := ownedFixture(t)
	batch := []tufast.StreamOp{{Time: 1, U: 0, V: 63}}
	if _, err := alone.ApplyStream(slices.Clone(batch), tufast.StreamOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := alone.ApplyOwned(slices.Clone(ops)); err != nil {
		t.Fatal(err)
	}
	want := captureOwnedState(alone)
	start := d.Epoch()

	entered, release := make(chan struct{}), make(chan struct{})
	var gate sync.Once
	streamed := make(chan tufast.StreamStats, 1)
	go func() {
		stats, err := d.ApplyStream(batch, tufast.StreamOptions{
			OnEdge: func(tufast.Tx, tufast.StreamOp, bool, func(uint32)) error {
				// Retry-safe: only the first attempt parks the batch.
				gate.Do(func() { close(entered); <-release })
				return nil
			},
		})
		if err != nil {
			t.Errorf("ApplyStream: %v", err)
		}
		streamed <- stats
	}()
	<-entered
	owned := make(chan tufast.StreamStats, 1)
	go func() {
		stats, err := d.ApplyOwned(ops)
		if err != nil {
			t.Errorf("ApplyOwned: %v", err)
		}
		owned <- stats
	}()
	select {
	case <-owned:
		t.Fatal("ApplyOwned returned while a batch held the lock")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	s1, s2 := <-streamed, <-owned
	if s1.Epoch != start+1 || s2.Epoch != start+2 {
		t.Fatalf("epochs: batch in flight %d, owned batch %d; want %d and %d", s1.Epoch, s2.Epoch, start+1, start+2)
	}
	if got := captureOwnedState(d); !reflect.DeepEqual(got, want) {
		t.Fatalf("graph after both batches: epoch %d, arcs %d; the batches in turn: epoch %d, arcs %d",
			got.epoch, got.liveArcs, want.epoch, want.liveArcs)
	}
}

// parkCtx is a context that is never cancelled but parks the first
// goroutine to ask it for its error until release closes (later askers
// wait with it). A GC pass asks at every chunk it claims, so a pass run
// with it is parked inside itself.
type parkCtx struct {
	context.Context
	once             sync.Once
	entered, release chan struct{}
	never            chan struct{}
}

func newParkCtx() *parkCtx {
	return &parkCtx{Context: context.Background(), entered: make(chan struct{}),
		release: make(chan struct{}), never: make(chan struct{})}
}

func (c *parkCtx) Done() <-chan struct{} { return c.never }

func (c *parkCtx) Err() error {
	c.once.Do(func() { close(c.entered); <-c.release })
	return nil
}

// TestGCPassTakesTurnsWithBatches: a GC pass is a batch. Started while
// an ApplyStream batch is parked in its OnEdge hook, the pass does not
// return until that batch has published; an owned batch issued while a
// pass is parked inside itself publishes after the pass. Either way the
// graph ends where the batches alone leave it.
func TestGCPassTakesTurnsWithBatches(t *testing.T) {
	d, ops := ownedFixture(t)
	alone, _ := ownedFixture(t)
	batch := []tufast.StreamOp{{Time: 1, U: 0, V: 63}}
	if _, err := alone.ApplyStream(slices.Clone(batch), tufast.StreamOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := alone.ApplyOwned(slices.Clone(ops)); err != nil {
		t.Fatal(err)
	}
	want := captureOwnedState(alone)
	start := d.Epoch()

	entered, release := make(chan struct{}), make(chan struct{})
	var gate sync.Once
	streamed := make(chan tufast.StreamStats, 1)
	go func() {
		stats, err := d.ApplyStream(batch, tufast.StreamOptions{
			OnEdge: func(tufast.Tx, tufast.StreamOp, bool, func(uint32)) error {
				// Retry-safe: only the first attempt parks the batch.
				gate.Do(func() { close(entered); <-release })
				return nil
			},
		})
		if err != nil {
			t.Errorf("ApplyStream: %v", err)
		}
		streamed <- stats
	}()
	<-entered
	gcEpoch := make(chan uint64, 1)
	go func() {
		if _, err := d.GCCtx(context.Background(), 0); err != nil {
			t.Errorf("GCCtx beside the parked batch: %v", err)
		}
		gcEpoch <- d.Epoch()
	}()
	select {
	case <-gcEpoch:
		t.Fatal("GCCtx returned while a batch was parked in its OnEdge")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if s1, e := <-streamed, <-gcEpoch; s1.Epoch != start+1 || e != start+1 {
		t.Fatalf("batch published epoch %d, pass returned at epoch %d; want both %d", s1.Epoch, e, start+1)
	}

	park := newParkCtx()
	passed := make(chan struct{})
	go func() {
		if _, err := d.GCCtx(park, 0); err != nil {
			t.Errorf("parked GCCtx: %v", err)
		}
		close(passed)
	}()
	<-park.entered
	owned := make(chan tufast.StreamStats, 1)
	go func() {
		stats, err := d.ApplyOwned(ops)
		if err != nil {
			t.Errorf("ApplyOwned: %v", err)
		}
		owned <- stats
	}()
	select {
	case <-owned:
		t.Fatal("ApplyOwned returned while a GC pass was parked inside itself")
	case <-time.After(50 * time.Millisecond):
	}
	close(park.release)
	<-passed
	if s2 := <-owned; s2.Epoch != start+2 {
		t.Fatalf("owned batch published epoch %d, want %d", s2.Epoch, start+2)
	}
	if got := captureOwnedState(d); !reflect.DeepEqual(got, want) {
		t.Fatalf("graph after the batches and passes: epoch %d, arcs %d; the batches alone: epoch %d, arcs %d",
			got.epoch, got.liveArcs, want.epoch, want.liveArcs)
	}
}

// TestApplyOwnedBesideGC runs owned batches while GC passes loop beside
// them, on 1, 2 and 4 threads, and pins a view halfway: the view must
// compact to what a sequential ApplyStream reference held at its epoch,
// and the graph must end with the reference's arcs.
func TestApplyOwnedBesideGC(t *testing.T) {
	const n, nOps, batch = 400, 8000, 200
	g, ops := repeatStream(n, nOps, 17)
	_, ref := newDynFixture(t, g, nOps, tufast.Options{Threads: 2})
	var refMid []byte
	for lo := 0; lo < nOps; lo += batch {
		if _, err := ref.ApplyStream(slices.Clone(ops[lo:lo+batch]), tufast.StreamOptions{Window: 1}); err != nil {
			t.Fatal(err)
		}
		if lo+batch == nOps/2 {
			refMid = compactImage(t, ref.Compact)
		}
	}
	refEnd := compactImage(t, ref.Compact)

	for _, threads := range []int{1, 2, 4} {
		// GC re-allocates what it compacts, pass after pass: give it as
		// much again as the batches, and keep it off their half.
		space := tufast.DynSpaceWords(g, 2*nOps)
		_, d := newDynFixture(t, g, 0, tufast.Options{Threads: threads, SpaceWords: space})
		stop := make(chan struct{})
		var passes, chains atomic.Int64
		var bg sync.WaitGroup
		bg.Add(1)
		go func() {
			defer bg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				did, err := d.GCCtx(context.Background(), space/2)
				if err != nil {
					t.Errorf("GCCtx: %v", err)
					return
				}
				chains.Add(int64(did))
				passes.Add(1)
			}
		}()
		var view *tufast.GraphView
		for lo := 0; lo < nOps; lo += batch {
			if lo%(16*batch) == 0 {
				// Let a pass end now and then: a tight loop of batches
				// could otherwise hold the lock through a whole pass.
				for p := passes.Load(); passes.Load() < p+1; {
					time.Sleep(100 * time.Microsecond)
				}
			}
			if _, err := d.ApplyOwned(slices.Clone(ops[lo : lo+batch])); err != nil {
				t.Fatal(err)
			}
			if lo+batch == nOps/2 {
				view = d.View()
			}
		}
		close(stop)
		bg.Wait()
		if got := compactImage(t, view.Compact); !bytes.Equal(got, refMid) {
			t.Errorf("threads %d: view at epoch %d differs from the reference there", threads, view.Epoch())
		}
		view.Close()
		if got := compactImage(t, d.Compact); !bytes.Equal(got, refEnd) {
			t.Errorf("threads %d: final graph (%d arcs) differs from the reference (%d arcs)", threads, d.LiveArcs(), ref.LiveArcs())
		}
		if d.Epoch() != ref.Epoch() {
			t.Errorf("threads %d: epoch %d, reference %d", threads, d.Epoch(), ref.Epoch())
		}
		if chains.Load() == 0 {
			t.Errorf("threads %d: %d GC passes rewrote no chain", threads, passes.Load())
		}
	}
}

// TestReplayOwnedRefusesOutOfRangeOp: an op naming a vertex past the
// graph is found before anything is applied, so the ops ahead of it in
// the slice do not land either.
func TestReplayOwnedRefusesOutOfRangeOp(t *testing.T) {
	d, ops := ownedFixture(t)
	before := captureOwnedState(d)
	bad := append(append([]tufast.StreamOp(nil), ops...), tufast.StreamOp{U: 1, V: 64})
	if _, err := d.ApplyOwned(bad); err == nil {
		t.Fatal("ApplyOwned with an out-of-range op succeeded")
	}
	if got := captureOwnedState(d); !reflect.DeepEqual(got, before) {
		t.Fatalf("refused batch moved the graph: epoch %d→%d, arcs %d→%d", before.epoch, got.epoch, before.liveArcs, got.liveArcs)
	}
}

// TestApplyOwnedPanicBreaksGraph runs owned batches of fresh edges into
// an arena sized for a few hundred until one runs it out, in batches
// that apply on one owner and in batches large enough to fan out over
// every thread. The panic in the owner comes back as a *TxPanicError
// with the epoch the batch published, a view pinned before it still
// reads its own epoch, and the graph refuses every later batch, owned or
// transactional, without moving.
func TestApplyOwnedPanicBreaksGraph(t *testing.T) {
	for _, threads := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("threads=%d", threads), func(t *testing.T) {
			for _, batch := range []int{64, 2 * tufast.MinOwnerOps, 4 * tufast.MinOwnerOps} {
				t.Run(fmt.Sprintf("batch=%d", batch), func(t *testing.T) {
					ownedPanicBreaksGraph(t, threads, batch)
				})
			}
		})
	}
}

func ownedPanicBreaksGraph(t *testing.T, threads, batch int) {
	const n = 300
	g := tufast.GenerateUniform(n, 4, 3).Undirect()
	_, d := newDynFixture(t, g, 400, tufast.Options{Threads: threads})
	view := d.View()
	defer view.Close()
	before := compactImage(t, view.Compact)
	rng := rand.New(rand.NewSource(int64(threads)))
	var pe *tufast.TxPanicError
	for i := 0; ; i++ {
		if i == 100 {
			t.Fatal("100 batches never ran the arena out")
		}
		ops := make([]tufast.StreamOp, batch)
		for j := range ops {
			ops[j] = tufast.StreamOp{U: uint32(rng.Intn(n)), V: uint32(rng.Intn(n))}
		}
		stats, err := d.ApplyOwned(ops)
		if err == nil {
			continue
		}
		if !errors.As(err, &pe) {
			t.Fatalf("batch %d: %v, want a *TxPanicError", i, err)
		}
		if stats.Epoch != d.Epoch() {
			t.Fatalf("failed batch reports epoch %d, the graph is at %d", stats.Epoch, d.Epoch())
		}
		break
	}
	if got := compactImage(t, view.Compact); !bytes.Equal(got, before) {
		t.Fatalf("view at epoch %d changed under the failed batch", view.Epoch())
	}
	epoch := d.Epoch()
	op := []tufast.StreamOp{{U: 1, V: 2, Del: !d.HasEdgeNow(1, 2)}}
	if _, err := d.ApplyOwned(slices.Clone(op)); !errors.As(err, &pe) {
		t.Fatalf("owned batch after the failed one: %v, want the panic", err)
	}
	if _, err := d.ApplyStream(slices.Clone(op), tufast.StreamOptions{}); !errors.As(err, &pe) {
		t.Fatalf("stream batch after the failed one: %v, want the panic", err)
	}
	if d.Epoch() != epoch {
		t.Fatalf("refused batches moved the epoch %d→%d", epoch, d.Epoch())
	}
}
