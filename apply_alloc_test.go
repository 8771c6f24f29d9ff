package tufast_test

import (
	"testing"

	"tufast"
)

// TestApplyStreamAllocsPerOp holds the apply loop to allocating per
// window and per goroutine, never per op: 4096-op batches on a warmed
// overlay stay under a tenth of an allocation per op (the loop this one
// replaced made about five: the op, its outcome, the note and body
// closures and AtomicCtx's wrapper all escaped once per op).
func TestApplyStreamAllocsPerOp(t *testing.T) {
	const n, batch = 8192, 4096
	g, err := tufast.BuildGraph(n, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	_, d := newDynFixture(t, g, 16*batch, tufast.Options{Threads: 2})
	ops := make([]tufast.StreamOp, batch)
	run := 0
	apply := func() {
		// Insert the batch's edges on even runs, delete them on odd ones:
		// every op changes the graph, at a new epoch each time.
		for i := range ops {
			ops[i] = tufast.StreamOp{U: uint32(i), V: uint32(i + batch), Del: run%2 == 1}
		}
		run++
		stats, err := d.ApplyStream(ops, tufast.StreamOptions{})
		if err != nil || stats.Inserted+stats.Removed != batch {
			t.Fatalf("ApplyStream: %+v, %v", stats, err)
		}
	}
	apply() // warm the worker pool and the workers' tables
	apply()
	if perOp := testing.AllocsPerRun(8, apply) / batch; perOp >= 0.1 {
		t.Errorf("ApplyStream allocates %.2f times per op, want under 0.1", perOp)
	} else {
		t.Logf("%.4f allocations per op", perOp)
	}
}

// TestApplyOwnedAllocsPerOp holds the owned path to allocating per batch,
// never per op: its per-op outcomes live in slices the graph keeps
// between batches, so on a warmed, undirected overlay serving-sized
// (256-op) batches, which apply on the caller's goroutine, and batches
// large enough to fan out over two owners both stay under a tenth of an
// allocation per op.
func TestApplyOwnedAllocsPerOp(t *testing.T) {
	t.Run("inline", func(t *testing.T) { ownedAllocsPerOp(t, 8192, 256, 64) })
	t.Run("fanout", func(t *testing.T) {
		const batch = 2 * tufast.MinOwnerOps
		ownedAllocsPerOp(t, 2*batch, batch, 12)
	})
}

// ownedAllocsPerOp applies batches of batch ops on two threads to n
// isolated vertices, with room for runs batches, and fails if they
// allocate a tenth of a time per op or more.
func ownedAllocsPerOp(t *testing.T, n, batch, runs int) {
	g, err := tufast.BuildGraph(n, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	_, d := newDynFixture(t, g, runs*batch, tufast.Options{Threads: 2})
	ops := make([]tufast.StreamOp, batch)
	run := 0
	apply := func() {
		// As above: inserts on even runs, deletes on odd ones.
		for i := range ops {
			ops[i] = tufast.StreamOp{U: uint32(i), V: uint32(i + batch), Del: run%2 == 1}
		}
		run++
		stats, err := d.ApplyOwned(ops)
		if err != nil || stats.Inserted+stats.Removed != batch {
			t.Fatalf("ApplyOwned: %+v, %v", stats, err)
		}
	}
	apply() // warm the outcome slices and the chains' blocks
	apply()
	// Eleven runs in all leave each chain two blocks long, short of the
	// length that builds a target index (an allocation per vertex, not
	// per op, and one the race detector's pool would repeat).
	if perOp := testing.AllocsPerRun(8, apply) / float64(batch); perOp >= 0.1 {
		t.Errorf("ApplyOwned allocates %.3f times per op, want under 0.1", perOp)
	} else {
		t.Logf("%.4f allocations per op", perOp)
	}
}
