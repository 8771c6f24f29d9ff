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
