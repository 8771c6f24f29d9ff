package tufast_test

import (
	"context"
	"errors"
	"testing"

	"tufast"
	"tufast/internal/htm"
	"tufast/internal/mem"
	"tufast/internal/sched"
)

// overflowLines lines setStride words apart share one set of the emulated
// L1 and overflow it: an H attempt, or an O segment, reading them all dies
// of capacity.
const (
	setStride     = htm.CacheSets * mem.WordsPerLine
	overflowLines = htm.CacheWays + 4
)

// overflowOneSet reads overflowLines lines of one cache set (vertex i
// owns line i) and bumps the first.
func overflowOneSet(tx sched.Tx) error {
	var sum uint64
	for i := uint32(0); i < overflowLines; i++ {
		sum += tx.Read(i, mem.Addr(i)*setStride)
	}
	tx.Write(0, 0, sum+1)
	return nil
}

// TestCancelAfterHAbortCountsOnce is the regression test for a
// cancellation that struck between two rungs of the mode ladder: the
// metrics recorded it as a stop, but the user-stop counter beside them did
// not, so Stats().UserStops missed what /metrics counted. A transaction
// takes an injected H abort, is cancelled during its retry, and leaves H
// on a capacity abort; the cancellation is then found before O and, once
// its size class has learnt to skip O, before L. Each time the snapshot's
// user stops, the public StatsSnapshot and the snapshot's "cancel" stops
// move by exactly one, the last under the mode the transaction was
// entering.
func TestCancelAfterHAbortCountsOnce(t *testing.T) {
	sys := tufast.NewSystem(tufast.GenerateUniform(16, 2, 1), tufast.Options{
		Threads:    1,
		SpaceWords: overflowLines*setStride + 4096,
		HMaxHint:   8,
	})
	c := sys.Core()
	// Thread id 0 is the System's pool worker, idle throughout.
	w := c.Worker(1)

	// views returns the three counts of cancellations, and the one of
	// those recorded under mode.
	views := func(mode string) [4]uint64 {
		var cancels uint64
		snap := c.Metrics().Snapshot()
		for _, m := range snap.Modes {
			cancels += m.Stops["cancel"]
		}
		return [4]uint64{snap.Totals().UserStops, sys.StatsSnapshot().UserStops, cancels, snap.Modes[mode].Stops["cancel"]}
	}
	cancelAfterHAbort := func(when string, hint int, mode string) {
		t.Helper()
		fi := sched.NewFaultInjector(sched.FaultSpec{Mode: "H", Op: "read"})
		c.SetFaultInjector(fi)
		defer c.SetFaultInjector(nil)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		before := views(mode)
		err := w.RunCtx(ctx, hint, func(tx sched.Tx) error {
			if fi.Fired() == 1 {
				cancel() // the injected abort's retry
			}
			return overflowOneSet(tx)
		})
		if !errors.Is(err, context.Canceled) || fi.Fired() != 1 {
			t.Fatalf("%s: err %v after %d injected aborts, want the cancellation after one", when, err, fi.Fired())
		}
		after := views(mode)
		for i, name := range []string{"Totals().UserStops", "StatsSnapshot().UserStops", `stops["cancel"]`, `stops["cancel"] under ` + mode} {
			if got := after[i] - before[i]; got != 1 {
				t.Errorf("%s: %s moved by %d, want 1", when, name, got)
			}
		}
	}

	cancelAfterHAbort("before O", 4, "O")

	// Hints 9..15 share a size class with 8, the H ceiling, but start in
	// O; overflowing every O segment, they teach the class to skip O.
	for i := 0; ; i++ {
		if i == 128 {
			t.Fatal("the size class never learnt to skip O")
		}
		var first sched.Tx
		if err := w.RunCtx(context.Background(), 10, func(tx sched.Tx) error {
			if first == nil {
				first = tx
			}
			return overflowOneSet(tx)
		}); err != nil {
			t.Fatal(err)
		}
		if _, inL := first.(*sched.TPLWorker); inL {
			break
		}
	}
	cancelAfterHAbort("before L", 8, "L")
}
