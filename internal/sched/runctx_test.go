package sched_test

import (
	"context"
	"errors"
	"testing"

	"tufast/internal/core"
	"tufast/internal/mem"
	"tufast/internal/sched"
)

// TestRunCtxEveryScheduler: RunCtx cancels on every scheduler, TuFast's
// included. A cancelled ctx returns its error before the body runs; a
// body that always aborts, cancelled after its third attempt, stops with
// context.Canceled, recorded once as a cancel stop and never as a commit.
func TestRunCtxEveryScheduler(t *testing.T) {
	const n = 8
	all := makeAll(n)
	all["tufast"] = func() (sched.Scheduler, *mem.Space) {
		sp := mem.NewSpace(4*n + 1024)
		return core.New(sp, n, core.Config{}), sp
	}
	for name, mk := range all {
		t.Run(name, func(t *testing.T) {
			s, _ := mk()
			w := s.Worker(0)

			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			ran := false
			if err := w.RunCtx(ctx, 2, func(sched.Tx) error { ran = true; return nil }); !errors.Is(err, context.Canceled) || ran {
				t.Fatalf("pre-cancelled: err %v, body ran %v; want context.Canceled, not run", err, ran)
			}

			ctx, cancel = context.WithCancel(context.Background())
			defer cancel()
			attempts := 0
			err := w.RunCtx(ctx, 2, func(tx sched.Tx) error {
				tx.Write(1, 1, tx.Read(1, 1)+1)
				if attempts++; attempts == 3 {
					cancel()
				}
				sched.ThrowAbort("always")
				return nil
			})
			if !errors.Is(err, context.Canceled) || attempts != 3 {
				t.Fatalf("err %v after %d attempts, want context.Canceled after 3", err, attempts)
			}
			snap := s.Metrics().Snapshot()
			var cancels uint64
			for _, m := range snap.Modes {
				cancels += m.Stops["cancel"]
			}
			if tot := snap.Totals(); tot.UserStops != 1 || cancels != 1 || tot.Commits != 0 {
				t.Fatalf("%d stops (%d cancels) and %d commits, want one cancel stop and no commit", tot.UserStops, cancels, tot.Commits)
			}
		})
	}
}
