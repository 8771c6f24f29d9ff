package core

import (
	"context"
	"testing"

	"tufast/internal/algo"
	"tufast/internal/graph"
	"tufast/internal/mem"
	"tufast/internal/obs"
	"tufast/internal/sched"
)

// mintSpy is a System whose minted workers the test can look inside.
type mintSpy struct {
	*System
	minted []*worker
}

func (s *mintSpy) Worker(tid int) sched.Worker {
	w := s.System.Worker(tid).(*worker)
	s.minted = append(s.minted, w)
	return w
}

// TestPooledWorkerDropsGiantScratch: a worker in the driver's pool lives
// as long as the System, so once a whole-graph call has ended the mode
// contexts a hub-sized transaction grew must not stay with it — while
// everything the pool keeps the worker for (id, gate flag, probe,
// router state, the L-mode worker hosted on that probe) must. A Release
// alone keeps them: the next lease may be the next window of one stream.
func TestPooledWorkerDropsGiantScratch(t *testing.T) {
	const hub = 6000 // words one transaction touches, each its own vertex
	s, sp := newSys(hub, Config{})
	spy := &mintSpy{System: s}
	rt := algo.NewRuntime(graph.MustBuild(1, nil, graph.BuildOptions{}), sp, spy, 1)
	touchAll := func(tx sched.Tx) error {
		for v := uint32(0); v < hub; v++ {
			tx.Write(v, mem.Addr(v), tx.Read(v, mem.Addr(v))+1)
		}
		return nil
	}
	oSize := func(o *oCtx) int { return cap(o.reads) + o.readIdx.Cap() + cap(o.writes) + o.writeIdx.Cap() }
	fresh := oSize(newOCtx(&worker{s: s, probe: s.Metrics().NewProbe()}))

	w := rt.Lease()
	cw := spy.minted[0]
	c, l, probe := cw.c, cw.l, &cw.probe
	// One transaction above H's ceiling (O mode), one above O's (L mode).
	for _, hint := range []int{s.cfg.HMaxHint + 1, s.cfg.OMaxHint + 1} {
		if err := w.Run(context.Background(), hint, touchAll); err != nil {
			t.Fatal(err)
		}
	}
	if commits(s, obs.ModeO)+commits(s, obs.ModeOPlus) != 1 || commits(s, obs.ModeL) != 1 {
		t.Fatalf("want one O and one L commit, got %v", modeDump(s))
	}
	if grown := oSize(cw.o); grown < 2*hub {
		t.Fatalf("the O context holds %d slots after a %d-word transaction: the test grows nothing", grown, hub)
	}
	learnt := cw.route[sizeClass(s.cfg.HMaxHint+1)] // the O transaction's class
	if learnt.oTries != 1 {
		t.Fatalf("router state of the O transaction's class: %+v", learnt)
	}
	rt.Release(w)
	if kept := oSize(cw.o); kept < 2*hub {
		t.Fatalf("Release alone left the O context %d slots: a stream's next window would regrow it", kept)
	}
	if err := rt.ForEachVertex(algo.NoWarm, func(sched.Tx, uint32) error { return nil }); err != nil {
		t.Fatal(err)
	}

	if got := oSize(cw.o); got != fresh {
		t.Errorf("pooled worker's O context holds %d slots, a fresh one %d", got, fresh)
	}
	if got := cap(cw.h.subs) + cw.h.vstate.Cap(); got > sched.ScratchKeep {
		t.Errorf("pooled worker's H context holds %d slots", got)
	}
	if rt.Lease() != w || len(spy.minted) != 1 {
		t.Fatal("the pool minted a second worker instead of handing the first back")
	}
	if cw.c != c || cw.l != l || &cw.probe != probe || cw.route[sizeClass(s.cfg.HMaxHint+1)] != learnt {
		t.Error("trimming replaced the worker's counters, L-mode worker, probe or router state")
	}
	// The trimmed contexts work, and count where they always did.
	if err := w.Run(context.Background(), s.cfg.HMaxHint+1, touchAll); err != nil {
		t.Fatal(err)
	}
	if sp.Load(mem.Addr(hub-1)) != 3 || snapshot(s).Totals().Commits != 4 {
		t.Fatalf("after the trim: word = %d, commits = %d, want 3 and 4", sp.Load(mem.Addr(hub-1)), snapshot(s).Totals().Commits)
	}
}
