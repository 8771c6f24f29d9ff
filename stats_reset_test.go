package tufast_test

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"tufast"
	"tufast/internal/sched"
)

// runCounterWorkload drives a System through all three modes so every
// snapshot counter family has a chance to move: neighborhood
// transactions (H for the power-law majority, O/L for the heavy tails),
// plus one user-stopped and one panicking transaction, one transaction
// hinted into L, and one injected transient abort so the backoff
// counters move on any machine.
func runCounterWorkload(t *testing.T, sys *tufast.System, g *tufast.Graph) {
	t.Helper()
	arr := sys.NewVertexArray(0)
	err := sys.ForEachVertex(func(tx tufast.Tx, v uint32) error {
		sum := tx.Read(v, arr.Addr(v))
		for _, u := range g.Neighbors(v) {
			sum += tx.Read(u, arr.Addr(u))
			tx.Write(u, arr.Addr(u), sum)
		}
		tx.Write(v, arr.Addr(v), sum)
		return nil
	})
	if err != nil {
		t.Fatalf("workload: %v", err)
	}
	sentinel := errors.New("stop")
	if err := sys.Atomic(0, func(tx tufast.Tx) error { return sentinel }); !errors.Is(err, sentinel) {
		t.Fatalf("user stop: %v", err)
	}
	var pe *tufast.TxPanicError
	if err := sys.Atomic(0, func(tx tufast.Tx) error { panic("boom") }); !errors.As(err, &pe) {
		t.Fatalf("panic stop: %v", err)
	}
	// One transaction hinted straight into L mode, so the L class moves
	// whatever the router decided above.
	if err := sys.Atomic(lHint, func(tx tufast.Tx) error { tx.Write(0, arr.Addr(0), 1); return nil }); err != nil {
		t.Fatalf("L-mode transaction: %v", err)
	}
	sys.Core().SetFaultInjector(sched.NewFaultInjector(sched.FaultSpec{Mode: "H", Op: "commit"}))
	defer sys.Core().SetFaultInjector(nil)
	if err := sys.Atomic(2, func(tx tufast.Tx) error { tx.Write(0, arr.Addr(0), 1); return nil }); err != nil {
		t.Fatalf("retried transaction: %v", err)
	}
}

// TestResetStatsZeroesEveryCounter pins the Snapshot/Reset invariant
// with reflection, so a counter added to Stats or to the metrics snapshot
// without a matching Reset (the bug this test was written against: HTM
// counters survived ResetStats) fails the test automatically instead of
// silently skewing post-warmup measurements.
func TestResetStatsZeroesEveryCounter(t *testing.T) {
	g := tufast.GeneratePowerLaw(4_000, 60_000, 2.1, 7)
	sys := tufast.NewSystem(g, tufast.Options{Threads: 8})
	runCounterWorkload(t, sys, g)

	pre := sys.StatsSnapshot()
	if pre.Commits == 0 || pre.Reads == 0 || pre.Writes == 0 {
		t.Fatalf("workload moved no counters: %+v", pre)
	}
	if pre.HTMStarts == 0 || pre.HTMCommits == 0 {
		t.Fatalf("workload started no emulated-HTM transactions: %+v", pre)
	}
	if pre.UserStops == 0 || pre.Panics == 0 {
		t.Fatalf("workload recorded no terminal stops: %+v", pre)
	}

	// The metrics snapshot holds counters the public Stats leaves out
	// (the wait table, HTM operation counts): the walker below must find them
	// zeroed too, beside the HTM and quiet-attempt counts both report.
	pm := sys.MetricsSnapshot()
	if pm.Waits["backoff"].Waits == 0 {
		t.Fatalf("workload recorded no backoff wait: %+v", pm.Waits)
	}
	if h := pm.HTM; h.Ops == 0 || h.Starts != pre.HTMStarts || h.Aborts["explicit"] != pre.HTMExplicit {
		t.Fatalf("workload moved no HTM operation counters, or the snapshots disagree: %+v, %+v", h, pre)
	}
	if q := pm.HQuiet; pre.HQuiet == 0 || q.Attempts != pre.HQuiet {
		t.Fatalf("workload began no quiet H attempt: %+v, %+v", pre, q)
	}
	if pre.Mode["L"].Transactions == 0 {
		t.Fatalf("workload committed nothing in L mode: %+v", pre.Mode)
	}

	sys.ResetStats()
	post := sys.StatsSnapshot()

	// Every numeric field of Stats is a cumulative counter and must be
	// zero after ResetStats — except CurrentPeriod, a gauge: the
	// adaptive controller's workload estimate deliberately survives
	// warmup resets (see the ResetStats doc comment).
	gauges := map[string]bool{"CurrentPeriod": true}
	rv := reflect.ValueOf(post)
	rt := rv.Type()
	for i := 0; i < rt.NumField(); i++ {
		f := rt.Field(i)
		if gauges[f.Name] {
			continue
		}
		assertZero(t, f.Name, rv.Field(i))
	}

	// The metrics snapshot is the one record both views read: every
	// numeric field of it but the gauges — the modes, transitions,
	// wait table, HTM and quiet-attempt counters — is a cumulative counter
	// that the same call clears.
	ms := sys.MetricsSnapshot()
	mv := reflect.ValueOf(ms)
	for i := 0; i < mv.NumField(); i++ {
		if name := mv.Type().Field(i).Name; name != "Gauges" {
			assertZero(t, "Metrics."+name, mv.Field(i))
		}
	}
	if got := ms.Totals(); got.Commits != 0 || got.Aborts != 0 {
		t.Errorf("MetricsSnapshot totals %+v after ResetStats", got)
	}
	for name, m := range ms.Modes {
		if m.Commits != 0 || len(m.Aborts) != 0 || len(m.Stops) != 0 {
			t.Errorf("mode %s not zeroed after ResetStats: %+v", name, m)
		}
	}
}

// assertZero recursively asserts that every numeric value reachable
// from v is zero.
func assertZero(t *testing.T, path string, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		if v.Uint() != 0 {
			t.Errorf("%s = %d after ResetStats, want 0", path, v.Uint())
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if v.Int() != 0 {
			t.Errorf("%s = %d after ResetStats, want 0", path, v.Int())
		}
	case reflect.Float32, reflect.Float64:
		if v.Float() != 0 {
			t.Errorf("%s = %v after ResetStats, want 0", path, v.Float())
		}
	case reflect.Map:
		iter := v.MapRange()
		for iter.Next() {
			assertZero(t, fmt.Sprintf("%s[%v]", path, iter.Key()), iter.Value())
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			assertZero(t, fmt.Sprintf("%s[%d]", path, i), v.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			assertZero(t, path+"."+v.Type().Field(i).Name, v.Field(i))
		}
	}
}

// TestMetricsSnapshotBreakdown checks the new observability surface
// end to end: a real workload produces per-mode commits whose total
// matches the scheduler commit counter, and the adaptive period gauge
// is present.
func TestMetricsSnapshotBreakdown(t *testing.T) {
	g := tufast.GeneratePowerLaw(4_000, 60_000, 2.1, 11)
	sys := tufast.NewSystem(g, tufast.Options{Threads: 8})
	runCounterWorkload(t, sys, g)

	st := sys.StatsSnapshot()
	ms := sys.MetricsSnapshot()
	if got := ms.Totals().Commits; got != st.Commits {
		t.Errorf("metrics commits = %d, stats commits = %d", got, st.Commits)
	}
	if _, ok := ms.Gauges["adaptive_period"]; !ok {
		t.Error("adaptive_period gauge missing")
	}
	var retries uint64
	for name, m := range ms.Modes {
		if m.Commits != 0 && m.Retries.Count() != m.Commits {
			t.Errorf("mode %s: retry histogram has %d entries for %d commits",
				name, m.Retries.Count(), m.Commits)
		}
		retries += m.Retries.Count()
	}
	if retries == 0 {
		t.Error("no retry histogram entries recorded")
	}
}
