package obs

import (
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	h.Record(0) // bucket 0: exact zeros
	h.Record(1) // bucket 1: [1,1]
	h.Record(2) // bucket 2: [2,3]
	h.Record(3)
	h.Record(4)       // bucket 3: [4,7]
	h.Record(1 << 50) // clamps into the last bucket
	s := h.Snapshot()
	want := map[int]uint64{0: 1, 1: 1, 2: 2, 3: 1, HistBuckets - 1: 1}
	for i, c := range s.Counts {
		if c != want[i] {
			t.Errorf("bucket %d = %d, want %d", i, c, want[i])
		}
	}
	if got := s.Count(); got != 6 {
		t.Errorf("Count = %d, want 6", got)
	}
	if s.Sum != 0+1+2+3+4+1<<50 {
		t.Errorf("Sum = %d", s.Sum)
	}
}

func TestHistogramQuantile(t *testing.T) {
	var h Histogram
	for i := 0; i < 100; i++ {
		h.Record(10) // bucket 4: [8,15]
	}
	h.Record(1000) // bucket 10: [512,1023]
	s := h.Snapshot()
	// Rank 50 of the 100 values spread over [8,15]: 8 + 7·50.5/100.
	if q := s.Quantile(0.5); q != 11 {
		t.Errorf("p50 = %d, want 11", q)
	}
	// Quantiles rise with q inside one bucket instead of all reading its
	// upper edge, and stay inside it.
	lo, hi := s.Quantile(0.01), s.Quantile(0.98)
	if lo < 8 || lo >= hi || hi > BucketUpper(4) {
		t.Errorf("p1 = %d, p98 = %d: want 8 <= p1 < p98 <= %d", lo, hi, BucketUpper(4))
	}
	// The one value of the top bucket reads as its middle, never beyond
	// its edge.
	if q := s.Quantile(1.0); q != 767 {
		t.Errorf("p100 = %d, want 767 (middle of [512,1023])", q)
	}
	var empty HistSnapshot
	if q := empty.Quantile(0.5); q != 0 {
		t.Errorf("empty quantile = %d, want 0", q)
	}
	var zeros Histogram
	zeros.Record(0)
	if q := zeros.Snapshot().Quantile(0.5); q != 0 {
		t.Errorf("quantile of exact zeros = %d, want 0", q)
	}
	// A lone 6 s value (a standing-repair lag) no longer reads as its
	// bucket's edge, 2^33-1 ns.
	var lag Histogram
	lag.Record(6_000_000_000) // bucket 33: [2^32, 2^33)
	if q := lag.Snapshot().Quantile(0.5); q <= 1<<32 || q >= BucketUpper(33) {
		t.Errorf("lone-sample p50 = %d, want strictly inside (2^32, 2^33-1)", q)
	}
}

// TestHistogramMergeConcurrent records into two histograms from many
// goroutines (the hot-path usage) and checks that merged snapshots are
// exact. Run under -race this also proves Record/Snapshot are safe.
func TestHistogramMergeConcurrent(t *testing.T) {
	var a, b Histogram
	const workers = 8
	const each = 10_000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := seed*0x9E3779B97F4A7C15 + 1
			for i := 0; i < each; i++ {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				v := rng % 4096
				if seed%2 == 0 {
					a.Record(v)
				} else {
					b.Record(v)
				}
			}
		}(uint64(w))
	}
	wg.Wait()
	sa, sb := a.Snapshot(), b.Snapshot()
	m := sa.Merge(sb)
	if got, want := m.Count(), uint64(workers*each); got != want {
		t.Fatalf("merged count = %d, want %d", got, want)
	}
	if m.Sum != sa.Sum+sb.Sum {
		t.Fatalf("merged sum = %d, want %d", m.Sum, sa.Sum+sb.Sum)
	}
	for i := range m.Counts {
		if m.Counts[i] != sa.Counts[i]+sb.Counts[i] {
			t.Fatalf("bucket %d: merged %d != %d+%d", i, m.Counts[i], sa.Counts[i], sb.Counts[i])
		}
	}
}

func TestMetricsReset(t *testing.T) {
	var m Metrics
	p := m.NewProbe()
	sp := p.TxBegin()
	p.TxAbort(ModeO, ReasonCapacity)
	p.TxCommit(ModeO, 1, sp, 3, 2)
	p.TxStop(ModeL, ReasonUser)
	p.Wait(WaitBackoff, true, time.Millisecond)
	p.Wait(WaitLLock, false, time.Microsecond)
	m.Transition(TransHO)
	h := p.HTM()
	h.Starts.Add(2)
	h.Commits.Add(1)
	h.Ops.Add(8)
	h.WastedOps.Add(3)
	h.Abort(ReasonCapacity)
	p.QuietBegin()
	p.QuietKilled()
	s := m.Snapshot()
	if want := map[string]WaitSnapshot{"backoff": {Waits: 1, Sleeps: 1, Ns: 1e6}, "l_lock": {Waits: 1, Ns: 1e3}}; !reflect.DeepEqual(s.Waits, want) {
		t.Fatalf("waits before Reset = %+v, want %+v", s.Waits, want)
	}
	if hs := s.HTM; hs.Starts != 2 || hs.Commits != 1 || hs.Ops != 8 || hs.WastedOps != 3 || len(hs.Aborts) != 1 || hs.Aborts["capacity"] != 1 {
		t.Fatalf("htm before Reset = %+v", hs)
	}
	if s.HQuiet != (QuietSnapshot{Attempts: 1, Killed: 1}) {
		t.Fatalf("quiet attempts before Reset = %+v", s.HQuiet)
	}
	m.Reset()
	s = m.Snapshot()
	if len(s.Modes) != 0 || len(s.Transitions) != 0 || len(s.Waits) != 0 || s.HQuiet != (QuietSnapshot{}) ||
		s.HTM.Starts != 0 || s.HTM.Commits != 0 || s.HTM.Ops != 0 || s.HTM.WastedOps != 0 || s.HTM.Aborts != nil {
		t.Fatalf("snapshot not empty after Reset: %+v", s)
	}
	p.TxCommit(ModeO, 0, Span{}, 0, 0)
	if o := m.Snapshot().Modes["O"]; o.Reads != 0 || o.Writes != 0 {
		t.Fatalf("operations survived Reset: %d reads, %d writes", o.Reads, o.Writes)
	}
}

func TestSnapshotMergeAndJSON(t *testing.T) {
	var m1, m2 Metrics
	p1, p2 := m1.NewProbe(), m2.NewProbe()
	p1.TxCommit(ModeH, 0, Span{}, 2, 1)
	p1.TxAbort(ModeH, ReasonConflict)
	p1.TxStop(ModeH, ReasonPanic)
	p2.TxCommit(ModeH, 2, Span{}, 3, 0)
	p2.TxCommit(ModeL, 0, Span{}, 1, 1)
	p2.TxAbort(ModeL, ReasonDeadlock)
	p2.TxStop(ModeL, ReasonCancel)
	m2.Transition(TransOL)
	// Wait counters are per probe and reason and sum over probes and
	// snapshots.
	p1.Wait(WaitBackoff, false, 100)
	p1b := m1.NewProbe()
	p1b.Wait(WaitBackoff, true, 2000)
	p2.Wait(WaitBackoff, true, 30000)
	p2.Wait(WaitCommitting, false, 400)

	// So are the quiet-attempt and emulated-HTM counters; an abort
	// reattributed moves between reasons.
	for range 5 {
		p1.QuietBegin()
	}
	p1.QuietKilled()
	for range 7 {
		p1b.QuietBegin()
	}
	h1, h1b, h2 := p1.HTM(), p1b.HTM(), p2.HTM()
	h1.Starts.Add(3)
	h1.Commits.Add(1)
	h1.Ops.Add(4)
	h1.Abort(ReasonConflict)
	h1.Abort(ReasonConflict)
	h1.Reattribute(ReasonConflict, ReasonExplicit)
	h1.WastedOps.Add(2)
	h1b.Abort(ReasonCapacity)
	h2.Starts.Add(5)
	h2.Commits.Add(4)
	h2.Ops.Add(9)
	h2.Abort(ReasonConflict)
	h2.WastedOps.Add(1)

	merged := m1.Snapshot().Merge(m2.Snapshot())
	if want := (QuietSnapshot{Attempts: 12, Killed: 1}); merged.HQuiet != want {
		t.Fatalf("merged quiet attempts = %+v, want %+v", merged.HQuiet, want)
	}
	wantHTM := HTMSnapshot{Starts: 8, Commits: 5, Ops: 13, WastedOps: 3,
		Aborts: map[string]uint64{"conflict": 2, "explicit": 1, "capacity": 1}}
	if !reflect.DeepEqual(merged.HTM, wantHTM) {
		t.Fatalf("merged htm = %+v, want %+v", merged.HTM, wantHTM)
	}
	if h := merged.Modes["H"]; h.Commits != 2 || h.Reads != 5 || h.Writes != 1 {
		t.Fatalf("merged H: %d commits, %d reads, %d writes, want 2, 5, 1", h.Commits, h.Reads, h.Writes)
	}
	want := Totals{Commits: 3, Aborts: 2, UserStops: 2, Panics: 1, Deadlocks: 1, Reads: 6, Writes: 2}
	if got := merged.Totals(); got != want {
		t.Fatalf("merged totals = %+v, want %+v", got, want)
	}
	if got := merged.AbortReasons()["conflict"]; got != 1 {
		t.Fatalf("merged conflict aborts = %d, want 1", got)
	}
	if got := merged.Transitions["o_to_l"]; got != 1 {
		t.Fatalf("merged o_to_l = %d, want 1", got)
	}
	if want := map[string]WaitSnapshot{"backoff": {Waits: 3, Sleeps: 2, Ns: 32100}, "committing": {Waits: 1, Ns: 400}}; !reflect.DeepEqual(merged.Waits, want) {
		t.Fatalf("merged waits = %+v, want %+v", merged.Waits, want)
	}

	buf, err := json.Marshal(merged)
	if err != nil {
		t.Fatalf("snapshot does not marshal: %v", err)
	}
	var back Snapshot
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatalf("snapshot does not round-trip: %v", err)
	}
	if back.Totals() != merged.Totals() || !reflect.DeepEqual(back.Waits, merged.Waits) || back.HQuiet != merged.HQuiet || !reflect.DeepEqual(back.HTM, merged.HTM) {
		t.Fatal("counts lost in JSON round-trip")
	}
	if !strings.Contains(string(buf), `"htm":{"starts":8,`) {
		t.Fatalf("no htm object in %s", buf)
	}
}

func TestLatencySampling(t *testing.T) {
	var m Metrics
	p := m.NewProbe()
	// Drive enough transactions that the 1-in-64 sampler must fire.
	for i := 0; i < 256; i++ {
		sp := p.TxBegin()
		if sp.start != 0 {
			time.Sleep(time.Microsecond)
		}
		p.TxCommit(ModeTx, 0, sp, 0, 0)
	}
	s := m.Snapshot().Modes["tx"]
	if s.Commits != 256 {
		t.Fatalf("commits = %d", s.Commits)
	}
	if got := s.Latency.Count(); got != 256/64 {
		t.Fatalf("latency samples = %d, want %d", got, 256/64)
	}
	if s.Retries.Count() != 256 {
		t.Fatalf("retry histogram must record every commit, got %d", s.Retries.Count())
	}
}

// TestModeStrings pins the mode names snapshots and JSON key on: the
// Figure 15 classes TuFast commits in, and the baselines' tx.
func TestModeStrings(t *testing.T) {
	want := map[Mode]string{ModeH: "H", ModeO: "O", ModeOPlus: "O+", ModeO2L: "O2L", ModeL: "L", ModeTx: "tx", NumModes: "?"}
	for m, s := range want {
		if m.String() != s {
			t.Errorf("%d -> %q, want %q", m, m.String(), s)
		}
	}
}
