package obs

import (
	"encoding/json"
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
	p.BackoffWait(true, time.Millisecond)
	m.Transition(TransHO)
	if b := m.Snapshot().Backoff; b != (BackoffSnapshot{Waits: 1, Sleeps: 1, Ns: 1e6}) {
		t.Fatalf("backoff before Reset = %+v", b)
	}
	m.Reset()
	s := m.Snapshot()
	if len(s.Modes) != 0 || len(s.Transitions) != 0 || s.Backoff != (BackoffSnapshot{}) {
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
	// Backoff counters are per probe and sum over probes and snapshots.
	p1.BackoffWait(false, 100)
	p1b := m1.NewProbe()
	p1b.BackoffWait(true, 2000)
	p2.BackoffWait(true, 30000)

	// The quiet-attempt counters are folded in by the caller and sum too.
	s1, s2 := m1.Snapshot(), m2.Snapshot()
	s1.HQuiet, s2.HQuiet = QuietSnapshot{Attempts: 5, Killed: 1}, QuietSnapshot{Attempts: 7}

	merged := s1.Merge(s2)
	if want := (QuietSnapshot{Attempts: 12, Killed: 1}); merged.HQuiet != want {
		t.Fatalf("merged quiet attempts = %+v, want %+v", merged.HQuiet, want)
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
	if want := (BackoffSnapshot{Waits: 3, Sleeps: 2, Ns: 32100}); merged.Backoff != want {
		t.Fatalf("merged backoff = %+v, want %+v", merged.Backoff, want)
	}

	buf, err := json.Marshal(merged)
	if err != nil {
		t.Fatalf("snapshot does not marshal: %v", err)
	}
	var back Snapshot
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatalf("snapshot does not round-trip: %v", err)
	}
	if back.Totals() != merged.Totals() || back.Backoff != merged.Backoff || back.HQuiet != merged.HQuiet {
		t.Fatal("counts lost in JSON round-trip")
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
