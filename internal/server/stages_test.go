package server

import (
	"bytes"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"

	"tufast"
	"tufast/internal/obs"
)

// closedLoopBatches posts batches 256-op batches to a fresh server from
// writers goroutines, each sending its next batch when the previous one
// is answered, and returns the server's metrics section.
func closedLoopBatches(t *testing.T, writers, batches int) *obs.ServerSnapshot {
	t.Helper()
	const n = 4000
	s := startServer(t, newTestDyn(t, n, 8), Config{GCInterval: -1})
	url := "http://" + s.Addr() + "/v1/edges"
	bodies := make([][]byte, batches)
	rng := rand.New(rand.NewSource(int64(writers)))
	for i := range bodies {
		ops := make([]tufast.StreamOp, 256)
		for j := range ops {
			ops[j] = tufast.StreamOp{U: uint32(rng.Intn(n)), V: uint32(rng.Intn(n)), Del: rng.Intn(4) == 0}
		}
		bodies[i] = canonicalBody(ops)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{}
			for i := int(next.Add(1)) - 1; i < batches; i = int(next.Add(1)) - 1 {
				resp, err := client.Post(url, "application/json", bytes.NewReader(bodies[i]))
				if err != nil {
					t.Errorf("batch %d: %v", i, err)
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("batch %d: status %d", i, resp.StatusCode)
				}
			}
		}()
	}
	wg.Wait()
	return s.MetricsSnapshot().Server
}

// TestBatchStageTimers: the seven stage histograms account for a
// mutation batch's whole stay in the handler. Every answered batch is in
// every histogram once, and the stages' summed nanoseconds ARE
// batch_latency_ns's — one clock reading per boundary leaves no gap to
// explain — which is the property a "where did the time go" table needs
// (the histograms' medians are interpolated inside power-of-two buckets,
// so they are logged, not held to a tolerance). The lock-wait stage
// reads what it claims to: next to nothing with one writer, a wait on
// the order of the apply once more writers than cores queue for it.
func TestBatchStageTimers(t *testing.T) {
	batches := uint64(200)
	if testing.Short() {
		batches = 80
	}
	stages := func(sv *obs.ServerSnapshot) []obs.HistSnapshot {
		b := sv.BatchStages
		return []obs.HistSnapshot{b.Decode, b.Admit, b.LockWait, b.Apply, b.WAL, b.Standing, b.Respond}
	}
	var lockWait, apply [5]obs.HistSnapshot
	for _, writers := range []int{1, 4} {
		sv := closedLoopBatches(t, writers, int(batches))
		if t.Failed() {
			return
		}
		total := sv.BatchLatency
		if total.Count() != batches {
			t.Fatalf("%d writers: batch_latency_ns holds %d batches, want %d", writers, total.Count(), batches)
		}
		var sum, p50 uint64
		for i, h := range stages(sv) {
			if h.Count() != batches {
				t.Errorf("%d writers: stage %d holds %d batches, want %d", writers, i, h.Count(), batches)
			}
			sum += h.Sum
			p50 += h.Quantile(0.5)
		}
		if sum != total.Sum {
			t.Errorf("%d writers: the stages add up to %d ns, batch_latency_ns to %d", writers, sum, total.Sum)
		}
		b := sv.BatchStages
		t.Logf("%d writers: p50 ns decode %d admit %d lock_wait %d apply %d wal %d standing %d respond %d; their sum %d, batch_latency_ns p50 %d",
			writers, b.Decode.Quantile(0.5), b.Admit.Quantile(0.5), b.LockWait.Quantile(0.5), b.Apply.Quantile(0.5),
			b.WAL.Quantile(0.5), b.Standing.Quantile(0.5), b.Respond.Quantile(0.5), p50, total.Quantile(0.5))
		if b.Apply.Sum < total.Sum/10 {
			t.Errorf("%d writers: apply is %d of %d ns: the stages are mislabelled", writers, b.Apply.Sum, total.Sum)
		}
		lockWait[writers], apply[writers] = b.LockWait, b.Apply
	}
	// Four closed-loop writers keep the bracket busy: while one applies,
	// the others decode, answer or queue, and a queued writer waits out
	// the rest of the apply in flight and any ahead of it. Not every
	// batch queues (a writer can find the bracket free while the others
	// are outside it), so the contended run is read by its mean, against
	// its own apply stage — about one apply on two cores, with or without
	// -race — and the lone writer by its median.
	one, four, applied := lockWait[1].Quantile(0.5), lockWait[4].Mean(), apply[4].Mean()
	if one > 4096 || four < applied/4 {
		t.Errorf("lock_wait: p50 %d ns with one writer, mean %.0f ns with four (apply mean %.0f ns); want next to nothing, then a wait", one, four, applied)
	}
}
