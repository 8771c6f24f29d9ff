package worklist

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fifo is a Queue as Drain's source and sink.
type fifo struct{ *Queue }

func (f fifo) Push(v uint32, _ uint64) { f.Queue.Push(v) }

// popOnly hides a Queue's chunk methods: the shape of a caller's own
// Source, which Drain polls one id at a time.
type popOnly struct{ q *Queue }

func (p popOnly) Pop() (uint32, bool)     { return p.q.Pop() }
func (p popOnly) Len() int                { return p.q.Len() }
func (p popOnly) Push(v uint32, _ uint64) { p.q.Push(v) }

// steps adapts a per-id function to Drain's start callback; the popped
// priority is dropped.
func steps(fn func(tid int, v uint32, out *Emits) error) func(int, *Emits) (func(uint32, uint64) error, func()) {
	return func(tid int, out *Emits) (func(uint32, uint64) error, func()) {
		return func(v uint32, _ uint64) error { return fn(tid, v, out) }, func() {}
	}
}

// drainWithin fails the test if Drain does not return in time: every
// driver bug this file looks for shows as a hang.
func drainWithin(t *testing.T, d time.Duration, ctx context.Context, src Source, sink Sink, workers int,
	start func(int, *Emits) (func(uint32, uint64) error, func())) (uint64, error) {
	t.Helper()
	type result struct {
		n   uint64
		err error
	}
	done := make(chan result, 1)
	go func() {
		n, err := Drain(ctx, src, sink, workers, start)
		done <- result{n, err}
	}()
	select {
	case r := <-done:
		return r.n, r.err
	case <-time.After(d):
		t.Fatal("Drain hung")
		return 0, nil
	}
}

// TestDrainRunsEveryWakeupOnce: a chain of post-commit wakeups, through a
// chunked source, a priority source and a caller's pop-only source, is
// followed to its end, every id once, and the commit count is exact.
func TestDrainRunsEveryWakeupOnce(t *testing.T) {
	const n = 5000
	pq := NewPQ(4)
	sources := map[string]interface {
		Source
		Sink
	}{
		"queue":    fifo{NewQueue(4)},
		"pq":       pqSource{pq},
		"pop-only": popOnly{NewQueue(4)},
	}
	for name, q := range sources {
		t.Run(name, func(t *testing.T) {
			for v := uint32(0); v < 8; v++ {
				q.Push(v, uint64(v))
			}
			visits := make([]atomic.Int32, n)
			committed, err := drainWithin(t, 10*time.Second, context.Background(), q, q, 4,
				steps(func(_ int, v uint32, out *Emits) error {
					visits[v].Add(1)
					if next := v + 8; next < n {
						out.Emit(next, uint64(next))
					}
					return nil
				}))
			if err != nil {
				t.Fatal(err)
			}
			if committed != n {
				t.Fatalf("Drain counted %d commits, want %d", committed, n)
			}
			for v := range visits {
				if got := visits[v].Load(); got != 1 {
					t.Fatalf("id %d ran %d times", v, got)
				}
			}
		})
	}
}

type pqSource struct{ *PQ }

func (s pqSource) Pop() (uint32, bool) {
	v, _, ok := s.PQ.Pop()
	return v, ok
}

func (s pqSource) PopPrio() (uint32, uint64, bool) { return s.PQ.Pop() }

// TestDrainHandsStepThePoppedPriority: a priority source's step gets the
// priority its id was popped with, and an emitted item keeps its priority
// through the sink's PushChunk; a chunked or pop-only FIFO's step gets 0
// whatever was emitted.
func TestDrainHandsStepThePoppedPriority(t *testing.T) {
	const n, base = 500, 1000
	for name, tc := range map[string]struct {
		q interface {
			Source
			Sink
		}
		prio func(v uint32) uint64
	}{
		"pq":       {pqSource{NewPQ(2)}, func(v uint32) uint64 { return base + uint64(v) }},
		"queue":    {fifo{NewQueue(2)}, func(uint32) uint64 { return 0 }},
		"pop-only": {popOnly{NewQueue(2)}, func(uint32) uint64 { return 0 }},
	} {
		t.Run(name, func(t *testing.T) {
			tc.q.Push(0, base)
			got := make([]atomic.Uint64, n)
			_, err := drainWithin(t, 10*time.Second, context.Background(), tc.q, tc.q, 2,
				func(_ int, out *Emits) (func(uint32, uint64) error, func()) {
					return func(v uint32, prio uint64) error {
						got[v].Store(prio + 1)
						if v+1 < n {
							out.Emit(v+1, base+uint64(v)+1)
						}
						return nil
					}, func() {}
				})
			if err != nil {
				t.Fatal(err)
			}
			for v := range got {
				if p := got[v].Load(); p != tc.prio(uint32(v))+1 {
					t.Fatalf("step for %d got priority %d, want %d", v, int64(p)-1, tc.prio(uint32(v)))
				}
			}
		})
	}
}

// TestDrainErrorWhileOthersIdle is the quiesce invariant: one worker's
// step fails while every other worker idles on an empty queue. A failing
// worker that left without its idle contribution would strand them.
func TestDrainErrorWhileOthersIdle(t *testing.T) {
	q := fifo{NewQueue(8)}
	q.Queue.Push(0)
	boom := errors.New("step failed")
	_, err := drainWithin(t, 10*time.Second, context.Background(), q, q, 8,
		steps(func(int, uint32, *Emits) error {
			time.Sleep(50 * time.Millisecond) // let the others reach their idle spin
			return boom
		}))
	if err != boom {
		t.Fatalf("err = %v, want %v", err, boom)
	}
}

// TestDrainLeavesHoldingChunk: a worker that fails, or is cancelled,
// while it still holds ids it popped into its private chunk abandons them;
// its peers, idle on an empty queue, must still terminate.
func TestDrainLeavesHoldingChunk(t *testing.T) {
	boom := errors.New("step failed")
	for _, how := range []string{"error", "cancel"} {
		t.Run(how, func(t *testing.T) {
			q := fifo{NewQueue(1)} // one shard: the first poll takes half of it
			for v := uint32(0); v < 128; v++ {
				q.Queue.Push(v)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var first atomic.Bool
			var ran atomic.Int32
			_, err := drainWithin(t, 10*time.Second, ctx, q, q, 4,
				steps(func(int, uint32, *Emits) error {
					ran.Add(1)
					if !first.CompareAndSwap(false, true) {
						return nil
					}
					// The worker that got here first is on the first id of its
					// first chunk: 64, 32, 16 or 8 ids, as the four workers'
					// first polls halve the shard. Wait until its peers have
					// emptied the queue and gone idle, then leave with the
					// rest of the chunk unprocessed.
					for q.Len() > 0 {
						time.Sleep(time.Millisecond)
					}
					time.Sleep(20 * time.Millisecond)
					if how == "error" {
						return boom
					}
					cancel()
					return ctx.Err()
				}))
			if want := map[string]error{"error": boom, "cancel": context.Canceled}[how]; !errors.Is(err, want) {
				t.Fatalf("err = %v, want %v", err, want)
			}
			if got := ran.Load(); got > 128-7 {
				t.Fatalf("%d of 128 steps ran: the leaving worker held no chunk, the test exercises nothing", got)
			}
		})
	}
}

// TestDrainCancelPrompt cancels a drain that never empties.
func TestDrainCancelPrompt(t *testing.T) {
	q := fifo{NewQueue(4)}
	for v := uint32(0); v < 64; v++ {
		q.Queue.Push(v)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	_, err := drainWithin(t, 10*time.Second, ctx, q, q, 4,
		steps(func(_ int, v uint32, out *Emits) error {
			out.Emit(v, 0) // never lets the queue drain
			return nil
		}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestDrainRetriedAttemptEmitsOnce: what an aborted attempt emitted is
// dropped by the Retry its successor starts with, so a transaction that
// commits on its third attempt delivers its wakeups once — and a retry
// never eats the wakeups of the transactions committed before it in the
// same chunk.
func TestDrainRetriedAttemptEmitsOnce(t *testing.T) {
	const n = 200
	q := fifo{NewQueue(2)}
	for v := uint32(0); v < n; v++ {
		q.Queue.Push(v)
	}
	deliveries := make([]atomic.Int32, 2*n)
	committed, err := drainWithin(t, 10*time.Second, context.Background(), q, q, 3,
		steps(func(_ int, v uint32, out *Emits) error {
			if v >= n {
				deliveries[v].Add(1)
				return nil
			}
			for attempt := 0; attempt < 3; attempt++ {
				out.Retry()
				out.Emit(v+n, 0)
			}
			return nil
		}))
	if err != nil {
		t.Fatal(err)
	}
	if committed != 2*n {
		t.Fatalf("%d commits, want %d", committed, 2*n)
	}
	for v := n; v < 2*n; v++ {
		if got := deliveries[v].Load(); got != 1 {
			t.Fatalf("wakeup %d delivered %d times", v, got)
		}
	}
}

// TestDrainSharesShortQueue: three ids in one shard, four workers. A poll
// takes at most half of what the shard holds, so no worker may take all
// three: each step waits until all three are in flight at once.
func TestDrainSharesShortQueue(t *testing.T) {
	q := fifo{NewQueue(4)}
	for _, v := range []uint32{0, 4, 8} { // all in shard 0
		q.Queue.Push(v)
	}
	var inFlight atomic.Int32
	together := make(chan struct{})
	var takers sync.Map
	_, err := drainWithin(t, 10*time.Second, context.Background(), q, q, 4,
		steps(func(tid int, _ uint32, _ *Emits) error {
			takers.Store(tid, true)
			if inFlight.Add(1) == 3 {
				close(together)
			}
			select {
			case <-together:
				return nil
			case <-time.After(2 * time.Second):
				return errors.New("the three ids never ran at the same time: one worker took more than one")
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	workers := 0
	takers.Range(func(any, any) bool { workers++; return true })
	if workers != 3 {
		t.Fatalf("%d workers shared 3 ids, want 3", workers)
	}
}

// TestDrainAllocations: the driver allocates per worker, never per id.
func TestDrainAllocations(t *testing.T) {
	const n = 10_000
	q := fifo{NewQueue(4)}
	run := func() {
		for v := uint32(0); v < n; v++ {
			q.Queue.Push(v)
		}
		committed, err := Drain(context.Background(), q, q, 4, steps(func(int, uint32, *Emits) error { return nil }))
		if err != nil || committed != n {
			t.Errorf("drained %d of %d: %v", committed, n, err)
		}
	}
	run() // sizes the shards
	if allocs := testing.AllocsPerRun(5, run); allocs >= 64 {
		t.Fatalf("a drain of %d ids allocates %.0f times, want under 64", n, allocs)
	}
}

// TestQueueChunksMatchSingles: PushChunk puts every id where Push would,
// in the same order, and PopChunk hands out the ids Pop would, never more
// than half a shard.
func TestQueueChunksMatchSingles(t *testing.T) {
	const shards, n = 3, 1000
	one, chunk := NewQueue(shards), NewQueue(shards)
	items := make([]Item, n)
	for i := range items {
		v := uint32(i*7919) % 5000
		items[i] = Item{V: v}
		one.Push(v)
	}
	chunk.PushChunk(items)
	if chunk.Len() != n {
		t.Fatalf("Len = %d after PushChunk of %d", chunk.Len(), n)
	}
	for s := range one.shards {
		a, b := one.shards[s].items, chunk.shards[s].items
		if len(a) != len(b) {
			t.Fatalf("shard %d holds %d ids after PushChunk, %d after Push", s, len(b), len(a))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("shard %d position %d: %d after PushChunk, %d after Push", s, i, b[i], a[i])
			}
		}
	}
	var buf [64]uint32
	for got := 0; got < n; {
		holds := make([]int, shards)
		for s := range chunk.shards {
			holds[s] = len(chunk.shards[s].items) - chunk.shards[s].head
		}
		k := chunk.PopChunk(buf[:])
		if k == 0 {
			t.Fatalf("PopChunk found nothing with %d ids left", n-got)
		}
		// The ids come from the front of one shard, in order.
		from := -1
		for s := range one.shards {
			if sh := &one.shards[s]; sh.head < len(sh.items) && sh.items[sh.head] == buf[0] {
				from = s
			}
		}
		if from < 0 {
			t.Fatalf("PopChunk returned %d, not at the head of any shard", buf[0])
		}
		if k > max(holds[from]/2, 1) {
			t.Fatalf("PopChunk took %d of a shard holding %d", k, holds[from])
		}
		for i := 0; i < k; i++ {
			sh := &one.shards[from]
			if sh.items[sh.head] != buf[i] {
				t.Fatalf("PopChunk id %d = %d, Pop order has %d", i, buf[i], sh.items[sh.head])
			}
			sh.head++
		}
		got += k
	}
	if chunk.Len() != 0 || chunk.PopChunk(buf[:]) != 0 {
		t.Fatal("queue not empty after popping everything")
	}
}

// TestPQPushChunk: a chunk of pushes leaves the heap popping in priority
// order per shard, as single pushes do.
func TestPQPushChunk(t *testing.T) {
	q := NewPQ(1)
	items := make([]Item, 500)
	for i := range items {
		items[i] = Item{V: uint32(i), Prio: uint64((i * 7919) % 1000)}
	}
	q.PushChunk(items)
	if q.Len() != len(items) {
		t.Fatalf("Len = %d", q.Len())
	}
	last := uint64(0)
	for range items {
		_, prio, ok := q.Pop()
		if !ok || prio < last {
			t.Fatalf("pop out of order: %d after %d (ok=%v)", prio, last, ok)
		}
		last = prio
	}
}

// BenchmarkDrain is the driver's own cost per id: b.N no-op steps, half
// of them queued up front and each of those waking one more, on
// GOMAXPROCS workers. Run it at -cpu 1,2: the loop shares the queue and
// nothing else, so the second worker should make a drain faster, not
// slower.
func BenchmarkDrain(b *testing.B) {
	half := uint32(b.N/2 + 1)
	q := fifo{NewQueue(4)}
	for v := uint32(0); v < half; v++ {
		q.Queue.Push(v)
	}
	b.ResetTimer()
	_, err := Drain(context.Background(), q, q, runtime.GOMAXPROCS(0), steps(func(_ int, v uint32, out *Emits) error {
		if v < half {
			out.Emit(v+half, 0)
		}
		return nil
	}))
	if err != nil {
		b.Fatal(err)
	}
}
