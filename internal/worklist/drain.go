package worklist

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Source is a work queue Drain polls: *Queue, a *PQ adapter, or anything
// else that pops vertex ids. A source that also has PopChunk is polled a
// chunk at a time; one that has PopPrio instead is polled through it, and
// each step gets the priority its id was popped with.
type Source interface {
	Pop() (uint32, bool)
	Len() int
}

// Sink receives the wakeups of committed transactions (prio is ignored by
// FIFO sinks). A sink that also has PushChunk gets each worker's wakeups
// in one call.
type Sink interface {
	Push(v uint32, prio uint64)
}

// Item is one wakeup: a vertex id and, for priority sinks, its priority.
type Item struct {
	V    uint32
	Prio uint64
}

// drainChunk is how many ids a worker takes from a chunked source at
// once. *Queue hands out at most half of what the polled shard holds, so
// a short queue is still shared out.
const drainChunk = 64

// Emits collects one Drain worker's wakeups between publishes. Emit is
// called from inside transaction bodies, so what an attempt emitted must
// be dropped when it aborts: call Retry at the start of every attempt.
type Emits struct {
	items []Item
	mark  int // len(items) when the current transaction began
}

// Emit buffers a wakeup of v; it is delivered only if the transaction
// that emitted it commits.
func (e *Emits) Emit(v uint32, prio uint64) {
	e.items = append(e.items, Item{V: v, Prio: prio})
}

// Retry discards what earlier attempts of the current transaction
// emitted.
func (e *Emits) Retry() { e.items = e.items[:e.mark] }

// publish delivers the buffered wakeups to sink.
func (e *Emits) publish(sink Sink) {
	if len(e.items) == 0 {
		return
	}
	if cs, ok := sink.(interface{ PushChunk([]Item) }); ok {
		cs.PushChunk(e.items)
	} else {
		for _, it := range e.items {
			sink.Push(it.V, it.Prio)
		}
	}
	e.items = e.items[:0]
}

// Drain is the queued driver (paper Fig. 3) behind every ForEachQueued in
// the module: workers goroutines poll src and run one transaction per
// polled id until src is empty and every worker is idle. It returns the
// number of transactions that committed, and the first error.
//
// start runs once on each goroutine and returns that worker's step — which
// runs the transaction for one id and returns nil once it committed — and
// a stop to call when the worker leaves. step gets the id's priority from
// a source with PopPrio and 0 from any other. Wakeups go through out: they
// are buffered privately and published to sink only after the transaction
// committed (an aborted attempt's are dropped, see Emits.Retry), which
// closes the lost-wakeup window of pushing before the activating write is
// visible. sink is required, even where nothing is emitted.
//
// A worker takes up to drainChunk ids at a time from a source with
// PopChunk and publishes its wakeups once per chunk, always before it
// polls again: a worker that finds src empty therefore holds no private
// work or wakeups, and "every worker idle and src empty" still means
// nobody can push. Every exit path leaves the worker's idle contribution
// counted (the normal exit keeps the increment it just made; error and
// cancellation exits add one on the way out), so the others always reach
// the threshold no matter why a peer left — also when it left holding an
// unfinished chunk, which an error or cancellation abandons.
func Drain(ctx context.Context, src Source, sink Sink, workers int,
	start func(tid int, out *Emits) (step func(v uint32, prio uint64) error, stop func())) (uint64, error) {
	done := ctx.Done() // nil when ctx can never be cancelled
	chunked, _ := src.(interface{ PopChunk([]uint32) int })
	prioritised, _ := src.(interface{ PopPrio() (uint32, uint64, bool) })
	var (
		firstErr  atomic.Value
		idle      atomic.Int64
		committed atomic.Uint64
		wg        sync.WaitGroup
	)
	fail := func(err error) {
		firstErr.CompareAndSwap(nil, err)
		idle.Add(1)
	}
	work := func(tid int) {
		defer wg.Done()
		var out Emits
		step, stop := start(tid, &out)
		defer stop()
		var buf [drainChunk]uint32
		var n uint64
		defer func() { committed.Add(n) }()
		idleSpins := 0
		for {
			if firstErr.Load() != nil {
				idle.Add(1)
				return
			}
			select {
			case <-done:
				fail(ctx.Err())
				return
			default:
			}
			got, prio := 0, uint64(0)
			if chunked != nil {
				got = chunked.PopChunk(buf[:])
			} else if prioritised != nil {
				if v, p, ok := prioritised.PopPrio(); ok {
					buf[0], prio, got = v, p, 1
				}
			} else if v, ok := src.Pop(); ok {
				buf[0], got = v, 1
			}
			if got == 0 {
				// Leave only when every worker is idle and the queue is
				// empty — then nobody can still push.
				if int(idle.Add(1)) >= workers && src.Len() == 0 {
					return
				}
				if idleSpins++; idleSpins > 64 {
					time.Sleep(50 * time.Microsecond)
				} else {
					runtime.Gosched()
				}
				idle.Add(-1)
				continue
			}
			idleSpins = 0
			for i, v := range buf[:got] {
				// A step notices cancellation itself; a peer's error is
				// looked for between the ids of a chunk.
				if i > 0 && firstErr.Load() != nil {
					idle.Add(1)
					return
				}
				out.mark = len(out.items)
				if err := step(v, prio); err != nil {
					fail(err)
					return
				}
				n++
			}
			out.publish(sink)
		}
	}
	wg.Add(workers)
	for tid := 0; tid < workers; tid++ {
		go work(tid)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return committed.Load(), err
	}
	if e := firstErr.Load(); e != nil {
		return committed.Load(), e.(error)
	}
	return committed.Load(), nil
}
