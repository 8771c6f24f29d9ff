// Package worklist provides the parallel iteration drivers shared by all
// engines: a dynamic range splitter (the paper's parallel_for), a
// concurrent FIFO and a sharded priority queue (the Bellman-Ford / SPFA
// pair of Figure 3 differs only in which of the two it polls), the queued
// driver that drains either (Drain), and an atomic frontier bitset.
package worklist

import (
	"context"
	"sync"
	"sync/atomic"
)

// Range runs fn(tid, lo, hi) over chunks of [0, n) on `workers`
// goroutines, handing out chunks of `grain` items dynamically so skewed
// chunk costs (power-law vertices!) still balance.
func Range(n, workers, grain int, fn func(tid, lo, hi int)) {
	RangeCtx(context.Background(), n, workers, grain, fn)
}

// RangeCtx is Range with cancellation: ctx is checked at every chunk
// boundary, and once it is cancelled no further chunk is claimed (chunks
// already running finish — fn is never interrupted mid-call). Returns
// ctx.Err() when the sweep was cut short, nil when it covered all of
// [0, n).
func RangeCtx(ctx context.Context, n, workers, grain int, fn func(tid, lo, hi int)) error {
	if n <= 0 {
		return ctx.Err()
	}
	if grain <= 0 {
		grain = 64
	}
	cancellable := ctx.Done() != nil
	if workers <= 1 || n <= grain {
		if !cancellable {
			fn(0, 0, n)
			return nil
		}
		// Single-worker path still honours chunk-boundary cancellation.
		for lo := 0; lo < n; lo += grain {
			if err := ctx.Err(); err != nil {
				return err
			}
			hi := lo + grain
			if hi > n {
				hi = n
			}
			fn(0, lo, hi)
		}
		return nil
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for tid := 0; tid < workers; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for {
				if cancellable && ctx.Err() != nil {
					return
				}
				lo := int(cursor.Add(int64(grain))) - grain
				if lo >= n {
					return
				}
				hi := lo + grain
				if hi > n {
					hi = n
				}
				fn(tid, lo, hi)
			}
		}(tid)
	}
	wg.Wait()
	return ctx.Err()
}

// Queue is an unbounded MPMC FIFO of vertex ids, chunk-sharded to keep
// mutex contention low. Pop order is FIFO per shard and round-robin
// across shards — the "FIFO queue" flavour of Figure 3.
type Queue struct {
	shards []queueShard
	next   atomic.Uint64 // pop rotation
	size   atomic.Int64
}

type queueShard struct {
	mu    sync.Mutex
	items []uint32
	head  int
}

// NewQueue creates a queue with the given shard count (use the worker
// count).
func NewQueue(shards int) *Queue {
	if shards < 1 {
		shards = 1
	}
	return &Queue{shards: make([]queueShard, shards)}
}

// Push appends v; the shard is chosen by v to keep locality.
func (q *Queue) Push(v uint32) {
	s := &q.shards[int(uint64(v)%uint64(len(q.shards)))]
	s.mu.Lock()
	s.items = append(s.items, v)
	s.mu.Unlock()
	q.size.Add(1)
}

// Pop removes one id, scanning shards round-robin; ok=false when the
// queue is observed empty.
func (q *Queue) Pop() (uint32, bool) {
	var one [1]uint32
	if q.PopChunk(one[:]) == 0 {
		return 0, false
	}
	return one[0], true
}

// PopChunk removes up to len(buf) ids from the first non-empty shard in
// the rotation into buf and returns how many: never more than half of
// what the shard holds (so a short queue is shared out between the
// workers polling it) and at least one; 0 when the queue is observed
// empty. Drain polls with it: one rotation step, one lock and one size
// update per chunk instead of per id.
func (q *Queue) PopChunk(buf []uint32) int {
	n := len(q.shards)
	// Reduce the rotation counter in uint64 space BEFORE converting: a
	// plain int(q.next.Add(1)) goes negative once the counter passes
	// MaxInt64, and a negative start makes (start+i)%n a negative index.
	start := int(q.next.Add(1) % uint64(n))
	for i := 0; i < n; i++ {
		s := &q.shards[(start+i)%n]
		s.mu.Lock()
		if avail := len(s.items) - s.head; avail > 0 {
			k := min(len(buf), max(avail/2, 1))
			copy(buf, s.items[s.head:s.head+k])
			s.head += k
			if s.head == len(s.items) {
				s.items = s.items[:0]
				s.head = 0
			}
			s.mu.Unlock()
			q.size.Add(int64(-k))
			return k
		}
		s.mu.Unlock()
	}
	return 0
}

// PushChunk appends every item's id to the shard Push would choose, in
// the order given, locking each shard once per block of items.
func (q *Queue) PushChunk(items []Item) {
	pushSharded(items, len(q.shards),
		func(shard int) *sync.Mutex { return &q.shards[shard].mu },
		func(shard int, it Item) { q.shards[shard].items = append(q.shards[shard].items, it.V) })
	q.size.Add(int64(len(items)))
}

// pushSharded hands every item to add under the lock of the shard its id
// selects (V modulo shards, as Push does), in item order within a shard.
// It works through items a block at a time: one modulo per item, then
// one lock acquisition per shard the block has items for.
func pushSharded(items []Item, shards int, lock func(shard int) *sync.Mutex, add func(shard int, it Item)) {
	var shardOf [256]uint16 // shard counts are thread counts, far below 1<<16
	for len(items) > 0 {
		block := items[:min(len(items), len(shardOf))]
		items = items[len(block):]
		for i, it := range block {
			shardOf[i] = uint16(uint64(it.V) % uint64(shards))
		}
		for s := 0; s < shards; s++ {
			var mu *sync.Mutex
			for i, it := range block {
				if int(shardOf[i]) != s {
					continue
				}
				if mu == nil {
					mu = lock(s)
					mu.Lock()
				}
				add(s, it)
			}
			if mu != nil {
				mu.Unlock()
			}
		}
	}
}

// Len returns the approximate current size.
func (q *Queue) Len() int { return int(q.size.Load()) }

// PQ is a sharded binary-heap priority queue of (vertex, priority): the
// "priority queue" flavour of Figure 3 (SPFA / delta-prioritized
// traversal). Pop returns an item whose priority is minimal within its
// shard — globally approximate, which preserves SPFA's behaviour (it is
// itself a heuristic ordering).
type PQ struct {
	shards []pqShard
	next   atomic.Uint64
	size   atomic.Int64
}

type pqShard struct {
	mu sync.Mutex
	h  pqHeap
}

type pqItem struct {
	v    uint32
	prio uint64
}

// pqHeap is a binary min-heap on prio. Its push and pop are
// container/heap's sift-up and sift-down on the concrete item type: the
// interface version boxes every item it moves in and out in an any.
type pqHeap []pqItem

// push inserts it.
func (h *pqHeap) push(it pqItem) {
	*h = append(*h, it)
	s := *h
	for j := len(s) - 1; j > 0; {
		i := (j - 1) / 2
		if s[j].prio >= s[i].prio {
			break
		}
		s[i], s[j] = s[j], s[i]
		j = i
	}
}

// pop removes and returns a minimal item; h must not be empty.
func (h *pqHeap) pop() pqItem {
	s := *h
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && s[j2].prio < s[j].prio {
			j = j2
		}
		if s[j].prio >= s[i].prio {
			break
		}
		s[i], s[j] = s[j], s[i]
		i = j
	}
	*h = s[:n]
	return s[n]
}

// NewPQ creates a priority queue with the given shard count.
func NewPQ(shards int) *PQ {
	if shards < 1 {
		shards = 1
	}
	return &PQ{shards: make([]pqShard, shards)}
}

// Push inserts v with the given priority.
func (q *PQ) Push(v uint32, prio uint64) {
	s := &q.shards[int(uint64(v)%uint64(len(q.shards)))]
	s.mu.Lock()
	s.h.push(pqItem{v: v, prio: prio})
	s.mu.Unlock()
	q.size.Add(1)
}

// PushChunk inserts every item, locking each shard once per block of
// items. There is no PopChunk: a priority source is polled one item at a
// time, since handing out its minimum is its point.
func (q *PQ) PushChunk(items []Item) {
	pushSharded(items, len(q.shards),
		func(shard int) *sync.Mutex { return &q.shards[shard].mu },
		func(shard int, it Item) { q.shards[shard].h.push(pqItem{v: it.V, prio: it.Prio}) })
	q.size.Add(int64(len(items)))
}

// Pop removes a minimal-priority item from some shard.
func (q *PQ) Pop() (uint32, uint64, bool) {
	n := len(q.shards)
	// See Queue.PopChunk: reduce modulo n in uint64 space to survive
	// counter wrap past MaxInt64.
	start := int(q.next.Add(1) % uint64(n))
	for i := 0; i < n; i++ {
		s := &q.shards[(start+i)%n]
		s.mu.Lock()
		if len(s.h) > 0 {
			it := s.h.pop()
			s.mu.Unlock()
			q.size.Add(-1)
			return it.v, it.prio, true
		}
		s.mu.Unlock()
	}
	return 0, 0, false
}

// Len returns the approximate current size.
func (q *PQ) Len() int { return int(q.size.Load()) }

// Bitset is an atomic bitmap over vertex ids, used for frontiers and
// "already queued" flags.
type Bitset struct {
	words []atomic.Uint64
	n     int
}

// NewBitset creates a bitset over n ids.
func NewBitset(n int) *Bitset {
	return &Bitset{words: make([]atomic.Uint64, (n+63)/64), n: n}
}

// Len returns the id capacity.
func (b *Bitset) Len() int { return b.n }

// TestAndSet sets bit v, reporting whether it was previously clear.
func (b *Bitset) TestAndSet(v uint32) bool {
	w, bit := v>>6, uint64(1)<<(v&63)
	for {
		old := b.words[w].Load()
		if old&bit != 0 {
			return false
		}
		if b.words[w].CompareAndSwap(old, old|bit) {
			return true
		}
	}
}

// Test reports bit v.
func (b *Bitset) Test(v uint32) bool {
	return b.words[v>>6].Load()&(uint64(1)<<(v&63)) != 0
}

// Clear clears bit v.
func (b *Bitset) Clear(v uint32) {
	w, bit := v>>6, uint64(1)<<(v&63)
	for {
		old := b.words[w].Load()
		if old&bit == 0 {
			return
		}
		if b.words[w].CompareAndSwap(old, old&^bit) {
			return
		}
	}
}

// Reset clears all bits.
func (b *Bitset) Reset() {
	for i := range b.words {
		b.words[i].Store(0)
	}
}

// Count returns the number of set bits.
func (b *Bitset) Count() int {
	c := 0
	for i := range b.words {
		c += popcount(b.words[i].Load())
	}
	return c
}

func popcount(x uint64) int {
	c := 0
	for x != 0 {
		x &= x - 1
		c++
	}
	return c
}
