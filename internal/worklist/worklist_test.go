package worklist

import (
	"container/heap"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

func TestRangeCoversAll(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 1000} {
		seen := make([]bool, n)
		var mu sync.Mutex
		Range(n, 4, 16, func(_, lo, hi int) {
			mu.Lock()
			for i := lo; i < hi; i++ {
				if seen[i] {
					t.Errorf("n=%d index %d visited twice", n, i)
				}
				seen[i] = true
			}
			mu.Unlock()
		})
		for i, s := range seen {
			if !s {
				t.Fatalf("n=%d index %d never visited", n, i)
			}
		}
	}
}

func TestRangeSingleWorkerInline(t *testing.T) {
	calls := 0
	Range(10, 1, 4, func(tid, lo, hi int) {
		calls++
		if tid != 0 || lo != 0 || hi != 10 {
			t.Fatalf("single-worker range got (%d,%d,%d)", tid, lo, hi)
		}
	})
	if calls != 1 {
		t.Fatalf("calls=%d", calls)
	}
}

func TestQueueFIFOWithinShard(t *testing.T) {
	q := NewQueue(1)
	for i := uint32(0); i < 10; i++ {
		q.Push(i * 1) // single shard: strict FIFO
	}
	for i := uint32(0); i < 10; i++ {
		v, ok := q.Pop()
		if !ok || v != i {
			t.Fatalf("pop %d: got %d ok=%v", i, v, ok)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("pop from empty succeeded")
	}
}

func TestQueueConcurrentDrain(t *testing.T) {
	q := NewQueue(4)
	const items = 5000
	for i := 0; i < items; i++ {
		q.Push(uint32(i))
	}
	var got sync.Map
	var wg sync.WaitGroup
	var count sync.WaitGroup
	count.Add(items)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				v, ok := q.Pop()
				if !ok {
					return
				}
				if _, dup := got.LoadOrStore(v, true); dup {
					t.Errorf("duplicate pop %d", v)
				}
				count.Done()
			}
		}()
	}
	wg.Wait()
	count.Wait() // all items popped exactly once
	if q.Len() != 0 {
		t.Fatalf("len=%d after drain", q.Len())
	}
}

func TestPQOrdersWithinShard(t *testing.T) {
	q := NewPQ(1)
	prios := []uint64{5, 1, 9, 3, 7}
	for i, p := range prios {
		q.Push(uint32(i), p)
	}
	var got []uint64
	for {
		_, p, ok := q.Pop()
		if !ok {
			break
		}
		got = append(got, p)
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatalf("pops not ordered: %v", got)
	}
}

func TestPQPropertyMinFirstSingleShard(t *testing.T) {
	f := func(prios []uint16) bool {
		q := NewPQ(1)
		for i, p := range prios {
			q.Push(uint32(i), uint64(p))
		}
		last := uint64(0)
		for {
			_, p, ok := q.Pop()
			if !ok {
				return true
			}
			if p < last {
				return false
			}
			last = p
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// refHeap is container/heap's interface over the same items, the order
// the typed heap must reproduce pop for pop (ties included), so a drain
// over a PQ visits vertices as it did on container/heap.
type refHeap []pqItem

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i].prio < h[j].prio }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(pqItem)) }
func (h *refHeap) Pop() any          { old := *h; n := len(old); it := old[n-1]; *h = old[:n-1]; return it }

func TestPQHeapMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h pqHeap
	var ref refHeap
	for i := 0; i < 20000; i++ {
		if len(h) == 0 || rng.Intn(3) > 0 {
			it := pqItem{v: uint32(i), prio: uint64(rng.Intn(64))} // many ties
			h.push(it)
			heap.Push(&ref, it)
			continue
		}
		if got, want := h.pop(), heap.Pop(&ref).(pqItem); got != want {
			t.Fatalf("pop %d: got %+v, container/heap pops %+v", i, got, want)
		}
	}
	for len(h) > 0 {
		if got, want := h.pop(), heap.Pop(&ref).(pqItem); got != want {
			t.Fatalf("drain: got %+v, container/heap pops %+v", got, want)
		}
	}
}

// TestPQPushPopAllocatesNothing: once a shard's heap has grown, a push
// and a pop allocate nothing (container/heap boxed each item in an any,
// two allocations a pair).
func TestPQPushPopAllocatesNothing(t *testing.T) {
	q := NewPQ(2)
	for i := 0; i < 64; i++ {
		q.Push(uint32(i), uint64(64-i))
	}
	i := uint32(0)
	if a := testing.AllocsPerRun(1000, func() {
		q.Push(i, uint64(i%17))
		q.Pop()
		i++
	}); a != 0 {
		t.Fatalf("push+pop allocates %.1f times, want 0", a)
	}
}

func TestBitset(t *testing.T) {
	b := NewBitset(200)
	if !b.TestAndSet(63) || b.TestAndSet(63) {
		t.Fatal("TestAndSet semantics broken")
	}
	if !b.Test(63) || b.Test(64) {
		t.Fatal("Test wrong")
	}
	b.TestAndSet(64)
	b.TestAndSet(199)
	if b.Count() != 3 {
		t.Fatalf("count=%d", b.Count())
	}
	b.Clear(64)
	if b.Test(64) || b.Count() != 2 {
		t.Fatal("Clear wrong")
	}
	b.Reset()
	if b.Count() != 0 {
		t.Fatal("Reset wrong")
	}
}

func TestBitsetConcurrentTestAndSet(t *testing.T) {
	b := NewBitset(64)
	var wins sync.Map
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for v := uint32(0); v < 64; v++ {
				if b.TestAndSet(v) {
					if _, dup := wins.LoadOrStore(v, g); dup {
						t.Errorf("bit %d won twice", v)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if b.Count() != 64 {
		t.Fatalf("count=%d", b.Count())
	}
}
