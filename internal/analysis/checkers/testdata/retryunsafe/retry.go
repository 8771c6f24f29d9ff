// Golden corpus for the retryunsafe analyzer: non-idempotent operations
// in a retryable transaction body.
package retry

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"tufast"
)

func sideWork(v uint32) { _ = v }

func bad() {
	g := tufast.GenerateUniform(16, 2, 1)
	sys := tufast.NewSystem(g, tufast.Options{})
	arr := sys.NewVertexArray(0)
	var count atomic.Uint64
	var mu sync.Mutex
	var seen []uint32
	total := 0
	ch := make(chan uint32, 16)
	pq := sys.NewPQ()
	_ = sys.ForEachVertex(func(tx tufast.Tx, v uint32) error {
		count.Add(1)            // want "atomic Add inside a transaction"
		mu.Lock()               // want "Mutex.Lock inside a transaction"
		seen = append(seen, v)  // want "append to captured variable"
		mu.Unlock()             // want "Mutex.Unlock inside a transaction"
		total++                 // want "assignment to captured variable"
		total = total + 1       // want "assignment to captured variable"
		ch <- v                 // want "channel send inside a transaction"
		go sideWork(v)          // want "goroutine launched inside a transaction"
		fmt.Println(time.Now()) // want "fmt.Println inside a transaction" "time.Now inside a transaction"
		pq.Push(v, 1)           // want "PQ.Push inside a transaction publishes the wakeup before the commit"
		tx.Write(v, arr.Addr(v), 1)
		return nil
	})
	close(ch)
	_ = total
}

func good() {
	g := tufast.GenerateUniform(16, 2, 1)
	sys := tufast.NewSystem(g, tufast.Options{})
	arr := sys.NewVertexArray(0)
	q := sys.NewQueue()
	q.Push(0)
	var scratch []uint32
	_ = sys.ForEachQueued(q, func(tx tufast.Tx, v uint32, emit func(uint32, uint64)) error {
		scratch = scratch[:0] // nowant: idempotent buffer reset (the emit pattern)
		local := 0
		buf := make([]uint32, 0, 4)
		for _, u := range g.Neighbors(v) {
			local++              // nowant: transaction-local counter
			buf = append(buf, u) // nowant: transaction-local slice
			if tx.Read(u, arr.Addr(u)) == 0 {
				tx.Write(u, arr.Addr(u), 1)
				q.Push(u)  // want "Queue.Push inside a transaction publishes the wakeup before the commit"
				emit(u, 0) // nowant: the wakeup is published after the commit
			}
		}
		msg := fmt.Sprintf("%d/%d", local, len(buf)) // nowant: Sprintf is pure
		_ = msg
		d := 2 * time.Second // nowant: duration arithmetic reads no clock
		_ = d
		return nil
	})
}
