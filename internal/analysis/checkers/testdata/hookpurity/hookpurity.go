// Golden corpus for the hookpurity analyzer: OnEdge/Emit stream hooks
// run inside ApplyStream's critical section and must not block —
// no mutation-bracket locks, no bare channel operations, no reentrant
// stream application — in the hook body or one same-package call away.
package hookpurity

import (
	"context"
	"sync"

	"tufast"
)

type eng struct {
	mutMu sync.RWMutex
	out   chan uint32
	dyn   *tufast.DynGraph
}

// OnEdge is recognized by name and signature; both operations block.
func (e *eng) OnEdge(tx tufast.Tx, op tufast.StreamOp, changed bool, emit func(u uint32)) error {
	e.mutMu.RLock() // want "mutation-bracket lock"
	e.mutMu.RUnlock()
	e.out <- 1 // want "block on a channel send"
	return nil
}

// Emit drops on the floor when the consumer lags: the default arm makes
// the send non-blocking.
func (e *eng) Emit(u uint32) {
	select {
	case e.out <- u: // nowant: default arm below
	default:
	}
}

// helper blocks; hooks reaching it one call deep are flagged at the
// call site.
func (e *eng) helper() {
	<-e.out
}

func (e *eng) opts(ctx context.Context) tufast.StreamOptions {
	return tufast.StreamOptions{
		OnEdge: func(tx tufast.Tx, op tufast.StreamOp, changed bool, emit func(u uint32)) error {
			_, _ = e.dyn.ApplyStream(nil, tufast.StreamOptions{}) // want "reentrant"
			_, _ = e.dyn.ApplyOwned(nil)                          // want "reentrant"
			e.helper()                                            // want "hook calls helper"
			return nil
		},
		Emit: func(u uint32) {
			select {
			case e.out <- u: // nowant: ctx arm is an escape
			case <-ctx.Done():
			}
		},
	}
}

// overlay stands in for a type that, like DynGraph, serializes its
// batches on a batchMu: ApplyStream holds it while hooks run, so a hook
// that takes it waits for its own batch to end.
type overlay struct {
	batchMu sync.Mutex
	pending []uint32
}

func (o *overlay) Emit(u uint32) {
	o.batchMu.Lock() // want "acquires o.batchMu: the mutation-bracket lock"
	o.pending = append(o.pending, u)
	o.batchMu.Unlock()
}

// quiet documents a reviewed exception: the channel is buffered and
// sized for the worst-case batch, so the send cannot block.
type quiet struct{ out chan uint32 }

func (q *quiet) onEdge(tx tufast.Tx, op tufast.StreamOp, changed bool, emit func(u uint32)) error {
	q.out <- 0 //tufast:ignore hookpurity buffered channel sized to the batch
	return nil
}

// notAHook shares a name fragment but not the signature: free to block.
func (e *eng) emitAll(vs []uint32) {
	for _, v := range vs {
		e.out <- v // nowant: not a hook signature
	}
}
