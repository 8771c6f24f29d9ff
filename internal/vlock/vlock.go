// Package vlock implements the per-vertex reader-writer lock table shared
// by all three TuFast modes (paper §IV-E). The lock word is designed for
// cheap HTM "subscription": exclusive transitions bump a version stamp so
// an H-mode transaction can record Stamp(v) when it first touches v and
// later verify the stamp is unchanged — shared-count churn does not
// invalidate the stamp, so concurrent readers never abort each other.
package vlock

import (
	"fmt"
	"sync/atomic"
)

// Lock word layout (64 bits):
//
//	63............48 47.............16 15..............0
//	owner (tid+1)    version stamp     shared count
//
// owner != 0  => exclusively held by thread owner-1.
// version     => incremented on every exclusive acquire and release.
// shared count=> number of shared holders.
const (
	sharedMask = uint64(0xFFFF)
	verShift   = 16
	verMask    = uint64(0xFFFFFFFF) << verShift
	ownerShift = 48
	ownerMask  = uint64(0xFFFF) << ownerShift
	stampMask  = ownerMask | verMask
	maxShared  = 0xFFFF
	verIncr    = uint64(1) << verShift
)

// NoThread is the owner field value meaning "unowned".
const NoThread = 0

// Table is a fixed-size array of vertex locks. Thread ids must be in
// [0, 65534].
type Table struct {
	words []atomic.Uint64
}

// NewTable creates a lock table covering n vertices.
func NewTable(n int) *Table {
	if n <= 0 {
		panic(fmt.Sprintf("vlock: non-positive table size %d", n))
	}
	return &Table{words: make([]atomic.Uint64, n)}
}

// Len returns the number of vertices covered.
func (t *Table) Len() int { return len(t.words) }

// Stamp returns the subscription stamp of v's lock: the owner and version
// fields. An H-mode transaction that read v aborts if the stamp changes,
// i.e. if any exclusive acquisition or release happened since.
func (t *Table) Stamp(v uint32) uint64 {
	return t.words[v].Load() & stampMask
}

// StampFree reports whether stamp s describes an exclusively-unlocked
// vertex.
func StampFree(s uint64) bool { return s&ownerMask == 0 }

// ExclusiveOwner returns the thread currently holding v exclusively and
// true, or 0 and false if v is not exclusively held.
func (t *Table) ExclusiveOwner(v uint32) (int, bool) {
	w := t.words[v].Load()
	o := w >> ownerShift
	if o == 0 {
		return 0, false
	}
	return int(o - 1), true
}

// SharedCount returns the number of shared holders of v.
func (t *Table) SharedCount(v uint32) int {
	return int(t.words[v].Load() & sharedMask)
}

// TryShared attempts a non-blocking shared acquisition of v.
func (t *Table) TryShared(v uint32) bool {
	for {
		w := t.words[v].Load()
		if w&ownerMask != 0 {
			return false
		}
		if w&sharedMask == maxShared {
			return false // saturated; treat as contention
		}
		if t.words[v].CompareAndSwap(w, w+1) {
			return true
		}
	}
}

// ReleaseShared releases one shared hold of v.
func (t *Table) ReleaseShared(v uint32) {
	for {
		w := t.words[v].Load()
		if w&sharedMask == 0 {
			panic(fmt.Sprintf("vlock: shared underflow on vertex %d", v))
		}
		if t.words[v].CompareAndSwap(w, w-1) {
			return
		}
	}
}

// TryExclusive attempts a non-blocking exclusive acquisition of v by
// thread tid. It bumps the version stamp, invalidating subscriptions.
func (t *Table) TryExclusive(v uint32, tid int) bool {
	for {
		w := t.words[v].Load()
		if w&ownerMask != 0 || w&sharedMask != 0 {
			return false
		}
		nw := (w + verIncr) & ^ownerMask & ^sharedMask
		nw |= uint64(tid+1) << ownerShift
		if t.words[v].CompareAndSwap(w, nw) {
			return true
		}
	}
}

// ReleaseExclusive releases v, which must be exclusively held by tid.
// The version stamp bumps again so subscriptions taken during the hold
// cannot validate.
func (t *Table) ReleaseExclusive(v uint32, tid int) {
	for {
		w := t.words[v].Load()
		if w>>ownerShift != uint64(tid+1) {
			panic(fmt.Sprintf("vlock: thread %d releasing vertex %d owned by %d", tid, v, int(w>>ownerShift)-1))
		}
		nw := (w + verIncr) & verMask // clear owner, keep bumped version
		if t.words[v].CompareAndSwap(w, nw) {
			return
		}
	}
}

// UpgradeToExclusive attempts to convert one shared hold by tid into an
// exclusive hold. It succeeds only if tid's hold is the sole shared hold.
func (t *Table) UpgradeToExclusive(v uint32, tid int) bool {
	for {
		w := t.words[v].Load()
		if w&ownerMask != 0 || w&sharedMask != 1 {
			return false
		}
		nw := (w + verIncr) & ^sharedMask
		nw |= uint64(tid+1) << ownerShift
		if t.words[v].CompareAndSwap(w, nw) {
			return true
		}
	}
}

// StampAfterExclusive computes the stamp the lock word of a vertex will
// carry immediately after thread tid acquires it exclusively, given the
// stamp pre observed before the acquisition. TuFast's H mode uses it to
// keep a read subscription valid across its own lock acquisition.
func StampAfterExclusive(pre uint64, tid int) uint64 {
	return ((pre + verIncr) & verMask) | uint64(tid+1)<<ownerShift
}
