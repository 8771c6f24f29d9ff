// Golden corpus for the epochcapture analyzer: epoch values must be
// captured inside the critical section that bumped them. Re-reading
// Epoch() after ApplyStream, or after the mutation-bracket lock was dropped,
// observes concurrent batches.
package epochcapture

import (
	"sync"

	"tufast"
)

type serv struct {
	mutMu sync.RWMutex
	dyn   *tufast.DynGraph
}

// stale re-reads the graph epoch after the batch: a concurrent writer
// may have bumped it again, so the response misattributes the batch.
func (s *serv) stale(ops []tufast.StreamOp) uint64 {
	stats, _ := s.dyn.ApplyStream(ops, tufast.StreamOptions{})
	_ = stats
	return s.dyn.Epoch() // want "read after ApplyStream"
}

// staleOwned is stale through an owned batch.
func (s *serv) staleOwned(ops []tufast.StreamOp) uint64 {
	stats, _ := s.dyn.ApplyOwned(ops)
	_ = stats
	return s.dyn.Epoch() // want "read after ApplyStream/ApplyOwned"
}

// captured uses the epoch the batch's own bump produced.
func (s *serv) captured(ops []tufast.StreamOp) uint64 {
	stats, _ := s.dyn.ApplyStream(ops, tufast.StreamOptions{})
	return stats.Epoch // nowant: the batch's own bump
}

// drifted reads the epoch after releasing the mutation-bracket lock: the value
// belongs to nobody's critical section.
func (s *serv) drifted() uint64 {
	s.mutMu.RLock()
	n := s.dyn.NumVertices()
	s.mutMu.RUnlock()
	_ = n
	return s.dyn.Epoch() // want "outside the critical section"
}

// underLock reads under the lock that bounds the epoch.
func (s *serv) underLock() uint64 {
	s.mutMu.RLock()
	defer s.mutMu.RUnlock()
	return s.dyn.Epoch() // nowant
}

// reacquired re-enters the critical section before reading.
func (s *serv) reacquired() uint64 {
	s.mutMu.Lock()
	s.mutMu.Unlock()
	s.mutMu.RLock()
	defer s.mutMu.RUnlock()
	return s.dyn.Epoch() // nowant: a mutation-bracket lock covers the read
}

// probe is the reviewed optimistic-cache pattern: read lock-free, then
// revalidate under the lock before trusting the entry.
func (s *serv) probe() uint64 {
	s.mutMu.RLock()
	s.mutMu.RUnlock()
	return s.dyn.Epoch() //tufast:ignore epochcapture optimistic cache probe, revalidated under mutMu
}

// mixed tags results read through a pinned view with a fresh graph
// epoch: batches that committed after the pin are misattributed.
func (s *serv) mixed() (int, uint64) {
	v := s.dyn.View()
	defer v.Close()
	deg := v.Degree(0)
	return deg, s.dyn.Epoch() // want "read after pinning a view"
}

// pinned uses the view's own epoch — the only value consistent with
// what the view reads.
func (s *serv) pinned() (int, uint64) {
	v := s.dyn.ViewAt(s.dyn.Epoch()) // nowant: the pin's input, read before pinning
	defer v.Close()
	return v.Degree(0), v.Epoch() // nowant: the view's pinned epoch
}

// counter exercises the unexported-field form of the same rule.
type counter struct {
	mutMu sync.Mutex
	epoch uint64
}

func (c *counter) bump() uint64 {
	c.mutMu.Lock()
	c.epoch++ // nowant: bumped under the lock
	c.mutMu.Unlock()
	return c.epoch // want "epoch field read outside the critical section"
}
