package tufast

import "tufast/internal/core"

// Core exposes the internal scheduler: tests install fault injectors and
// inspect the lock table through it.
func (s *System) Core() *core.System { return s.core }

// MinOwnerOps is minOwnerOps, for tests that size batches above it.
const MinOwnerOps = minOwnerOps

// ApplyOwnedOn is ApplyOwned on the given number of owners, for the
// benchmark that sets applying inline beside fanning out.
func (d *DynGraph) ApplyOwnedOn(ops []StreamOp, owners int) (StreamStats, error) {
	return d.applyOwned(ops, owners)
}
