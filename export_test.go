package tufast

// MinOwnerOps is minOwnerOps, for tests that size batches above it.
const MinOwnerOps = minOwnerOps

// ApplyOwnedOn is ApplyOwned on the given number of owners, for the
// benchmark that sets applying inline beside fanning out.
func (d *DynGraph) ApplyOwnedOn(ops []StreamOp, owners int) (StreamStats, error) {
	return d.applyOwned(ops, owners)
}
