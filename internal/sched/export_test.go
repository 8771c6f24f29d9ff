package sched

// AbortReason returns the reason an internal abort's panic payload
// carries, and false for any other payload.
func AbortReason(r any) (string, bool) {
	sig, ok := r.(abortSig)
	return sig.reason, ok
}
