package sched

import (
	"context"
	"errors"

	"tufast/internal/obs"
)

// Instrumented carries the shared observability metrics every scheduler
// embeds. The zero value is ready, so constructors need no change; the
// hot-path cost is the few atomic adds obs documents, a commit's into a
// block only the recording worker writes.
type Instrumented struct {
	obsm obs.Metrics
}

// Metrics implements Scheduler.
func (i *Instrumented) Metrics() *obs.Metrics { return &i.obsm }

// StopReason classifies a terminal non-commit error for attribution:
// panics, cancellations, and plain user errors.
func StopReason(err error) obs.Reason {
	if _, isPanic := AsPanicError(err); isPanic {
		return obs.ReasonPanic
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return obs.ReasonCancel
	}
	return obs.ReasonUser
}
