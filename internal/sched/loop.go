package sched

import (
	"context"
	"sync"

	"tufast/internal/obs"
)

// Protocol is one worker's attempt protocol: the Tx a transaction body
// runs against, opened by Begin and closed by Commit or Rollback — the
// read, write and tryCommit of Ravi's common retry model (PAPERS.md). The
// loop it runs under decides everything else, on its answer to each
// aborted attempt.
type Protocol interface {
	Tx
	// Begin opens the transaction's attempt n (0 for the first its loop
	// runs) and reports whether it may run; false aborts it unrun.
	Begin(n int) bool
	// Commit tries to install an attempt whose body returned nil; false
	// aborts it.
	Commit() bool
	// Rollback discards an attempt that did not commit, whatever ended
	// it, a failed commit included.
	Rollback()
	// Ops reports the committed attempt's read and write operations.
	Ops() (reads, writes uint64)
	// Aborted attributes aborted attempt n and says what comes next.
	Aborted(n int) (obs.Reason, Next)
}

// Next is a protocol's answer to an aborted attempt. Every baseline
// answers RetryWait.
type Next uint8

const (
	RetryWait Next = iota // retry after a backoff wait
	RetryNow              // retry at once: a wait cannot change the outcome
	GiveUp                // end the rung: the transaction moves on to its next
)

// starveLimit is the consecutive-abort count after which an attempt of a
// scheduler with a starvation drain runs alone.
const starveLimit = 64

// Loop is the one retry loop every scheduler runs its protocol under: it
// alone retries, drains, cancels, backs off and records each outcome,
// once, to its probe. TPL's and the baselines' workers embed it, which
// gives them Run and RunCtx; TuFast's core runs its three rungs under it.
type Loop struct {
	p     Protocol
	probe *obs.Probe
	mode  obs.Mode

	// drain is the starvation escape hatch, nil where the protocol needs
	// none: under extreme contention 2PL's upgrade waits, which are given
	// up after 16 tries, can abort the same transaction indefinitely, and
	// timestamp ordering aborts a large writer whose footprint newer
	// transactions keep touching. After starveLimit consecutive aborts an
	// attempt takes the drain exclusively and runs alone.
	drain *sync.RWMutex

	bo Backoff

	// ctx is the cancellation context of the running transaction (nil
	// when it cannot be cancelled); 2PL's lock waits poll it too.
	ctx context.Context
}

// NewLoop returns a loop whose Run and RunCtx run p's attempts under
// mode (p is nil on a loop only Rung runs on), recorded to probe, taking
// drain (nil for none) once an attempt starves.
func NewLoop(p Protocol, probe *obs.Probe, mode obs.Mode, drain *sync.RWMutex, seed uint64) Loop {
	return Loop{p: p, probe: probe, mode: mode, drain: drain, bo: NewBackoff(seed)}
}

// Run implements Worker. The size hint is ignored: every protocol here
// handles any size.
func (l *Loop) Run(_ int, fn TxFunc) error { return l.RunCtx(nil, 0, fn) }

// RunCtx implements Worker: Run, but returning ctx.Err() promptly
// (with the attempt rolled back) once ctx is cancelled — between retries,
// and from inside 2PL's lock waits.
func (l *Loop) RunCtx(ctx context.Context, _ int, fn TxFunc) error {
	if ctx != nil && ctx.Done() == nil {
		ctx = nil
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	// Every transaction starts at the minimum backoff, however the
	// previous one ended.
	l.bo.Reset()
	var retries uint32
	_, err := l.Rung(ctx, l.p, l.mode, l.probe.TxBegin(), &retries, fn)
	return err
}

// Backoff is the loop's backoff state.
func (l *Loop) Backoff() *Backoff { return &l.bo }

// Rung runs fn's attempts under p, as a rung of a transaction begun
// elsewhere: sp is its latency span, *retries the attempts it has aborted
// (each abort here adds one), ctx (nil for none) cancels it, and the
// backoff level carries over from the rung before. It runs until an
// attempt commits, fn returns an error or panics, or ctx is cancelled —
// done, with that error — or until p gives up: not done. Outcomes are
// recorded under mode, and a commit after an abort in this rung under
// mode.Retried().
func (l *Loop) Rung(ctx context.Context, p Protocol, mode obs.Mode, sp obs.Span, retries *uint32, fn TxFunc) (done bool, err error) {
	l.ctx = ctx
	defer func() { l.ctx = nil }()
	for n := 0; ; n++ {
		err, ok := l.attempt(p, fn, n)
		if ok && err == nil {
			class := mode
			if n > 0 {
				class = mode.Retried()
			}
			reads, writes := p.Ops()
			l.probe.TxCommit(class, *retries, sp, reads, writes)
			return true, nil
		}
		if !ok {
			reason, next := p.Aborted(n)
			l.probe.TxAbort(mode, reason)
			*retries++
			if next == GiveUp {
				return false, nil
			}
			if err = l.ctxErr(); err == nil {
				if next == RetryWait {
					l.bo.WaitObserved(l.probe)
				}
				continue
			}
		}
		// A user error, a panic or a cancellation: never retried.
		l.probe.TxStop(mode, StopReason(err))
		return true, err
	}
}

// attempt runs attempt n of fn under p and reports how it ended as
// runAttempt does, a failed commit counting as an internal abort. The
// drain is released by defer so that a panic escaping the commit window
// (fault injection, internal bugs) cannot wedge every other worker;
// whatever else such a panic leaves behind is the worker's
// AbandonInFlight's.
func (l *Loop) attempt(p Protocol, fn TxFunc, n int) (err error, done bool) {
	if l.drain != nil {
		if n >= starveLimit {
			l.drain.Lock()
			defer l.drain.Unlock()
		} else {
			l.drain.RLock()
			defer l.drain.RUnlock()
		}
	}
	if !p.Begin(n) {
		return nil, false
	}
	if err, done = runAttempt(p, fn); done && err == nil && p.Commit() {
		return nil, true
	}
	p.Rollback()
	return err, done && err != nil
}

// ctxErr is the running transaction's cancellation, if any.
func (l *Loop) ctxErr() error {
	if l.ctx == nil {
		return nil
	}
	return l.ctx.Err()
}
