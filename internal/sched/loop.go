package sched

import (
	"context"
	"sync"

	"tufast/internal/obs"
)

// protocol is one worker's attempt protocol: the Tx a transaction body
// runs against, opened by begin and closed by commit or rollback — the
// read, write and tryCommit of Ravi's common retry model (PAPERS.md). The
// loop it runs under decides everything else.
type protocol interface {
	Tx
	// begin opens the transaction's attempt n (0 for the first its loop
	// runs) and reports whether it may run; false aborts it unrun.
	begin(n int) bool
	// commit tries to install an attempt whose body returned nil; false
	// aborts it.
	commit() bool
	// rollback discards an attempt that did not commit, whatever ended
	// it, a failed commit included.
	rollback()
	// ops reports the committed attempt's read and write operations.
	ops() (reads, writes uint64)
	// reason attributes an aborted attempt.
	reason() obs.Reason
}

// starveLimit is the consecutive-abort count after which an attempt of a
// scheduler with a starvation drain runs alone.
const starveLimit = 64

// loop is the one retry loop every scheduler in this package runs its
// protocol under: it alone retries, drains, cancels, backs off and
// records each outcome, once, to its probe. Workers embed it, which gives
// them Run and RunCtx.
type loop struct {
	p     protocol
	probe *obs.Probe
	mode  obs.Mode

	// drain is the starvation escape hatch, nil where the protocol needs
	// none: under extreme contention 2PL's upgrade waits, which are given
	// up after 16 tries, can abort the same transaction indefinitely, and
	// timestamp ordering
	// aborts a large writer whose footprint newer transactions keep
	// touching. After starveLimit consecutive aborts an attempt takes the
	// drain exclusively and runs alone.
	drain *sync.RWMutex

	bo Backoff

	// ctx is the cancellation context of the running transaction (nil
	// when it cannot be cancelled); 2PL's lock waits poll it too.
	ctx context.Context
}

func newLoop(p protocol, probe *obs.Probe, mode obs.Mode, drain *sync.RWMutex, seed uint64) loop {
	return loop{p: p, probe: probe, mode: mode, drain: drain, bo: NewBackoff(seed)}
}

// Run implements Worker. The size hint is ignored: every protocol here
// handles any size.
func (l *loop) Run(_ int, fn TxFunc) error {
	return l.Continue(nil, l.mode, l.probe.TxBegin(), 0, fn)
}

// RunCtx implements CtxWorker: Run, but returning ctx.Err() promptly
// (with the attempt rolled back) once ctx is cancelled — between retries,
// and from inside 2PL's lock waits.
func (l *loop) RunCtx(ctx context.Context, _ int, fn TxFunc) error {
	if ctx != nil && ctx.Done() == nil {
		ctx = nil
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	return l.Continue(ctx, l.mode, l.probe.TxBegin(), 0, fn)
}

// Continue runs fn to its end as a transaction begun elsewhere: sp is its
// latency span, retries the attempts it has already aborted, ctx (nil for
// none) cancels it, and its outcomes are recorded under mode. TuFast's
// core runs L mode this way, after the transaction's H and O attempts.
func (l *loop) Continue(ctx context.Context, mode obs.Mode, sp obs.Span, retries uint32, fn TxFunc) error {
	l.ctx = ctx
	err := l.run(mode, sp, retries, fn)
	l.ctx = nil
	return err
}

func (l *loop) run(mode obs.Mode, sp obs.Span, retries uint32, fn TxFunc) error {
	// Every transaction starts at the minimum backoff, however the
	// previous one ended.
	l.bo.Reset()
	for n := 0; ; n++ {
		err, done := l.attempt(fn, n)
		if done && err == nil {
			reads, writes := l.p.ops()
			l.probe.TxCommit(mode, retries, sp, reads, writes)
			return nil
		}
		if !done {
			l.probe.TxAbort(mode, l.p.reason())
			retries++
			if err = l.ctxErr(); err == nil {
				l.bo.WaitObserved(l.probe)
				continue
			}
		}
		// A user error, a panic or a cancellation: never retried.
		l.probe.TxStop(mode, StopReason(err))
		return err
	}
}

// attempt runs attempt n of fn and reports how it ended as RunAttempt
// does, a failed commit counting as an internal abort. The drain is
// released by defer so that a panic escaping the commit window (fault
// injection, internal bugs) cannot wedge every other worker; whatever
// else such a panic leaves behind is the worker's AbandonInFlight's.
func (l *loop) attempt(fn TxFunc, n int) (err error, done bool) {
	if l.drain != nil {
		if n >= starveLimit {
			l.drain.Lock()
			defer l.drain.Unlock()
		} else {
			l.drain.RLock()
			defer l.drain.RUnlock()
		}
	}
	if !l.p.begin(n) {
		return nil, false
	}
	if err, done = RunAttempt(l.p, fn); done && err == nil && l.p.commit() {
		return nil, true
	}
	l.p.rollback()
	return err, done && err != nil
}

// ctxErr is the running transaction's cancellation, if any.
func (l *loop) ctxErr() error {
	if l.ctx == nil {
		return nil
	}
	return l.ctx.Err()
}
