// Package htm emulates Intel Restricted Transactional Memory (TSX/RTM) in
// software. Go has no HTM intrinsics and TSX is disabled on modern
// hardware, so this package reproduces the behaviours TuFast's design
// depends on (see DESIGN.md §2):
//
//   - XBEGIN / XEND / XABORT semantics with TSX-style abort codes
//     (conflict, capacity, explicit);
//   - conflict detection at 64-byte cache-line granularity via the
//     seqlock version words of a mem.Space, with NOrec-style early
//     (mid-transaction) revalidation standing in for the eager aborts of
//     the hardware cache-coherence protocol;
//   - an L1 capacity model: 64 sets x 8 ways of 64-byte lines (32 KB).
//     The 9th distinct line mapped to a set aborts the transaction, so
//     random access patterns abort well before 32 KB with rising
//     probability while sequential ones fit — the paper's Figure 4 curve.
package htm

import (
	"math/bits"

	"tufast/internal/gentab"
	"tufast/internal/mem"
	"tufast/internal/obs"
)

// Geometry of the emulated L1 data cache used for capacity aborts.
// 64 sets x 8 ways x 64-byte lines = 32 KB, matching Intel Haswell L1d.
const (
	CacheSets     = 64
	CacheWays     = 8
	LineBytes     = mem.WordsPerLine * 8
	CapacityBytes = CacheSets * CacheWays * LineBytes // 32 KB
	// CapacityWords is the absolute maximum transaction footprint in
	// 8-byte words (8 KB words = the paper's "8192 ints" at 4 bytes,
	// halved because our words are 8 bytes).
	CapacityWords = CapacityBytes / 8
)

// AbortCode classifies why a hardware transaction aborted, mirroring the
// EAX abort status of real RTM.
type AbortCode uint8

const (
	// AbortNone means no abort occurred.
	AbortNone AbortCode = iota
	// AbortConflict is a data conflict with another thread (another
	// commit invalidated a line in this transaction's read or write set).
	AbortConflict
	// AbortCapacity is a cache-capacity overflow: a set of the emulated
	// L1 received its 9th distinct line. Retrying cannot help.
	AbortCapacity
	// AbortExplicit is a user-requested XABORT (TuFast's H mode issues it
	// when a vertex lock is held incompatibly).
	AbortExplicit
	// AbortLocked means a line's seqlock was held at access or commit
	// time; the hardware analogue is conflicting with a writer's store.
	AbortLocked
)

// String returns the conventional name of the abort code.
func (c AbortCode) String() string {
	switch c {
	case AbortNone:
		return "none"
	case AbortConflict:
		return "conflict"
	case AbortCapacity:
		return "capacity"
	case AbortExplicit:
		return "explicit"
	case AbortLocked:
		return "locked"
	default:
		return "unknown"
	}
}

// Reason is the obs attribution of the code. An attempt that died
// without the emulated hardware aborting it (AbortNone: a fault injected
// into the body, an abort thrown by it) is attributed as a conflict.
func (c AbortCode) Reason() obs.Reason {
	switch c {
	case AbortCapacity:
		return obs.ReasonCapacity
	case AbortExplicit:
		return obs.ReasonExplicit
	case AbortLocked:
		return obs.ReasonLocked
	default:
		return obs.ReasonConflict
	}
}

// Retryable reports whether a retry of the same transaction could
// plausibly succeed (Intel's guidance: retry conflicts, never capacity).
func (c AbortCode) Retryable() bool {
	return c == AbortConflict || c == AbortLocked
}

// lineEntry is one cache line of an attempt's footprint: the version its
// first read saw, the stores buffered for its words, and — inside Commit —
// the meta value its seqlock was taken from. One entry per line replaces
// the separate read set, write set and lock list: every question Read,
// Write and Commit ask about a line is answered by the entry the line's
// single table probe found.
type lineEntry struct {
	line mem.Line
	ver  uint64                   // version at the first read; valid when hasRead
	from uint64                   // meta the line was locked from (even); valid when locked
	vals [mem.WordsPerLine]uint64 // buffered stores; valid where mask has the word's bit
	mask uint8                    // words of the line with a buffered store
	// hasRead is false for lines that are only written or are external
	// touches: they occupy the capacity model but are not validated.
	hasRead bool
	locked  bool // seqlock held by this transaction's Commit
}

// Check is an external validation hook registered by a scheduler, used by
// TuFast's H mode to "subscribe" to per-vertex lock words: the hook must
// return true while the subscription still holds. Hooks run during early
// revalidation and at commit, emulating the hardware read-set monitoring
// of the lock word.
type Check func() bool

// Tx is one emulated hardware transaction. A Tx is single-threaded and
// reusable: Begin resets it.
type Tx struct {
	sp       *mem.Space
	snapshot uint64 // NOrec global-commit snapshot

	// lines is the attempt's footprint in first-touch order, lineIdx maps
	// a line to its index, and wlines lists the entries with buffered
	// stores in first-store order (the order Commit locks them in).
	lines   []lineEntry
	lineIdx *gentab.Table
	wlines  []int32

	checks []Check

	sets      [CacheSets]uint8 // distinct lines per emulated cache set
	active    bool
	lastAbort AbortCode

	// ops is batched into the counters at commit/abort to keep the hot
	// path free of atomics.
	ops uint64

	// lastLine/lastIdx cache the most recently touched line: sorted-
	// adjacency scans hit the same 8-word line repeatedly, and a
	// read-modify-write touches its line twice in a row.
	lastLine mem.Line
	lastIdx  int32

	stats *obs.HTM
}

// LastAbort returns the code of the most recent abort (AbortNone if the
// last attempt committed).
func (t *Tx) LastAbort() AbortCode { return t.lastAbort }

// LastAbortRetryable reports whether retrying after the last abort could
// succeed (false for capacity overflows).
func (t *Tx) LastAbortRetryable() bool { return t.lastAbort.Retryable() }

// NewTx returns a transaction bound to sp, reporting into stats (which may
// be nil). Schedulers hand every worker's transactions the HTM block of
// that worker's obs.Probe, so the counters are written by one thread only.
func NewTx(sp *mem.Space, stats *obs.HTM) *Tx {
	return &Tx{sp: sp, lineIdx: gentab.New(7), stats: stats}
}

// Begin starts (XBEGIN) the transaction, clearing all per-attempt state.
func (t *Tx) Begin() {
	t.snapshot = t.sp.Commits()
	t.lines = t.lines[:0]
	t.wlines = t.wlines[:0]
	t.checks = t.checks[:0]
	t.lineIdx.Reset()
	clear(t.sets[:])
	t.active = true
	t.lastAbort = AbortNone
	t.ops = 0
	t.lastLine = ^mem.Line(0)
	if t.stats != nil {
		t.stats.Starts.Add(1)
	}
}

// Active reports whether the transaction is between Begin and Commit.
func (t *Tx) Active() bool { return t.active }

// Footprint returns the number of distinct cache lines touched so far.
func (t *Tx) Footprint() int { return len(t.lines) }

// lookup finds line l's footprint entry.
func (t *Tx) lookup(l mem.Line) (idx int32, seen bool) {
	if l == t.lastLine {
		return t.lastIdx, true
	}
	return t.lineIdx.Get(uint64(l))
}

// admit adds line l, which lookup did not find, to the footprint and the
// capacity model, returning its index or an abort code on set overflow.
func (t *Tx) admit(l mem.Line) (int32, AbortCode) {
	set := uint64(l) % CacheSets
	if t.sets[set] >= CacheWays {
		return 0, t.fail(AbortCapacity)
	}
	t.sets[set]++
	idx := len(t.lines)
	if idx == cap(t.lines) {
		t.lines = append(t.lines, lineEntry{})
	}
	// Reuse the slot in place: building a zero lineEntry and copying its
	// 96 bytes in costs more than the probe, and vals need no clearing
	// (mask says which of them are live).
	t.lines = t.lines[:idx+1]
	e := &t.lines[idx]
	e.line, e.mask, e.hasRead, e.locked = l, 0, false, false
	t.lineIdx.Put(uint64(l), int32(idx))
	return int32(idx), AbortNone
}

// TouchExternal feeds an out-of-space word (e.g. a vertex lock word) into
// the capacity model; key should be a stable pseudo-address of that word.
func (t *Tx) TouchExternal(key uint64) AbortCode {
	// High bit marks the external namespace so it cannot collide with
	// data lines of the Space.
	l := mem.Line(key | 1<<63)
	if _, seen := t.lineIdx.Get(uint64(l)); seen {
		return AbortNone
	}
	_, code := t.admit(l)
	return code
}

// AddCheck registers a subscription hook; a hook returning false aborts
// the transaction with AbortConflict at the next validation point.
func (t *Tx) AddCheck(c Check) {
	t.checks = append(t.checks, c)
}

// maybeRevalidate performs the NOrec early check: if any commit happened
// since our snapshot, re-validate the read set and hooks now. This is the
// software stand-in for HTM's eager coherence-triggered aborts: a
// conflicting commit kills the transaction at its next memory operation
// rather than at XEND.
func (t *Tx) maybeRevalidate() AbortCode {
	c := t.sp.Commits()
	if c == t.snapshot {
		return AbortNone
	}
	if !t.validate() {
		return t.fail(AbortConflict)
	}
	t.snapshot = c
	return AbortNone
}

// validate checks every read line version and every hook. A line this
// transaction's Commit holds locked reads as changed (its meta is odd), so
// it is checked against the version it was locked from instead.
func (t *Tx) validate() bool {
	for i := range t.lines {
		e := &t.lines[i]
		if !e.hasRead {
			continue
		}
		cur := e.from
		if !e.locked {
			cur = t.sp.Meta(e.line)
		}
		if cur != e.ver {
			return false
		}
	}
	for _, c := range t.checks {
		if !c() {
			return false
		}
	}
	return true
}

// Read transactionally loads the word at a. On a non-AbortNone code the
// transaction is dead and must be re-Begun.
func (t *Tx) Read(a mem.Addr) (uint64, AbortCode) {
	l := mem.LineOf(a)
	idx, seen := t.lookup(l)
	if seen {
		if e := &t.lines[idx]; e.mask&(1<<(a%mem.WordsPerLine)) != 0 {
			return e.vals[a%mem.WordsPerLine], AbortNone // read own write
		}
	}
	if code := t.maybeRevalidate(); code != AbortNone {
		return 0, code
	}
	if !seen {
		var code AbortCode
		if idx, code = t.admit(l); code != AbortNone {
			return 0, code
		}
	}
	val, ver, ok := t.sp.ReadConsistent(a)
	if !ok {
		return 0, t.fail(AbortLocked)
	}
	e := &t.lines[idx]
	switch {
	case !e.hasRead:
		e.ver, e.hasRead = ver, true
	case e.ver != ver:
		// Line already in the read set: the recorded version must still
		// hold or we are reading an inconsistent snapshot.
		return 0, t.fail(AbortConflict)
	}
	t.lastLine, t.lastIdx = l, idx
	t.ops++
	return val, AbortNone
}

// Write transactionally buffers a store of val to a; it becomes visible
// only if Commit succeeds.
func (t *Tx) Write(a mem.Addr, val uint64) AbortCode {
	l := mem.LineOf(a)
	w := a % mem.WordsPerLine
	idx, seen := t.lookup(l)
	if seen {
		if e := &t.lines[idx]; e.mask&(1<<w) != 0 {
			e.vals[w] = val
			return AbortNone
		}
	}
	if code := t.maybeRevalidate(); code != AbortNone {
		return code
	}
	if !seen {
		var code AbortCode
		if idx, code = t.admit(l); code != AbortNone {
			return code
		}
	}
	e := &t.lines[idx]
	if e.mask == 0 {
		t.wlines = append(t.wlines, idx)
	}
	e.mask |= 1 << w
	e.vals[w] = val
	t.lastLine, t.lastIdx = l, idx
	t.ops++
	return AbortNone
}

// Explicit aborts the transaction by user request (XABORT).
func (t *Tx) Explicit() AbortCode { return t.fail(AbortExplicit) }

// fail terminates the attempt, recording the abort.
func (t *Tx) fail(code AbortCode) AbortCode {
	t.active = false
	t.lastAbort = code
	if t.stats != nil {
		t.stats.Abort(code.Reason())
		t.stats.WastedOps.Add(t.ops)
	}
	return code
}

// Commit attempts XEND: lock write lines, validate the read set and all
// subscription hooks, publish writes, bump versions. On success the
// global commit counter advances (other in-flight transactions will
// revalidate at their next operation).
func (t *Tx) Commit() AbortCode {
	if !t.active {
		return AbortConflict
	}
	for n, i := range t.wlines {
		e := &t.lines[i]
		m := t.sp.Meta(e.line)
		if m&1 != 0 || !t.sp.TryLockLine(e.line, m) {
			t.revert(n)
			return t.fail(AbortConflict)
		}
		e.from, e.locked = m, true
	}
	if !t.validate() {
		t.revert(len(t.wlines))
		return t.fail(AbortConflict)
	}
	for _, i := range t.wlines {
		e := &t.lines[i]
		base := mem.Addr(e.line) * mem.WordsPerLine
		for m := e.mask; m != 0; m &= m - 1 {
			w := bits.TrailingZeros8(m)
			t.sp.Store(base+mem.Addr(w), e.vals[w])
		}
	}
	for _, i := range t.wlines {
		e := &t.lines[i]
		t.sp.UnlockLine(e.line, e.from|1)
	}
	// A read-only commit published nothing: no global bump needed.
	if len(t.wlines) != 0 {
		t.sp.BumpCommits()
	}
	t.active = false
	if t.stats != nil {
		t.stats.Commits.Add(1)
		t.stats.Ops.Add(t.ops)
	}
	return AbortNone
}

// revert releases the first n write lines Commit locked without bumping
// their versions: the commit failed before writing them.
func (t *Tx) revert(n int) {
	for _, i := range t.wlines[:n] {
		e := &t.lines[i]
		t.sp.RevertLine(e.line, e.from|1)
	}
}
