package htm

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"tufast/internal/gentab"
	"tufast/internal/mem"
	"tufast/internal/obs"
)

// counted returns a probe's metrics and its HTM block, the counters a
// scheduler hands its workers' transactions.
func counted() (*obs.Metrics, *obs.HTM) {
	m := new(obs.Metrics)
	p := m.NewProbe()
	return m, p.HTM()
}

func newTestTx() (*mem.Space, *Tx, *obs.Metrics) {
	sp := mem.NewSpace(1 << 16)
	m, st := counted()
	return sp, NewTx(sp, st), m
}

func TestReadWriteCommit(t *testing.T) {
	sp, tx, st := newTestTx()
	tx.Begin()
	if code := tx.Write(3, 42); code != AbortNone {
		t.Fatal(code)
	}
	if v, code := tx.Read(3); code != AbortNone || v != 42 {
		t.Fatalf("read-own-write: %d %v", v, code)
	}
	if code := tx.Commit(); code != AbortNone {
		t.Fatal(code)
	}
	if sp.Load(3) != 42 {
		t.Fatal("write not published")
	}
	if st.Snapshot().HTM.Commits != 1 {
		t.Fatal("commit not counted")
	}
}

func TestWritesInvisibleBeforeCommit(t *testing.T) {
	sp, tx, _ := newTestTx()
	tx.Begin()
	tx.Write(3, 42)
	if sp.Load(3) != 0 {
		t.Fatal("uncommitted write visible")
	}
}

func TestExplicitAbortDiscards(t *testing.T) {
	sp, tx, st := newTestTx()
	tx.Begin()
	tx.Write(3, 42)
	if code := tx.Explicit(); code != AbortExplicit {
		t.Fatal(code)
	}
	if sp.Load(3) != 0 {
		t.Fatal("aborted write visible")
	}
	if st.Snapshot().HTM.Aborts["explicit"] != 1 {
		t.Fatal("explicit abort not counted")
	}
	if tx.LastAbort() != AbortExplicit || tx.LastAbortRetryable() {
		t.Fatal("abort code bookkeeping wrong")
	}
}

func TestConflictAbortsReader(t *testing.T) {
	sp, tx, _ := newTestTx()
	tx.Begin()
	if _, code := tx.Read(3); code != AbortNone {
		t.Fatal(code)
	}
	// A foreign commit to the same line.
	sp.StoreVersioned(3, 99)
	if code := tx.Commit(); code != AbortConflict {
		t.Fatalf("commit code %v, want conflict", code)
	}
}

func TestEarlyAbortOnNextOperation(t *testing.T) {
	sp, tx, _ := newTestTx()
	tx.Begin()
	if _, code := tx.Read(3); code != AbortNone {
		t.Fatal(code)
	}
	sp.StoreVersioned(3, 99)
	// NOrec-style: the *next* operation detects the conflict, before
	// commit (the hardware eager-abort emulation).
	if _, code := tx.Read(1000); code != AbortConflict {
		t.Fatalf("early detection missed: %v", code)
	}
}

func TestUnrelatedCommitDoesNotAbort(t *testing.T) {
	sp, tx, _ := newTestTx()
	tx.Begin()
	tx.Read(3)
	sp.StoreVersioned(4096, 1) // different line
	if _, code := tx.Read(5); code != AbortNone {
		t.Fatal("spurious abort on unrelated commit")
	}
	if tx.Commit() != AbortNone {
		t.Fatal("spurious commit failure")
	}
}

func TestCapacitySequentialBoundary(t *testing.T) {
	_, tx, st := newTestTx()
	// Sequential words: capacity is exactly CacheSets*CacheWays lines.
	tx.Begin()
	for i := 0; i < CacheSets*CacheWays*mem.WordsPerLine; i++ {
		if _, code := tx.Read(mem.Addr(i)); code != AbortNone {
			t.Fatalf("abort below capacity at word %d: %v", i, code)
		}
	}
	// The next line must overflow.
	if _, code := tx.Read(mem.Addr(CacheSets * CacheWays * mem.WordsPerLine)); code != AbortCapacity {
		t.Fatalf("expected capacity abort, got %v", code)
	}
	if st.Snapshot().HTM.Aborts["capacity"] != 1 {
		t.Fatal("capacity abort not counted")
	}
	if AbortCapacity.Retryable() {
		t.Fatal("capacity aborts must not be retryable")
	}
}

func TestCapacitySetConflict(t *testing.T) {
	sp := mem.NewSpace(1 << 22)
	tx := NewTx(sp, nil)
	tx.Begin()
	// Nine lines mapping to the same set (stride CacheSets lines).
	stride := mem.Addr(CacheSets * mem.WordsPerLine)
	for i := 0; i < CacheWays; i++ {
		if _, code := tx.Read(stride * mem.Addr(i)); code != AbortNone {
			t.Fatalf("abort at way %d: %v", i, code)
		}
	}
	if _, code := tx.Read(stride * CacheWays); code != AbortCapacity {
		t.Fatalf("9th way in one set must abort, got %v", code)
	}
}

func TestTouchExternalCountsCapacity(t *testing.T) {
	_, tx, _ := newTestTx()
	tx.Begin()
	for i := 0; i < CacheSets*CacheWays; i++ {
		if code := tx.TouchExternal(uint64(i)); code != AbortNone {
			t.Fatalf("abort at external %d: %v", i, code)
		}
	}
	if code := tx.TouchExternal(uint64(CacheSets * CacheWays)); code != AbortCapacity {
		t.Fatalf("externals must hit the capacity model, got %v", code)
	}
}

func TestCheckHookAbortsCommit(t *testing.T) {
	_, tx, _ := newTestTx()
	tx.Begin()
	ok := true
	tx.AddCheck(func() bool { return ok })
	tx.Read(3)
	ok = false
	if code := tx.Commit(); code != AbortConflict {
		t.Fatalf("failed check must abort commit: %v", code)
	}
}

func TestReadOnlyCommitValidates(t *testing.T) {
	sp, tx, _ := newTestTx()
	tx.Begin()
	tx.Read(3)
	sp.StoreVersioned(3, 1)
	if code := tx.Commit(); code != AbortConflict {
		t.Fatalf("stale read-only commit must abort: %v", code)
	}
}

func TestWriteWriteConflictSerializes(t *testing.T) {
	sp := mem.NewSpace(1 << 12)
	const goroutines, each = 4, 300
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tx := NewTx(sp, nil)
			for i := 0; i < each; i++ {
				for {
					tx.Begin()
					v, code := tx.Read(0)
					if code != AbortNone {
						continue
					}
					if tx.Write(0, v+1) != AbortNone {
						continue
					}
					if tx.Commit() == AbortNone {
						break
					}
				}
			}
		}()
	}
	wg.Wait()
	if got := sp.Load(0); got != goroutines*each {
		t.Fatalf("lost updates: %d want %d", got, goroutines*each)
	}
}

func TestAbortCodeStrings(t *testing.T) {
	want := map[AbortCode]string{
		AbortNone: "none", AbortConflict: "conflict", AbortCapacity: "capacity",
		AbortExplicit: "explicit", AbortLocked: "locked", AbortCode(99): "unknown",
	}
	for code, s := range want {
		if code.String() != s {
			t.Errorf("%d.String()=%q want %q", code, code.String(), s)
		}
	}
}

func TestFootprintCountsDistinctLines(t *testing.T) {
	_, tx, _ := newTestTx()
	tx.Begin()
	tx.Read(0)
	tx.Read(1) // same line
	tx.Read(mem.Addr(mem.WordsPerLine))
	if got := tx.Footprint(); got != 2 {
		t.Fatalf("footprint=%d want 2", got)
	}
}

// TestSnapshotConsistencyProperty: within one transaction, re-reading an
// address must return the first-read value or abort — never a torn or
// newer value.
func TestSnapshotConsistencyProperty(t *testing.T) {
	sp := mem.NewSpace(1 << 12)
	f := func(addr uint16, val uint64) bool {
		a := mem.Addr(addr) % (1 << 12)
		sp.StoreVersioned(a, val)
		tx := NewTx(sp, nil)
		tx.Begin()
		v1, code := tx.Read(a)
		if code != AbortNone {
			return true
		}
		v2, code := tx.Read(a)
		if code != AbortNone {
			return true
		}
		return v1 == v2 && v1 == val
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// txUnderTest is what Tx and referenceTx have in common.
type txUnderTest interface {
	Begin()
	Active() bool
	Read(mem.Addr) (uint64, AbortCode)
	Write(mem.Addr, uint64) AbortCode
	TouchExternal(uint64) AbortCode
	AddCheck(Check)
	Explicit() AbortCode
	Commit() AbortCode
	LastAbort() AbortCode
	Footprint() int
}

// diffSide is one implementation with its own Space and counters, plus a
// second transaction of the same implementation that plays the other
// thread.
type diffSide struct {
	name    string
	sp      *mem.Space
	m       *obs.Metrics
	tx      txUnderTest
	foreign txUnderTest
}

// TestDifferentialAgainstReferenceTx drives Tx and the three-table
// referenceTx with the same seeded operation sequences, each over its own
// Space, and requires them to agree op for op on returned values, abort
// codes, LastAbort, Footprint and HTM counters, and on the final memory. The
// address pool is small and skewed so the sequences keep hitting the
// cases the rewrite could get wrong: read-own-write, several words of one
// line, a write then a read of its neighbour, external touches, the 9th
// line of a cache set, a foreign commit to a read line between two
// operations (early revalidation) or right before Commit, a failing
// subscription check, a line another committer left locked, and a line
// republished without a commit-counter bump.
func TestDifferentialAgainstReferenceTx(t *testing.T) {
	const (
		words     = 1 << 14
		setStride = CacheSets * mem.WordsPerLine // two addresses this far apart share a cache set
	)
	seeds := 40
	if testing.Short() {
		seeds = 10
	}
	var total obs.Snapshot
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		mk := func(name string, newTx func(*mem.Space, *obs.HTM) txUnderTest) *diffSide {
			sp := mem.NewSpace(words)
			m, st := counted()
			return &diffSide{name: name, sp: sp, m: m, tx: newTx(sp, st), foreign: newTx(sp, nil)}
		}
		sides := []*diffSide{
			mk("Tx", func(sp *mem.Space, st *obs.HTM) txUnderTest { return NewTx(sp, st) }),
			mk("referenceTx", func(sp *mem.Space, st *obs.HTM) txUnderTest { return newReferenceTx(sp, st) }),
		}
		// Twelve hot lines, and a column of lines that all fall into
		// cache set 0.
		addr := func() mem.Addr {
			if rng.Intn(3) == 0 {
				return mem.Addr(rng.Intn(CacheWays+4))*setStride + mem.Addr(rng.Intn(2))
			}
			return mem.Addr(rng.Intn(12 * mem.WordsPerLine))
		}
		checkOK := true // what both sides' subscription hooks return
		var lockedLine mem.Line
		lineLocked := false

		// both applies op to each side and fails unless the sides agree
		// on what it returned and on every observable afterwards.
		both := func(step int, desc string, op func(s *diffSide) (uint64, AbortCode)) AbortCode {
			t.Helper()
			var got [2]string
			var code AbortCode
			for i, s := range sides {
				val, c := op(s)
				code = c
				got[i] = fmt.Sprintf("val=%d code=%v last=%v active=%v footprint=%d stats=%+v",
					val, c, s.tx.LastAbort(), s.tx.Active(), s.tx.Footprint(), s.m.Snapshot().HTM)
			}
			if got[0] != got[1] {
				t.Fatalf("seed %d step %d %s:\n  %s: %s\n  %s: %s", seed, step, desc,
					sides[0].name, got[0], sides[1].name, got[1])
			}
			return code
		}

		for step := 0; step < 3000; step++ {
			if !sides[0].tx.Active() {
				both(step, "begin", func(s *diffSide) (uint64, AbortCode) {
					s.tx.Begin()
					s.tx.AddCheck(func() bool { return checkOK })
					return 0, AbortNone
				})
				checkOK = true
			}
			switch r := rng.Intn(100); {
			case r < 40:
				a := addr()
				both(step, fmt.Sprintf("read %d", a), func(s *diffSide) (uint64, AbortCode) { return s.tx.Read(a) })
			case r < 70:
				a, v := addr(), rng.Uint64()
				both(step, fmt.Sprintf("write %d", a), func(s *diffSide) (uint64, AbortCode) { return 0, s.tx.Write(a, v) })
			case r < 75:
				// Write a word, then read its neighbour in the line.
				a, v := addr()&^1, rng.Uint64()
				if both(step, fmt.Sprintf("write %d", a), func(s *diffSide) (uint64, AbortCode) { return 0, s.tx.Write(a, v) }) == AbortNone {
					both(step, fmt.Sprintf("read neighbour %d", a+1), func(s *diffSide) (uint64, AbortCode) { return s.tx.Read(a + 1) })
				}
			case r < 80:
				k := uint64(rng.Intn(4)) * CacheSets // externals pile into set 0 too
				both(step, fmt.Sprintf("touch external %d", k), func(s *diffSide) (uint64, AbortCode) { return 0, s.tx.TouchExternal(k) })
			case r < 88:
				// The other thread commits to a line, between two of our
				// operations or right before our Commit (next case).
				a, v := addr(), rng.Uint64()
				if lineLocked && mem.LineOf(a) == lockedLine {
					continue
				}
				both(step, fmt.Sprintf("foreign commit to %d", a), func(s *diffSide) (uint64, AbortCode) {
					s.foreign.Begin()
					if c := s.foreign.Write(a, v); c != AbortNone {
						return 0, c
					}
					return 0, s.foreign.Commit()
				})
			case r < 96:
				both(step, "commit", func(s *diffSide) (uint64, AbortCode) { return 0, s.tx.Commit() })
			case r < 97:
				both(step, "explicit", func(s *diffSide) (uint64, AbortCode) { return 0, s.tx.Explicit() })
			case r < 98:
				checkOK = false // the subscription fails at the next validation point
			default:
				// Another committer takes a line's seqlock and keeps it
				// for a while; the next such step lets it go, half the
				// time with a new version but no commit-counter bump yet
				// (the window between a committer's unlock and its bump,
				// which only the per-line version checks can see).
				if lineLocked {
					publish := rng.Intn(2) == 0
					for _, s := range sides {
						if publish {
							s.sp.UnlockLine(lockedLine, s.sp.Meta(lockedLine))
						} else {
							s.sp.RevertLine(lockedLine, s.sp.Meta(lockedLine))
						}
					}
				} else {
					lockedLine = mem.LineOf(addr())
					for _, s := range sides {
						if !s.sp.TryLockLine(lockedLine, s.sp.Meta(lockedLine)) {
							t.Fatalf("seed %d step %d: line %d not lockable on %s", seed, step, lockedLine, s.name)
						}
					}
				}
				lineLocked = !lineLocked
			}
		}
		for a := mem.Addr(0); a < words; a++ {
			if x, y := sides[0].sp.Load(a), sides[1].sp.Load(a); x != y {
				t.Fatalf("seed %d: final memory differs at %d: %d vs %d", seed, a, x, y)
			}
		}
		for l := mem.Line(0); l < words/mem.WordsPerLine; l++ {
			if x, y := sides[0].sp.Meta(l), sides[1].sp.Meta(l); x != y {
				t.Fatalf("seed %d: final version of line %d differs: %d vs %d", seed, l, x, y)
			}
		}
		total = total.Merge(sides[0].m.Snapshot())
	}
	if h := total.HTM; h.Commits == 0 || h.Aborts["conflict"] == 0 || h.Aborts["capacity"] == 0 || h.Aborts["locked"] == 0 || h.Aborts["explicit"] == 0 {
		t.Fatalf("the sequences exercised too little: %+v", h)
	}
	t.Logf("over %d seeds: %+v", seeds, total.HTM)
}

type refReadEntry struct {
	line mem.Line
	ver  uint64
}

// refWriteOnlyLine marks a line present in the capacity model without a
// read-set entry (buffered writes and external touches).
const refWriteOnlyLine = int32(-1)

type refWriteEntry struct {
	addr mem.Addr
	val  uint64
}

type refLockedLine struct {
	line mem.Line
	from uint64 // meta value observed when locking (even)
}

// referenceTx is the Tx this package had before the footprint table: a
// read set, a write set and a commit-time lock list, each behind its own
// gentab, probed per word. It is kept verbatim as the behavioural
// reference TestDifferentialAgainstReferenceTx drives beside Tx.
type referenceTx struct {
	sp       *mem.Space
	snapshot uint64 // NOrec global-commit snapshot

	reads   []refReadEntry
	lineIdx *gentab.Table // line -> reads index, or refWriteOnlyLine

	writes   []refWriteEntry
	writeIdx *gentab.Table // addr -> index in writes

	// Commit-phase lock bookkeeping, reused across attempts.
	lockedLines []refLockedLine
	lockedIdx   *gentab.Table // line -> lockedLines index

	checks []Check

	sets      [CacheSets]uint8 // distinct lines per emulated cache set
	active    bool
	overflow  bool
	lastAbort AbortCode

	// ops is batched into stats at commit/abort to keep the hot path
	// free of cross-thread atomics.
	ops uint64

	// lastLine/lastIdx cache the most recent read line: sorted-adjacency
	// scans hit the same 8-word line repeatedly.
	lastLine mem.Line
	lastIdx  int32

	stats *obs.HTM
}

// LastAbort returns the code of the most recent abort (AbortNone if the
// last attempt committed).
func (t *referenceTx) LastAbort() AbortCode { return t.lastAbort }

// LastAbortRetryable reports whether retrying after the last abort could
// succeed (false for capacity overflows).
func (t *referenceTx) LastAbortRetryable() bool { return t.lastAbort.Retryable() }

// NewTx returns a transaction bound to sp, reporting into stats (which may
// be nil).
func newReferenceTx(sp *mem.Space, stats *obs.HTM) *referenceTx {
	return &referenceTx{
		sp:        sp,
		lineIdx:   gentab.New(7),
		writeIdx:  gentab.New(5),
		lockedIdx: gentab.New(5),
		stats:     stats,
	}
}

// Begin starts (XBEGIN) the transaction, clearing all per-attempt state.
func (t *referenceTx) Begin() {
	t.snapshot = t.sp.Commits()
	t.reads = t.reads[:0]
	t.writes = t.writes[:0]
	t.checks = t.checks[:0]
	t.lineIdx.Reset()
	t.writeIdx.Reset()
	clear(t.sets[:])
	t.active = true
	t.overflow = false
	t.lastAbort = AbortNone
	t.ops = 0
	t.lastLine = ^mem.Line(0)
	t.lastIdx = refWriteOnlyLine
	if t.stats != nil {
		t.stats.Starts.Add(1)
	}
}

// Active reports whether the transaction is between Begin and Commit.
func (t *referenceTx) Active() bool { return t.active }

// Footprint returns the number of distinct cache lines touched so far.
func (t *referenceTx) Footprint() int { return t.lineIdx.Len() }

// admit records line l in the capacity model, returning its read-set
// index (or refWriteOnlyLine if it has none yet), whether it was already
// present, and an abort code on set overflow.
func (t *referenceTx) admit(l mem.Line) (idx int32, seen bool, code AbortCode) {
	if idx, ok := t.lineIdx.Get(uint64(l)); ok {
		return idx, true, AbortNone
	}
	set := uint64(l) % CacheSets
	if t.sets[set] >= CacheWays {
		t.overflow = true
		return 0, false, t.fail(AbortCapacity)
	}
	t.sets[set]++
	t.lineIdx.Put(uint64(l), refWriteOnlyLine)
	return refWriteOnlyLine, false, AbortNone
}

// TouchExternal feeds an out-of-space word (e.g. a vertex lock word) into
// the capacity model; key should be a stable pseudo-address of that word.
func (t *referenceTx) TouchExternal(key uint64) AbortCode {
	// High bit marks the external namespace so it cannot collide with
	// data lines of the Space.
	_, _, code := t.admit(mem.Line(key | 1<<63))
	return code
}

// AddCheck registers a subscription hook; a hook returning false aborts
// the transaction with AbortConflict at the next validation point.
func (t *referenceTx) AddCheck(c Check) {
	t.checks = append(t.checks, c)
}

// maybeRevalidate performs the NOrec early check: if any commit happened
// since our snapshot, re-validate the read set and hooks now. This is the
// software stand-in for HTM's eager coherence-triggered aborts: a
// conflicting commit kills the transaction at its next memory operation
// rather than at XEND.
func (t *referenceTx) maybeRevalidate() AbortCode {
	c := t.sp.Commits()
	if c == t.snapshot {
		return AbortNone
	}
	if !t.validate(false) {
		return t.fail(AbortConflict)
	}
	t.snapshot = c
	return AbortNone
}

// validate checks every read line version and every hook. When inCommit
// is true, lines this transaction holds locked (lockedLines) are checked
// against their pre-lock version instead.
func (t *referenceTx) validate(inCommit bool) bool {
	for i := range t.reads {
		r := &t.reads[i]
		m := t.sp.Meta(r.line)
		if m == r.ver {
			continue
		}
		if inCommit {
			if j, ok := t.lockedIdx.Get(uint64(r.line)); ok && t.lockedLines[j].from == r.ver {
				continue // we locked it ourselves, version pinned
			}
		}
		return false
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
func (t *referenceTx) Read(a mem.Addr) (uint64, AbortCode) {
	if len(t.writes) != 0 {
		if i, ok := t.writeIdx.Get(uint64(a)); ok {
			return t.writes[i].val, AbortNone // read own write
		}
	}
	if code := t.maybeRevalidate(); code != AbortNone {
		return 0, code
	}
	l := mem.LineOf(a)
	var (
		idx  int32
		seen bool
	)
	if l == t.lastLine {
		idx, seen = t.lastIdx, true
	} else {
		var code AbortCode
		idx, seen, code = t.admit(l)
		if code != AbortNone {
			return 0, code
		}
	}
	val, ver, ok := t.sp.ReadConsistent(a)
	if !ok {
		return 0, t.fail(AbortLocked)
	}
	switch {
	case seen && idx != refWriteOnlyLine:
		// Line already in the read set: the recorded version must still
		// hold or we are reading an inconsistent snapshot.
		if t.reads[idx].ver != ver {
			return 0, t.fail(AbortConflict)
		}
	default:
		idx = int32(len(t.reads))
		t.lineIdx.Put(uint64(l), idx)
		t.reads = append(t.reads, refReadEntry{line: l, ver: ver})
	}
	t.lastLine, t.lastIdx = l, idx
	t.ops++
	return val, AbortNone
}

// Write transactionally buffers a store of val to a; it becomes visible
// only if Commit succeeds.
func (t *referenceTx) Write(a mem.Addr, val uint64) AbortCode {
	if i, ok := t.writeIdx.Get(uint64(a)); ok {
		t.writes[i].val = val
		return AbortNone
	}
	if code := t.maybeRevalidate(); code != AbortNone {
		return code
	}
	if _, _, code := t.admit(mem.LineOf(a)); code != AbortNone {
		return code
	}
	t.writeIdx.Put(uint64(a), int32(len(t.writes)))
	t.writes = append(t.writes, refWriteEntry{addr: a, val: val})
	t.ops++
	return AbortNone
}

// Explicit aborts the transaction by user request (XABORT).
func (t *referenceTx) Explicit() AbortCode { return t.fail(AbortExplicit) }

// fail terminates the attempt, recording the abort.
func (t *referenceTx) fail(code AbortCode) AbortCode {
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
func (t *referenceTx) Commit() AbortCode {
	if !t.active {
		return AbortConflict
	}
	if len(t.writes) == 0 {
		// Read-only commit: validate and finish; no global bump needed.
		if !t.validate(false) {
			return t.fail(AbortConflict)
		}
		t.active = false
		if t.stats != nil {
			t.stats.Commits.Add(1)
			t.stats.Ops.Add(t.ops)
		}
		return AbortNone
	}

	t.lockedLines = t.lockedLines[:0]
	t.lockedIdx.Reset()
	for i := range t.writes {
		l := mem.LineOf(t.writes[i].addr)
		if _, ok := t.lockedIdx.Get(uint64(l)); ok {
			continue
		}
		m := t.sp.Meta(l)
		if m&1 != 0 || !t.sp.TryLockLine(l, m) {
			t.unlockAll(false)
			return t.fail(AbortConflict)
		}
		t.lockedIdx.Put(uint64(l), int32(len(t.lockedLines)))
		t.lockedLines = append(t.lockedLines, refLockedLine{line: l, from: m})
	}
	if !t.validate(true) {
		t.unlockAll(false)
		return t.fail(AbortConflict)
	}
	for i := range t.writes {
		t.sp.Store(t.writes[i].addr, t.writes[i].val)
	}
	t.unlockAll(true)
	t.sp.BumpCommits()
	t.active = false
	if t.stats != nil {
		t.stats.Commits.Add(1)
		t.stats.Ops.Add(t.ops)
	}
	return AbortNone
}

func (t *referenceTx) unlockAll(publish bool) {
	for _, ll := range t.lockedLines {
		if publish {
			t.sp.UnlockLine(ll.line, ll.from|1)
		} else {
			t.sp.RevertLine(ll.line, ll.from|1)
		}
	}
	t.lockedLines = t.lockedLines[:0]
}
