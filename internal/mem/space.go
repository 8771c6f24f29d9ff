// Package mem provides the shared, word-addressable memory space that all
// TuFast schedulers operate on.
//
// A Space is a flat array of 64-bit words plus one metadata word per
// emulated 64-byte cache line (8 data words). The metadata word is a
// seqlock-style version: even values mean "stable", odd values mean "a
// writer is in its write-back critical section". Every scheduler in this
// module — the emulated HTM, the OCC/TO/STM baselines, and TuFast's three
// modes — shares these version words, which is what lets them coexist
// safely on the same data (the paper's "sharing same locks and metadata"
// integration requirement, §IV-A).
package mem

import (
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
	"unsafe"
)

// WordsPerLine is the number of 8-byte words in one emulated cache line.
// 8 words × 8 bytes = 64 bytes, matching the line size of the Intel L1
// data cache that hardware TSX piggybacks on.
const WordsPerLine = 8

// lineShift converts a word address to its line index (addr >> lineShift).
const lineShift = 3

// Addr is a word address within a Space.
type Addr uint64

// Line is the index of an emulated cache line within a Space.
type Line uint64

// LineOf returns the emulated cache line holding addr.
func LineOf(a Addr) Line { return Line(a >> lineShift) }

// lineBytes is what one line costs an arena: its data words plus its
// version word.
const lineBytes = (WordsPerLine + 1) * 8

// mapMin is the arena size from which NewSpace takes its memory from the
// OS instead of the Go allocator. A mapping is zero on demand, so creating
// it costs the same whatever its size and only what is touched becomes
// resident; an allocation of this size in a process that has freed one is
// cleared in full first. Below the cutoff the allocator wins (no system
// call, no page fault per first touch): see EXPERIMENTS.md "Restart" for
// the table that puts it here.
const mapMin = 32 << 20

// Space is a shared memory region. All concurrent access goes through the
// atomic accessors; the raw slices are exported only to package-internal
// fast paths via method receivers.
type Space struct {
	words []uint64
	meta  []atomic.Uint64 // one seqlock word per cache line

	// mapped is the anonymous mapping words and meta point into, nil when
	// they are ordinary Go slices. The collector does not see through
	// those two slices to the Space, so every accessor ends in
	// runtime.KeepAlive(s): the finalizer that unmaps cannot run while an
	// access is still in flight.
	mapped []byte

	// The two words below are written while transactions run — next by
	// arena allocation inside transactions, commits by every write-back —
	// and every operation of every thread reads the slice headers above,
	// so each gets a cache line of its own: sharing one with the headers
	// turned every commit into a miss on every other thread's next access.
	_    [64]byte
	next atomic.Uint64 // allocation cursor (in words)
	_    [56]byte

	// commits is the NOrec-style global commit counter. Every successful
	// transactional write-back increments it once; readers snapshot it to
	// detect (conservatively) that "somebody committed since I started"
	// and trigger early revalidation — the software stand-in for HTM's
	// eager coherence-based aborts.
	commits atomic.Uint64
	_       [56]byte
}

// NewSpace creates a Space with capacity for n words.
func NewSpace(n int) *Space {
	if n <= 0 {
		panic(fmt.Sprintf("mem: non-positive space size %d", n))
	}
	lines := (n + WordsPerLine - 1) / WordsPerLine
	if lines*lineBytes >= mapMin {
		if s := newMappedSpace(lines); s != nil {
			return s
		}
	}
	return newHeapSpace(lines)
}

func newHeapSpace(lines int) *Space {
	return &Space{
		words: make([]uint64, lines*WordsPerLine),
		meta:  make([]atomic.Uint64, lines),
	}
}

// mapArena is the platform's anonymous mapping; a variable so a test can
// make it fail.
var mapArena = sysMap

// liveMappings counts arenas mapped and not yet unmapped.
var liveMappings atomic.Int64

// newMappedSpace builds a Space of the given number of lines on one
// anonymous private mapping — data words first, version words behind
// them — which the Space owns and its finalizer returns. It reports nil
// when the platform has no such mapping or the OS refuses one.
func newMappedSpace(lines int) *Space {
	b, err := mapArena(lines * lineBytes)
	if err != nil {
		return nil
	}
	nw := lines * WordsPerLine
	s := &Space{
		words:  unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), nw),
		meta:   unsafe.Slice((*atomic.Uint64)(unsafe.Pointer(&b[nw*8])), lines),
		mapped: b,
	}
	liveMappings.Add(1)
	runtime.SetFinalizer(s, (*Space).unmap)
	return s
}

func (s *Space) unmap() {
	// A refused munmap leaks the mapping; a finalizer has nobody to tell.
	_ = sysUnmap(s.mapped)
	liveMappings.Add(-1)
}

// Cap returns the total capacity of the space in words.
func (s *Space) Cap() int { return len(s.words) }

// Used returns the number of words allocated so far (the allocation
// cursor). Space is arena-style and never reclaims, so Cap()-Used() is
// the remaining headroom — which background consumers like overlay GC
// check before allocating replacement blocks, and what the serving layer
// exports as arena_used_words / arena_cap_words. It counts words handed
// out, not memory resident: a mapped arena's untouched pages cost nothing
// until they are written.
func (s *Space) Used() int { return int(s.next.Load()) }

// Alloc reserves n consecutive words and returns their base address. The
// region is zero — no word is handed out twice, and both arena sources
// start zeroed (the Go allocator clears, the OS maps zero pages on
// demand) — and never reclaimed; Spaces are arena-style, sized for the
// job and discarded wholesale.
func (s *Space) Alloc(n int) Addr {
	if n <= 0 {
		panic(fmt.Sprintf("mem: non-positive allocation %d", n))
	}
	base := s.next.Add(uint64(n)) - uint64(n)
	if base+uint64(n) > uint64(len(s.words)) {
		panic(fmt.Sprintf("mem: space exhausted: want %d words at %d, cap %d", n, base, len(s.words)))
	}
	return Addr(base)
}

// AllocLineAligned reserves n words starting on a cache-line boundary.
// Lock tables and hot counters use this to control false sharing.
func (s *Space) AllocLineAligned(n int) Addr {
	for {
		cur := s.next.Load()
		base := (cur + WordsPerLine - 1) &^ uint64(WordsPerLine-1)
		if base+uint64(n) > uint64(len(s.words)) {
			panic(fmt.Sprintf("mem: space exhausted: want %d aligned words at %d, cap %d", n, base, len(s.words)))
		}
		if s.next.CompareAndSwap(cur, base+uint64(n)) {
			return Addr(base)
		}
	}
}

// Load atomically reads the word at a. It makes no consistency promise
// beyond single-word atomicity; transactional readers must pair it with
// version validation.
func (s *Space) Load(a Addr) uint64 {
	v := atomic.LoadUint64(&s.words[a])
	runtime.KeepAlive(s)
	return v
}

// Store atomically writes the word at a WITHOUT touching the line version.
// It is only safe for initialization, for data that is never read
// transactionally, and for words no transaction touches until a lock
// orders it after the store (an owned batch: dyngraph.Store.Owned).
// Schedulers use StoreVersioned.
func (s *Space) Store(a Addr, v uint64) {
	atomic.StoreUint64(&s.words[a], v)
	runtime.KeepAlive(s)
}

// Meta returns the current version word of line l (even = stable).
func (s *Space) Meta(l Line) uint64 {
	m := s.meta[l].Load()
	runtime.KeepAlive(s)
	return m
}

// TryLockLine attempts to take line l's seqlock by CASing the expected
// even version to odd. It returns false if the line is locked or the
// version moved.
func (s *Space) TryLockLine(l Line, expect uint64) bool {
	if expect&1 != 0 {
		return false
	}
	ok := s.meta[l].CompareAndSwap(expect, expect|1)
	runtime.KeepAlive(s)
	return ok
}

// UnlockLine releases a line taken by TryLockLine, publishing a new even
// version strictly greater than the locked one.
func (s *Space) UnlockLine(l Line, locked uint64) {
	s.meta[l].Store(locked + 1) // odd+1 = next even
	runtime.KeepAlive(s)
}

// RevertLine releases a line WITHOUT bumping the version, used when a
// commit aborts after locking some lines but before writing them.
func (s *Space) RevertLine(l Line, locked uint64) {
	s.meta[l].Store(locked &^ 1)
	runtime.KeepAlive(s)
}

// StoreVersioned performs a single in-place versioned store: it spins the
// line's seqlock to odd, writes, and releases. In-place writers (the 2PL
// L mode, which already holds the vertex's exclusive lock) use this so
// that optimistic readers of the same line observe the version change.
// Writers to the same line but different vertices may race here, hence
// the CAS loop.
func (s *Space) StoreVersioned(a Addr, v uint64) {
	l := LineOf(a)
	for {
		m := s.meta[l].Load()
		if m&1 == 0 && s.meta[l].CompareAndSwap(m, m|1) {
			atomic.StoreUint64(&s.words[a], v)
			s.meta[l].Store(m + 2)
			s.commits.Add(1)
			runtime.KeepAlive(s)
			return
		}
	}
}

// ReadConsistent reads the word at a together with a proof of stability:
// it returns (value, version, true) only if the line version was even and
// unchanged across the data load. On contention it retries a few times
// and then reports ok=false.
func (s *Space) ReadConsistent(a Addr) (val, ver uint64, ok bool) {
	l := LineOf(a)
	for range 16 {
		v1 := s.meta[l].Load()
		if v1&1 != 0 {
			continue
		}
		val = atomic.LoadUint64(&s.words[a])
		v2 := s.meta[l].Load()
		if v1 == v2 {
			runtime.KeepAlive(s)
			return val, v1, true
		}
	}
	runtime.KeepAlive(s)
	return 0, 0, false
}

// Commits returns the global commit counter.
func (s *Space) Commits() uint64 { return s.commits.Load() }

// BumpCommits advances the global commit counter by one. Called once per
// successful transactional write-back.
func (s *Space) BumpCommits() { s.commits.Add(1) }

// Float converts a stored word to float64 (bit cast).
func Float(w uint64) float64 { return math.Float64frombits(w) }

// Word converts a float64 to its storable word (bit cast).
func Word(f float64) uint64 { return math.Float64bits(f) }
