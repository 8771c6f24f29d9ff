// Package dyngraph layers a transactional, mutable edge overlay on top
// of an immutable graph.CSR base.
//
// The base adjacency stays frozen; every mutation is recorded in a
// per-vertex chain of fixed-size edge blocks living inside the shared
// mem.Space. Overlay words are read and written through the same
// sched.Tx interface — and therefore the same per-vertex locks, HTM
// subscriptions and O-mode validation — as vertex property words, so a
// mutation transaction behaves exactly like the paper's property
// transactions, and it costs what it changes, not what its source has
// accumulated: a leaf-vertex edge insert walks a chain of at most three
// blocks, a hub mutation finds its target through the hub's index in
// about four cache lines, and both are small transactions. Nothing in
// the TM core knows this package exists.
//
// Layout. Store allocates three line-aligned vertex arrays: head[v]
// (word address of v's first overlay block, 0 = none), deg[v] (live
// out-degree, seeded from the base, below the stamp of the arc
// mutation that last set it: stamp<<34|degree) and idx[v] (word address
// of v's target index, 0 = none). Each block is one emulated cache line of
// mem.WordsPerLine words: [next, used, slot0..slot5]. A slot holds
// stamp<<34|target<<2|flags, with bit 0 marking a valid entry and bit 1
// a tombstone:
//
//	entry, no tombstone   arc u→target is live (added, or re-added)
//	entry, tombstone      arc u→target is dead (deleted)
//	no entry              the base adjacency decides
//
// Versioning (MVCC). The stamp field records the write stamp — the
// mutation epoch at which the entry commits — so chains are per-vertex
// multi-version delta logs: a chain may hold several entries for one
// target, each stamped with a later epoch, and the LAST entry in chain
// order with stamp ≤ e decides the arc's state as of epoch e (the base
// adjacency is the implicit stamp-0 version). Mutators still flip the
// tombstone bit in place — but only when the latest entry for the
// target carries the current write stamp, i.e. when the flip cannot be
// observed by a reader pinned at an earlier epoch; otherwise they
// append a freshly stamped entry. Committed entries are therefore
// immutable forever, which is what makes the *At readers safe without
// any lock (see NeighborsAt). Per-target stamps are non-decreasing in
// chain order because batches are serialized and the write stamp is
// monotone.
//
// Target index. A mutation must find the newest entry for its target,
// and walking the chain for it makes the mutation cost the vertex's
// whole history inside the transaction. So a vertex whose chain reaches
// indexMinBlocks blocks gets an index (GTX's per-vertex delta-chains
// index): a header line [bits, count, tail] followed by 1<<bits slot
// words target<<32|slotAddr, open addressing with linear probing over a
// multiplicative hash, load ≤ ½, moved to a table of twice the size
// when count passes that. The invariant, kept by every transaction that
// appends to or rebuilds the chain: each target with an entry in the
// chain has exactly one index slot, it holds the address of that
// target's LAST chain entry, and tail is the chain's last block. The
// index is a writer-side accelerator only: the chain layout is
// unchanged and no pinned reader ever looks at the index, so
// NeighborsAt's four-point argument needs nothing new — index words
// change only together with an append or a rebuild of the chain into
// fresh blocks, never with a committed entry, and committed entries
// stay immutable. That is also why CompactChain may refill the table in
// place where it rebuilds the chain into fresh blocks: nothing outside
// a transaction owning the vertex reads a table. Index words are read
// and written through the transaction like every other word of the
// vertex. A vertex keeps its index once it has one; chains that never
// reached indexMinBlocks are walked as before, and a Space above 2^32
// words (slot addresses take the low half of a slot word) never
// indexes.
//
// Every word of vertex u's chain and index (and its head, deg and idx
// words) is owned by u, which makes u the lock and conflict granule for
// topology exactly as for properties.
//
// Blocks and index tables are allocated from the Space and never freed:
// a table that was doubled stays behind like a compacted-away block.
// One allocated by an attempt that later aborts is leaked — it
// was never linked, so it stays unreachable and zeroed; SpaceWords
// budgets for that. The link word is written last and transactionally,
// so a block becomes reachable only when the allocating transaction
// commits.
package dyngraph

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"tufast/internal/graph"
	"tufast/internal/mem"
	"tufast/internal/sched"
	"tufast/internal/worklist"
)

const (
	// blockWords is the size of one overlay block: exactly one emulated
	// cache line, so a block never shares line versions with another
	// vertex's data.
	blockWords = mem.WordsPerLine
	// slotBase is the index of the first entry slot within a block
	// (word 0 = next link, word 1 = used count).
	slotBase      = 2
	slotsPerBlock = blockWords - slotBase

	entryValid = 1 << 0
	entryTomb  = 1 << 1
	entryShift = 2

	// stampShift positions the write stamp above the 32-bit target and
	// the two flag bits, leaving 30 bits of epoch space. A deg word keeps
	// its stamp in the same place, above the degree (degMask).
	stampShift = 34
	degMask    = 1<<stampShift - 1
	// MaxStamp is the largest representable write stamp (~10^9 mutation
	// epochs). SetWriteStamp panics beyond it; a daemon would need a
	// billion effective batches to get there.
	MaxStamp = 1<<(64-stampShift) - 1

	// StampLatest filters nothing: the *At readers resolve to the
	// newest committed state, like the unversioned paths.
	StampLatest = ^uint64(0)

	// indexMinBlocks is the chain length, in blocks, at which a vertex
	// gets a target index. Measured on serve_write's traffic (6.49M
	// lookups; EXPERIMENTS "Write path" has the histogram): the 81% of
	// lookups that visit fewer than 4 blocks make 23% of the block
	// visits, so walking them costs little and indexing them would spend
	// a header line and a table on four fifths of the touched vertices;
	// the 11% that visit 8 or more make at least 66%.
	indexMinBlocks = 4
	// Index header words; the slot words start on the next line.
	idxBits  = 0 // log2 of the slot count
	idxCount = 1 // distinct targets in the table
	idxTail  = 2 // the chain's last block
	idxSlots = blockWords
	// minIndexBits is the smallest table: one line of slots.
	minIndexBits = 3
)

func entryStamp(e uint64) uint64  { return e >> stampShift }
func entryTarget(e uint64) uint32 { return uint32(e >> entryShift) }

// reader is the read capability the scan paths need: sched.Tx satisfies
// it, and the quiescent helpers substitute a Space-backed implementation
// so transactional and non-transactional scans share one code path.
type reader interface {
	Read(v uint32, addr mem.Addr) uint64
}

// quiescent reads the space directly, bypassing the TM. Exact when no
// mutator can be mid-commit (after workers drained); safe but merely
// epoch-consistent for the *At readers (stamp filtering hides in-flight
// entries); advisory for size hints that tolerate torn chains.
type quiescent struct{ sp *mem.Space }

func (q quiescent) Read(_ uint32, a mem.Addr) uint64 { return q.sp.Load(a) }

// owned is quiescent plus a plain-store Write: the sched.Tx of the
// Store's only writer (see Store.Owned).
type owned struct{ quiescent }

func (o owned) Write(_ uint32, a mem.Addr, v uint64) { o.sp.Store(a, v) }

// Owned returns a sched.Tx that reads and writes the Space directly: no
// validation, no commit, no rollback, no line version bumped. AddArc,
// RemoveArc and CompactChain run through it unchanged, so the link-last
// order, the stamp rule and the index invariant hold as under a
// transaction. It is exact for a caller that is the Store's only
// writer, gives each vertex's words to one goroutine, and runs while no
// transaction touches the chains — none in flight when it starts, none
// started until it is done. A transaction after it is ordered after its
// stores by whatever lock handed the Store over, so the unbumped
// versions hide nothing from it. The *At readers may run throughout:
// they never look at a line version, and the stamp filter hides the
// entries being written (see NeighborsAt).
func (s *Store) Owned() sched.Tx { return owned{quiescent{s.sp}} }

// Store is a mutable graph: an immutable CSR base plus a transactional
// delta overlay. Concurrent use is safe exactly insofar as all access
// goes through transactions; the *Now/Compact helpers are quiescent,
// and the *At helpers are epoch-pinned reads that are safe concurrently
// with mutators (see NeighborsAt).
type Store struct {
	sp    *mem.Space
	base  *graph.CSR
	n     int
	head  mem.Addr      // n words: head[v] = address of v's first block, 0 = none
	deg   mem.Addr      // n words: deg[v] = live out-degree of v
	idx   mem.Addr      // n words: idx[v] = address of v's target index, 0 = none
	stamp atomic.Uint64 // current write stamp; see SetWriteStamp
	// indexable is false when sp is too large for a slot address to fit
	// the low half of an index slot word; such a store walks every chain.
	indexable bool
	// scratch pools the scan kernel's key buffers (*scanScratch), so a
	// warmed reader resolves a chain — and a warmed mutator builds an
	// index table — without allocating.
	scratch sync.Pool
	// rebuilt is the largest watermark CompactChain has rebuilt a chain
	// under: a snapshot at an epoch below it may no longer be folded
	// forward (see CompactFrom).
	rebuilt atomic.Uint64
}

// New creates an overlay store over base, allocating its head, degree
// and index arrays (and later its blocks and index tables) from sp.
// Size sp with SpaceWords headroom beyond the caller's own allocations.
func New(sp *mem.Space, base *graph.CSR) *Store {
	n := base.NumVertices()
	s := &Store{sp: sp, base: base, n: n, indexable: uint64(sp.Cap()) <= 1<<32}
	// The head array is allocated before any block or table, so a real
	// block, slot or header address can never be 0 and 0 can mean "none".
	s.head = sp.AllocLineAligned(n)
	s.deg = sp.AllocLineAligned(n)
	s.idx = sp.AllocLineAligned(n)
	for v := uint32(0); int(v) < n; v++ {
		sp.Store(s.deg+mem.Addr(v), uint64(base.Degree(v)))
	}
	// Stamp 0 is reserved for the base adjacency; fresh mutations
	// commit at stamp 1 until the owner installs a batch stamp.
	s.stamp.Store(1)
	s.scratch.New = func() any { return new(scanScratch) }
	return s
}

// SetWriteStamp installs the stamp every subsequent mutation commits
// under. The owner (tufast.DynGraph) sets it to epoch+1 at the start of
// each serialized batch, so in-flight entries are invisible to every
// reader pinned at ≤ epoch until the batch's own epoch bump publishes
// them. Must only be called while no mutator is mid-transaction: the
// batch serialization lock provides that for stream transactions, and
// the owner enforces it (best-effort) for direct mutations by
// asserting that none start while a batch is in flight.
func (s *Store) SetWriteStamp(stamp uint64) {
	if stamp > MaxStamp {
		panic(fmt.Sprintf("dyngraph: write stamp %d exceeds MaxStamp", stamp))
	}
	s.stamp.Store(stamp)
}

// SpaceWords returns the extra space (in words) a Store over n vertices
// needs for arcMutations AddArc/RemoveArc calls: the head, degree and
// index arrays plus a generous budget of 24 words per mutation that
// covers the blocks, the blocks leaked by aborted attempts, the
// multi-version entries MVCC appends (a mutation that would have
// flipped a tombstone in place under a single version appends a fresh
// stamped entry when the epoch has moved) and the index tables of the
// long chains, each with the smaller ones its doublings left behind —
// about as much again as the final table. Only transactions leak blocks:
// an owned batch (Owned) never aborts, so every block it allocates is
// linked. Measured per effective edge
// op (two arc mutations, so against a budget of 48): serve_write's
// chains take 1.74 words and its tables 1.5 more; on serve_mixed's
// smaller graph, where one vertex in eight ends up indexed and chain GC
// re-allocates the blocks it compacts, 4.75 and 6 (EXPERIMENTS "Write
// path", Arena). An undirected edge mutation is two arc mutations.
func SpaceWords(n, arcMutations int) int {
	return 3*(n+2*blockWords) + 24*arcMutations + 64
}

// Base returns the frozen CSR underneath the overlay.
func (s *Store) Base() *graph.CSR { return s.base }

// NumVertices returns |V| (fixed: the overlay mutates edges, not the
// vertex set).
func (s *Store) NumVertices() int { return s.n }

// Undirected reports whether the base was symmetrized. Undirected
// stores must be mutated symmetrically (both arcs in one transaction),
// as tufast.Tx.AddEdge/RemoveEdge do.
func (s *Store) Undirected() bool { return s.base.Undirected() }

func (s *Store) check(v uint32) {
	if int(v) >= s.n {
		panic(fmt.Sprintf("dyngraph: vertex %d out of range [0,%d)", v, s.n))
	}
}

func (s *Store) headOf(v uint32) mem.Addr { return s.head + mem.Addr(v) }
func (s *Store) degOf(v uint32) mem.Addr  { return s.deg + mem.Addr(v) }
func (s *Store) idxOf(v uint32) mem.Addr  { return s.idx + mem.Addr(v) }

// baseHas reports whether the frozen base holds arc u→v (binary search
// of the sorted base adjacency; no shared state touched).
func (s *Store) baseHas(u, v uint32) bool {
	_, ok := slices.BinarySearch(s.base.Neighbors(u), v)
	return ok
}

// cursor is what findLatest learnt about target w in u's chain: where
// w's newest version is, and where an appended one goes.
type cursor struct {
	slot mem.Addr // address of the last chain entry targeting w; 0 = none
	last mem.Addr // the chain's final block; 0 = empty chain
	used uint64   // entries in last
	// A walked chain (hdr == 0) reports its length, so the append that
	// makes it indexMinBlocks long builds the index. An indexed one
	// (hdr != 0) reports w's index slot — or, with slot == 0, the empty
	// one w would take — and the table's size.
	blocks int
	hdr    mem.Addr
	at     mem.Addr
	bits   uint
}

// findLatest locates the LAST entry of u's chain targeting w — the
// newest version, since per-target stamps are non-decreasing in chain
// order — together with the chain's final block, so an appender need
// not rescan. An indexed vertex answers from its table in about four
// lines (idx, header, slot, tail block); any other chain is walked
// whole, which indexMinBlocks keeps short.
//
// An O-mode attempt that is already doomed may run this over a torn
// snapshot: every word is one that some transaction wrote, but not all
// at the same commit. Nothing read here is trusted to be consistent,
// only to be bounded: used and bits are clamped, the probe loop stops
// after one pass over the table, and an address is dereferenced only
// inside the Space.
func (s *Store) findLatest(r reader, u, w uint32) cursor {
	if hdr := mem.Addr(r.Read(u, s.idxOf(u))); hdr != 0 {
		return s.lookup(r, u, w, hdr)
	}
	var c cursor
	b := mem.Addr(r.Read(u, s.headOf(u)))
	for b != 0 {
		c.blocks++
		used := min(r.Read(u, b+1), slotsPerBlock)
		for i := mem.Addr(0); i < mem.Addr(used); i++ {
			e := r.Read(u, b+slotBase+i)
			if e&entryValid != 0 && entryTarget(e) == w {
				c.slot = b + slotBase + i
			}
		}
		c.last, c.used = b, used
		b = mem.Addr(r.Read(u, b))
	}
	return c
}

// Warm and WarmChain load, without using them, the words a mutation at
// source u reads first, so that a caller warming a window of sources
// before mutating them has their cache misses in flight together
// instead of one after another (group prefetching: Go has no prefetch
// instruction, and a plain load does the job). Warm reads u's head, idx
// and deg words and the middle of u's base row, where baseHas's binary
// search starts; WarmChain, run over the window after Warm, follows
// u's index header or the used word of its first block, whose address
// Warm's loads brought in. Each returns the words it read folded into
// one value: a caller that keeps the sum keeps the loads. Both read the
// Space directly and are meant for the Store's only writer (see Owned).
func (s *Store) Warm(u uint32) uint64 {
	sum := s.sp.Load(s.headOf(u)) + s.sp.Load(s.idxOf(u)) + s.sp.Load(s.degOf(u))
	if row := s.base.Neighbors(u); len(row) > 0 {
		sum += uint64(row[len(row)/2])
	}
	return sum
}

// WarmChain is Warm's second pass: see Warm.
func (s *Store) WarmChain(u uint32) uint64 {
	if hdr := mem.Addr(s.sp.Load(s.idxOf(u))); hdr != 0 {
		return s.sp.Load(hdr + idxBits)
	}
	if b := mem.Addr(s.sp.Load(s.headOf(u))); b != 0 {
		return s.sp.Load(b + 1)
	}
	return 0
}

// slotHash is the index's multiplicative (Fibonacci) hash of target w
// into a table of 1<<bits slots.
func slotHash(w uint32, bits uint) mem.Addr {
	return mem.Addr(uint64(w) * 0x9E3779B97F4A7C15 >> (64 - bits))
}

// indexBits returns the table size recorded in the header at hdr,
// clamped so that the table lies inside the Space whatever was read.
func (s *Store) indexBits(r reader, u uint32, hdr mem.Addr) uint {
	room := uint64(s.sp.Cap()) - uint64(hdr+idxSlots)
	return uint(min(r.Read(u, hdr+idxBits), uint64(bits.Len64(room)-1)))
}

// lookup is findLatest through u's index at hdr.
func (s *Store) lookup(r reader, u, w uint32, hdr mem.Addr) cursor {
	c := cursor{hdr: hdr, bits: s.indexBits(r, u, hdr)}
	slots, mask := hdr+idxSlots, mem.Addr(1)<<c.bits-1
	// Load ≤ ½ ends every probe at an empty slot long before the bound;
	// only a torn table (read by a doomed O-mode attempt, see
	// findLatest) reads full, and then any slot of it will do.
	i := slotHash(w, c.bits)
	for n := mem.Addr(0); n <= mask; n++ {
		c.at = slots + i
		e := r.Read(u, c.at)
		if e == 0 {
			break
		}
		if uint32(e>>32) == w {
			if a := mem.Addr(uint32(e)); uint64(a) < uint64(s.sp.Cap()) {
				c.slot = a
			}
			break
		}
		i = (i + 1) & mask
	}
	if tail := mem.Addr(r.Read(u, hdr+idxTail)); tail != 0 && uint64(tail) <= uint64(s.sp.Cap()-blockWords) {
		c.last, c.used = tail, min(r.Read(u, tail+1), slotsPerBlock)
	}
	return c
}

// bumpDeg adjusts u's live degree by delta and stamps the deg word with
// the current write stamp. Every arc mutation that changes u's chain
// calls it, so the word's stamp is that of u's newest chain entry — the
// one word a scan reads to learn that u's row has not changed since a
// stamp (see scan).
func (s *Store) bumpDeg(tx sched.Tx, u uint32, delta int64) {
	d := int64(tx.Read(u, s.degOf(u)) & degMask)
	tx.Write(u, s.degOf(u), s.stamp.Load()<<stampShift|uint64(d+delta)&degMask)
}

// appendEntry adds a new entry to u's chain at the place c found: into
// the last block's free slot when there is one, else into a freshly
// allocated block linked at the tail (or at head for an empty chain),
// and keeps the index invariant — repointing the target's slot on an
// indexed vertex, building the index when this append makes the chain
// indexMinBlocks long. All writes go through tx, so an abort rolls
// chain and index back; a fresh block or table allocated by an aborted
// attempt is simply leaked, still zeroed and unreachable.
func (s *Store) appendEntry(tx sched.Tx, u uint32, entry uint64, c cursor) {
	tail := c.last
	var at mem.Addr
	if tail != 0 && c.used < slotsPerBlock {
		at = tail + slotBase + mem.Addr(c.used)
		tx.Write(u, at, entry)
		tx.Write(u, tail+1, c.used+1)
	} else {
		tail = s.sp.AllocLineAligned(blockWords)
		at = tail + slotBase
		tx.Write(u, at, entry)
		tx.Write(u, tail+1, 1)
		// Link last: the block (and its entry) becomes visible atomically
		// with the transaction's commit.
		if c.last == 0 {
			tx.Write(u, s.headOf(u), uint64(tail))
		} else {
			tx.Write(u, c.last, uint64(tail))
		}
	}
	switch {
	case c.hdr != 0:
		s.indexAppend(tx, u, c, uint64(entryTarget(entry))<<32|uint64(at), tail)
	case tail != c.last && c.blocks+1 >= indexMinBlocks && s.indexable:
		s.buildIndex(tx, u)
	}
}

// indexAppend records in u's index that word's target now has its last
// entry at word's slot address and that the chain ends in tail.
func (s *Store) indexAppend(tx sched.Tx, u uint32, c cursor, word uint64, tail mem.Addr) {
	if c.slot != 0 {
		tx.Write(u, c.at, word) // a newer version of an indexed target
	} else if count := tx.Read(u, c.hdr+idxCount) + 1; 2*count <= 1<<c.bits {
		tx.Write(u, c.at, word)
		tx.Write(u, c.hdr+idxCount, count)
	} else {
		// The new target would push the load past ½: move to a table of
		// twice the size. The old one stays behind.
		sc := s.scratch.Get().(*scanScratch)
		pairs := append(sc.keys[:0], word)
		for i := mem.Addr(0); i < 1<<c.bits; i++ {
			if e := tx.Read(u, c.hdr+idxSlots+i); e != 0 {
				pairs = append(pairs, e)
			}
		}
		sc.keys = pairs
		s.installIndex(tx, u, sc, tail, c.hdr, c.bits)
		s.scratch.Put(sc)
		return
	}
	if tail != c.last {
		tx.Write(u, c.hdr+idxTail, uint64(tail))
	}
}

// buildIndex gives u its first index, from a walk of the chain as tx
// sees it.
func (s *Store) buildIndex(tx sched.Tx, u uint32) {
	sc := s.scratch.Get().(*scanScratch)
	pairs := sc.keys[:0]
	var tail mem.Addr
	for b := mem.Addr(tx.Read(u, s.headOf(u))); b != 0; b = mem.Addr(tx.Read(u, b)) {
		used := min(tx.Read(u, b+1), slotsPerBlock)
		for i := mem.Addr(0); i < mem.Addr(used); i++ {
			if e := tx.Read(u, b+slotBase+i); e&entryValid != 0 {
				pairs = append(pairs, uint64(entryTarget(e))<<32|uint64(b+slotBase+i))
			}
		}
		tail = b
	}
	sc.keys = pairs
	s.installIndex(tx, u, sc, tail, 0, 0)
	s.scratch.Put(sc)
}

// tableBits returns the smallest table that holds n targets at load ≤ ½.
func tableBits(n int) uint {
	return max(minIndexBits, uint(bits.Len(uint(max(2*n, 1)-1))))
}

// fillTable hashes pairs (target<<32|slotAddr words, a later one
// replacing an earlier one of the same target) into tab, whose length
// is 1<<bits ≥ 2·len(pairs), and returns the number of distinct targets.
func fillTable(tab []uint64, bits uint, pairs []uint64) int {
	clear(tab)
	n, mask := 0, mem.Addr(len(tab)-1)
	for _, p := range pairs {
		i := slotHash(uint32(p>>32), bits)
		for tab[i] != 0 && tab[i]>>32 != p>>32 {
			i = (i + 1) & mask
		}
		if tab[i] == 0 {
			n++
		}
		tab[i] = p
	}
	return n
}

// installIndex makes u's index hold exactly sc.keys — one
// target<<32|slotAddr word per chain entry, in chain order, so that the
// last entry of a target wins — with tail as the chain's last block.
// The table u already has (header old, 1<<oldBits slots; old 0 = none)
// is refilled in place when it holds the distinct targets at load ≤ ½:
// the arena never takes memory back, so a rebuilt chain keeps its table
// however much smaller it got, and chain GC spends nothing on indexes.
// Otherwise the smallest table that does hold them is allocated and
// idx[u] pointed at it. Either way the table is laid out in sc.tab
// first and the transaction writes the header and the slots that
// change.
func (s *Store) installIndex(tx sched.Tx, u uint32, sc *scanScratch, tail mem.Addr, old mem.Addr, oldBits uint) {
	pairs := sc.keys
	// Lay the table out large enough for every entry to be a target of
	// its own, count the targets there are, then settle the size: the
	// table in place if it holds them, else the smallest that does.
	b := tableBits(len(pairs))
	sc.tab = slices.Grow(sc.tab[:0], 1<<max(b, oldBits))
	tab := sc.tab[:1<<b]
	count := fillTable(tab, b, pairs)
	want := tableBits(count)
	if old != 0 && oldBits >= want {
		want = oldBits
	}
	if want != b {
		b, tab = want, sc.tab[:1<<want]
		fillTable(tab, b, pairs)
	}
	hdr, fresh := old, old == 0 || oldBits != b
	if fresh {
		hdr = s.sp.AllocLineAligned(idxSlots + len(tab))
		tx.Write(u, hdr+idxBits, uint64(b))
		tx.Write(u, s.idxOf(u), uint64(hdr))
	}
	tx.Write(u, hdr+idxCount, uint64(count))
	tx.Write(u, hdr+idxTail, uint64(tail))
	for i := mem.Addr(0); i < mem.Addr(len(tab)); i++ {
		// A fresh table is all zeros; a refilled one is read first, so
		// that the slots that stay empty or keep their word cost no write.
		if e := tab[i]; fresh && e != 0 || !fresh && e != tx.Read(u, hdr+idxSlots+i) {
			tx.Write(u, hdr+idxSlots+i, e)
		}
	}
}

// mkEntry builds a slot value for target w with the given flag bits,
// stamped with the current write stamp.
func (s *Store) mkEntry(w uint32, flags uint64) uint64 {
	return s.stamp.Load()<<stampShift | uint64(w)<<entryShift | entryValid | flags
}

// AddArc inserts arc u→v within tx, reporting whether the arc was
// actually added (false when it is already live, or when u == v:
// self-loops are dropped to match graph.Build). All touched words are
// owned by u. When the latest version of the arc was committed at an
// earlier stamp, a fresh stamped entry is appended instead of flipping
// the old one, so readers pinned at earlier epochs keep seeing it.
func (s *Store) AddArc(tx sched.Tx, u, v uint32) bool {
	s.check(u)
	s.check(v)
	if u == v {
		return false
	}
	c := s.findLatest(tx, u, v)
	if c.slot != 0 {
		e := tx.Read(u, c.slot)
		if e&entryTomb == 0 {
			return false // already live in the overlay
		}
		if entryStamp(e) == s.stamp.Load() {
			tx.Write(u, c.slot, e&^uint64(entryTomb))
		} else {
			s.appendEntry(tx, u, s.mkEntry(v, 0), c)
		}
		s.bumpDeg(tx, u, 1)
		return true
	}
	if s.baseHas(u, v) {
		return false // live in the base with no override
	}
	s.appendEntry(tx, u, s.mkEntry(v, 0), c)
	s.bumpDeg(tx, u, 1)
	return true
}

// RemoveArc deletes arc u→v within tx, reporting whether the arc was
// actually removed (false when it is not live).
func (s *Store) RemoveArc(tx sched.Tx, u, v uint32) bool {
	s.check(u)
	s.check(v)
	if u == v {
		return false
	}
	c := s.findLatest(tx, u, v)
	if c.slot != 0 {
		e := tx.Read(u, c.slot)
		if e&entryTomb != 0 {
			return false // already dead
		}
		if entryStamp(e) == s.stamp.Load() {
			tx.Write(u, c.slot, e|entryTomb)
		} else {
			s.appendEntry(tx, u, s.mkEntry(v, entryTomb), c)
		}
		s.bumpDeg(tx, u, -1)
		return true
	}
	if s.baseHas(u, v) {
		s.appendEntry(tx, u, s.mkEntry(v, entryTomb), c)
		s.bumpDeg(tx, u, -1)
		return true
	}
	return false
}

// HasArc reports whether arc u→v is live within the transaction (or
// quiescent reader) r, as of the newest version.
func (s *Store) HasArc(r reader, u, v uint32) bool {
	s.check(u)
	s.check(v)
	if c := s.findLatest(r, u, v); c.slot != 0 {
		return r.Read(u, c.slot)&entryTomb == 0
	}
	return s.baseHas(u, v)
}

// hasArcAt is HasArc pinned at maxStamp: the last entry in chain order
// with stamp ≤ maxStamp decides; with none, the base does.
func (s *Store) hasArcAt(r reader, u, v uint32, maxStamp uint64) bool {
	s.check(u)
	s.check(v)
	var found, live bool
	b := mem.Addr(r.Read(u, s.headOf(u)))
	for b != 0 {
		used := r.Read(u, b+1)
		if used > slotsPerBlock {
			used = slotsPerBlock
		}
		for i := mem.Addr(0); i < mem.Addr(used); i++ {
			e := r.Read(u, b+slotBase+i)
			if e&entryValid != 0 && entryTarget(e) == v && entryStamp(e) <= maxStamp {
				found, live = true, e&entryTomb == 0
			}
		}
		b = mem.Addr(r.Read(u, b))
	}
	if found {
		return live
	}
	return s.baseHas(u, v)
}

// Degree returns u's live out-degree within the transaction (or
// quiescent reader) r.
func (s *Store) Degree(r reader, u uint32) int {
	s.check(u)
	return int(r.Read(u, s.degOf(u)) & degMask)
}

// Neighbors returns u's live out-neighbors, sorted ascending, appended
// into buf[:0]. The scan reads the overlay through r (pass the
// transaction) and merges it with the sorted base adjacency.
func (s *Store) Neighbors(r reader, u uint32, buf []uint32) []uint32 {
	return s.neighborsAt(r, u, StampLatest, buf)
}

// scanScratch is the scan kernel's reusable key buffer; the index
// builders borrow it for their pairs, with tab for the table layout.
type scanScratch struct{ keys, tab []uint64 }

const (
	// scanFill appends the resolved row to out; without it scan only
	// counts the row.
	scanFill = 1 << iota
	// scanDropSelf leaves a base self-loop u→u out of the row, as
	// graph.Build does (chains never hold one: AddArc refuses u == v).
	scanDropSelf
)

// scan is the one chain-scan kernel behind every adjacency reader: it
// resolves u's out-neighbors as of maxStamp by merging into row — u's
// sorted, unique adjacency as of stamp from — the chain entries stamped
// in (from, maxStamp], and returns the row's length, appending the row
// itself — sorted, unique — to out under scanFill. The immutable base
// is the row at stamp 0, where every entry counts; a compacted snapshot
// at epoch b is the row at b (see CompactFrom). Stamps are
// non-decreasing in chain order (AddArc and RemoveArc append at the
// tail, CompactChain keeps the order), so a block whose last entry is
// stamped ≤ from holds nothing newer and is skipped unread. Each
// remaining version becomes a key target<<32|seq<<1|tomb, seq being its
// position in chain order (chains are far shorter than 2^31 entries:
// the arena is), so one plain sort leaves every target's newest version
// last in its run, and a single merge against row applies the winners;
// a row with no entry in (from, maxStamp] is copied unchanged. It
// allocates nothing once sc.keys and out have grown.
func (s *Store) scan(r reader, u uint32, row []uint32, from, maxStamp uint64, sc *scanScratch, out []uint32, mode int) ([]uint32, int) {
	keys := sc.keys[:0]
	// u's deg word carries the stamp of u's newest entry (see bumpDeg);
	// an entry stamped ≤ maxStamp was written, deg word included, before
	// the epoch a reader pins was published. A chain with nothing above
	// from is not walked.
	head := mem.Addr(0)
	if entryStamp(r.Read(u, s.degOf(u))) > from {
		head = mem.Addr(r.Read(u, s.headOf(u)))
	}
	for b := head; b != 0; b = mem.Addr(r.Read(u, b)) {
		used := min(r.Read(u, b+1), slotsPerBlock)
		if used == 0 {
			continue
		}
		// A torn append can show a zero last word: not valid, so the
		// block is scanned.
		if last := r.Read(u, b+slotBase+mem.Addr(used)-1); last&entryValid != 0 && entryStamp(last) <= from {
			continue
		}
		for i := mem.Addr(0); i < mem.Addr(used); i++ {
			e := r.Read(u, b+slotBase+i)
			if st := entryStamp(e); e&entryValid != 0 && st > from && st <= maxStamp {
				keys = append(keys, uint64(entryTarget(e))<<32|uint64(len(keys))<<1|(e&entryTomb)>>1)
			}
		}
	}
	// A row at a stamp above 0 is a compaction's, which holds none.
	if mode&scanDropSelf != 0 && from == 0 {
		if _, self := slices.BinarySearch(row, u); self {
			keys = append(keys, uint64(u)<<32|1) // the only key for target u: a tombstone
		}
	}
	sc.keys = keys
	slices.Sort(keys)
	n, bi := 0, 0
	for k, key := range keys {
		t := uint32(key >> 32)
		if k+1 < len(keys) && uint32(keys[k+1]>>32) == t {
			continue // superseded by a newer version of the same target
		}
		j := bi
		for j < len(row) && row[j] < t {
			j++
		}
		n += j - bi
		if mode&scanFill != 0 {
			out = append(out, row[bi:j]...)
		}
		if bi = j; bi < len(row) && row[bi] == t {
			bi++ // the overlay decides this arc of the row
		}
		if key&1 == 0 {
			n++
			if mode&scanFill != 0 {
				out = append(out, t)
			}
		}
	}
	if mode&scanFill != 0 {
		out = append(out, row[bi:]...)
	}
	return out, n + len(row) - bi
}

// neighborsAt is Neighbors pinned at maxStamp.
func (s *Store) neighborsAt(r reader, u uint32, maxStamp uint64, buf []uint32) []uint32 {
	s.check(u)
	sc := s.scratch.Get().(*scanScratch)
	out, _ := s.scan(r, u, s.base.Neighbors(u), 0, maxStamp, sc, buf[:0], scanFill)
	s.scratch.Put(sc)
	return out
}

// LiveDegree is the quiescent Degree: exact once mutators have drained,
// advisory (a single racy word read) while they run — which is all a
// routing size hint needs.
func (s *Store) LiveDegree(u uint32) int {
	return s.Degree(quiescent{s.sp}, u)
}

// NeighborsNow is the quiescent Neighbors. Unlike LiveDegree it walks
// the chain unprotected, so it must only run when no mutator is active;
// use NeighborsAt for an epoch-pinned scan that tolerates mutators.
func (s *Store) NeighborsNow(u uint32, buf []uint32) []uint32 {
	return s.Neighbors(quiescent{s.sp}, u, buf)
}

// NeighborsAt returns u's out-neighbors as of mutation epoch maxStamp,
// sorted ascending, appended into buf[:0].
//
// Unlike NeighborsNow this is safe while mutators run, without any
// lock. The argument: (1) every slot, link, and used word is a single
// aligned word the Space loads atomically, so a racing read sees either
// the old or the new value, never a torn one; (2) a committed entry is
// immutable — in-place tombstone flips only happen while the entry's
// stamp equals the current write stamp, which is > maxStamp for every
// pinned reader; (3) an in-flight entry (including one an undo log will
// revert) always carries the current write stamp > maxStamp, so the
// filter hides it whether or not its transaction commits; (4) a
// half-visible append (used bumped before the slot lands, or vice
// versa) exposes at worst a zero word — valid bit clear — or a hidden
// in-flight entry, both ignored. Callers must pin the epoch via the
// owner's view registry so GC keeps the versions this scan needs.
func (s *Store) NeighborsAt(u uint32, maxStamp uint64, buf []uint32) []uint32 {
	return s.neighborsAt(quiescent{s.sp}, u, maxStamp, buf)
}

// HasArcNow is the quiescent HasArc.
func (s *Store) HasArcNow(u, v uint32) bool {
	return s.HasArc(quiescent{s.sp}, u, v)
}

// HasArcAt reports whether arc u→v is live as of epoch maxStamp. Safe
// while mutators run (see NeighborsAt).
func (s *Store) HasArcAt(u, v uint32, maxStamp uint64) bool {
	return s.hasArcAt(quiescent{s.sp}, u, v, maxStamp)
}

// LiveArcs returns the quiescent total of live out-arcs (twice the edge
// count for undirected stores).
func (s *Store) LiveArcs() int {
	q := quiescent{s.sp}
	total := 0
	for v := uint32(0); int(v) < s.n; v++ {
		total += s.Degree(q, v)
	}
	return total
}

// DegreeAt returns u's out-degree as of epoch maxStamp: the scan kernel
// in count-only mode, so no adjacency is materialised. Safe while
// mutators run (see NeighborsAt).
func (s *Store) DegreeAt(u uint32, maxStamp uint64) int {
	s.check(u)
	sc := s.scratch.Get().(*scanScratch)
	_, n := s.scan(quiescent{s.sp}, u, s.base.Neighbors(u), 0, maxStamp, sc, nil, 0)
	s.scratch.Put(sc)
	return n
}

// sweepGrain is how many vertices a sweep worker claims at a time:
// small enough that the hub-heavy low ids of a power-law graph spread
// over every worker, large enough to amortise the claim.
const sweepGrain = 64

// sweep runs fn over [0, n) in dynamically claimed vertex chunks on up
// to threads goroutines, each call with a scratch of its own, and
// returns once every chunk is done.
func (s *Store) sweep(threads int, fn func(sc *scanScratch, lo, hi uint32)) {
	worklist.Range(s.n, threads, sweepGrain, func(_, lo, hi int) {
		sc := s.scratch.Get().(*scanScratch)
		fn(sc, uint32(lo), uint32(hi))
		s.scratch.Put(sc)
	})
}

// ArcsAt counts the live out-arcs as of epoch maxStamp on up to threads
// goroutines — an O(V+E) count-only chain scan, exact for the pinned
// epoch and safe while mutators run (the deg words are only advisory
// under concurrency; this is not). It is the arc count of CompactAt's
// CSR at the same stamp, so a base self-loop is not counted.
func (s *Store) ArcsAt(maxStamp uint64, threads int) int {
	var total atomic.Int64
	s.sweep(threads, func(sc *scanScratch, lo, hi uint32) {
		sum := 0
		for u := lo; u < hi; u++ {
			_, n := s.scan(quiescent{s.sp}, u, s.base.Neighbors(u), 0, maxStamp, sc, nil, scanDropSelf)
			sum += n
		}
		total.Add(int64(sum))
	})
	return int(total.Load())
}

// Hint returns the routing size hint for a mutation of edge (u, v): the
// paper's BEGIN(size) estimate for the mutation plus an incremental
// fix-up over both endpoints' adjacencies, proportional to live degree.
// The mutation's own footprint is a handful of lines at any degree, so
// the degree term is there for the fix-up a stream hook adds.
func (s *Store) Hint(u, v uint32) int {
	return 2*(s.LiveDegree(u)+s.LiveDegree(v)) + 16
}

// ChainWords returns the quiescent size of u's overlay chain in words
// (0 for an empty chain) — advisory under concurrency; used for GC
// headroom estimates and transaction size hints.
func (s *Store) ChainWords(u uint32) int {
	s.check(u)
	q := quiescent{s.sp}
	n := 0
	b := mem.Addr(q.Read(u, s.headOf(u)))
	for b != 0 {
		n += blockWords
		b = mem.Addr(q.Read(u, b))
	}
	return n
}

// CompactChain rebuilds u's chain within tx, dropping every version
// that no reader pinned at ≥ keep can observe: for each target, only
// the newest entry with stamp ≤ keep survives (and only when its state
// differs from the base), along with every entry stamped > keep. The
// rebuilt chain lives in freshly allocated blocks and is installed with
// a single head write — the old blocks stay frozen, so readers that
// already entered them finish their scan on immutable committed data.
// An indexed vertex's table is refilled in place to point into the new
// blocks. Returns whether the chain was rewritten. The caller must
// guarantee keep ≤ every live pinned epoch (the owner's GC watermark).
func (s *Store) CompactChain(tx sched.Tx, u uint32, keep uint64) bool {
	s.check(u)
	var ents []uint64
	b := mem.Addr(tx.Read(u, s.headOf(u)))
	for b != 0 {
		used := tx.Read(u, b+1)
		if used > slotsPerBlock {
			used = slotsPerBlock
		}
		for i := mem.Addr(0); i < mem.Addr(used); i++ {
			e := tx.Read(u, b+slotBase+i)
			if e&entryValid != 0 {
				ents = append(ents, e)
			}
		}
		b = mem.Addr(tx.Read(u, b))
	}
	if len(ents) == 0 {
		return false
	}
	retain := make([]bool, len(ents))
	latest := make(map[uint32]int, len(ents))
	for i, e := range ents {
		if entryStamp(e) <= keep {
			latest[entryTarget(e)] = i
		} else {
			retain[i] = true
		}
	}
	for t, i := range latest {
		if (ents[i]&entryTomb == 0) != s.baseHas(u, t) {
			retain[i] = true
		}
	}
	kept := ents[:0]
	for i, e := range ents {
		if retain[i] {
			kept = append(kept, e)
		}
	}
	if len(kept) == len(ents) {
		return false // nothing to reclaim
	}
	// Raised before the head write that installs the rebuild, so a fold
	// that reads the rebuilt chain finds it raised afterwards. Raising a
	// maximum is idempotent, and an attempt that aborts after it only
	// costs a later fold a full compaction.
	for old := s.rebuilt.Load(); old < keep; old = s.rebuilt.Load() {
		if s.rebuilt.CompareAndSwap(old, keep) { //tufast:ignore retryunsafe idempotent maximum, an extra raise is only conservative
			break
		}
	}
	hdr := mem.Addr(tx.Read(u, s.idxOf(u)))
	if len(kept) == 0 {
		if hdr != 0 {
			s.reindex(tx, u, hdr, nil, nil)
		}
		tx.Write(u, s.headOf(u), 0)
		return true
	}
	// Fill fresh blocks first, link them child-first, and write head
	// last, so even the in-place schedulers (which apply writes in
	// program order and undo in reverse) never expose a half-built
	// chain to a concurrent pinned reader.
	var blocks []mem.Addr
	for i := 0; i < len(kept); i += slotsPerBlock {
		nb := s.sp.AllocLineAligned(blockWords)
		end := i + slotsPerBlock
		if end > len(kept) {
			end = len(kept)
		}
		for j := i; j < end; j++ {
			tx.Write(u, nb+slotBase+mem.Addr(j-i), kept[j])
		}
		tx.Write(u, nb+1, uint64(end-i))
		blocks = append(blocks, nb)
	}
	for k := len(blocks) - 1; k > 0; k-- {
		tx.Write(u, blocks[k-1], uint64(blocks[k]))
	}
	if hdr != 0 {
		s.reindex(tx, u, hdr, kept, blocks)
	}
	tx.Write(u, s.headOf(u), uint64(blocks[0]))
	return true
}

// reindex points u's index at hdr to the chain CompactChain rebuilt:
// kept[j] now lives in slot j%slotsPerBlock of blocks[j/slotsPerBlock].
// (A chain short enough to have no index is no longer after compaction,
// so there is never one to build here.)
func (s *Store) reindex(tx sched.Tx, u uint32, hdr mem.Addr, kept []uint64, blocks []mem.Addr) {
	sc := s.scratch.Get().(*scanScratch)
	sc.keys = sc.keys[:0]
	var tail mem.Addr
	for j, e := range kept {
		tail = blocks[j/slotsPerBlock]
		sc.keys = append(sc.keys, uint64(entryTarget(e))<<32|uint64(tail+slotBase+mem.Addr(j%slotsPerBlock)))
	}
	s.installIndex(tx, u, sc, tail, hdr, s.indexBits(tx, u, hdr))
	s.scratch.Put(sc)
}

// Compact freezes the overlay into a fresh CSR (the paper-shaped
// structure scan-heavy phases want). Quiescent: all mutators must have
// drained. Use CompactAt to build the CSR of a pinned epoch while
// mutators run.
func (s *Store) Compact(threads int) (*graph.CSR, error) {
	return s.CompactAt(StampLatest, threads)
}

// CompactAt freezes the overlay as of epoch maxStamp into a fresh CSR:
// the fold of the whole chain into the base (see CompactFrom). Safe
// while mutators run. The caller must hold a pin at maxStamp.
func (s *Store) CompactAt(maxStamp uint64, threads int) (*graph.CSR, error) {
	return s.compact(s.base, 0, maxStamp, threads)
}

// CompactFrom is CompactAt that starts from prev, a CSR this Store
// compacted at epoch from ≤ maxStamp: each row is prev's with only the
// chain entries stamped in (from, maxStamp] merged in, so a snapshot
// costs the rows changed since prev plus a copy of the rest, not a sort
// of every chain. It reports whether it folded from prev. It does not
// when prev does not fit the Store, or when chain GC has rebuilt a chain
// under a watermark above from: CompactChain keeps only the newest
// version at or below its watermark and drops that one too when it
// matches the base, so an arc added by from and deleted after it can
// leave no entry above from — folded from prev, it would stay. Then the
// chains are folded into the base, as CompactAt does. The check is made
// before the fold and again after it, because a GC pass can run beside
// it: CompactChain raises the mark before it installs a rebuilt chain,
// so a fold that read one sees the mark on its second look.
func (s *Store) CompactFrom(prev *graph.CSR, from, maxStamp uint64, threads int) (*graph.CSR, bool, error) {
	if prev == nil || prev.NumVertices() != s.n || prev.Undirected() != s.base.Undirected() ||
		from > maxStamp || s.rebuilt.Load() > from {
		g, err := s.CompactAt(maxStamp, threads)
		return g, false, err
	}
	g, err := s.compact(prev, from, maxStamp, threads)
	if err == nil && s.rebuilt.Load() > from {
		g, err = s.CompactAt(maxStamp, threads)
		return g, false, err
	}
	return g, true, err
}

// compact materialises the CSR at maxStamp from rows, this Store's CSR
// at stamp from, on up to threads goroutines, a chunk of sweepGrain
// vertices at a time: the scan kernel writes chunk k's sorted, unique,
// self-loop-free rows back to back into parts[k], one chain walk per
// vertex; a prefix sum over the row lengths gives the offsets; then
// graph.FromCSRRanges copies each chunk to its place in the adjacency
// and validates its rows while they are in cache, exactly as it
// validates a loaded file. Every worker is one more lock-free
// NeighborsAt reader (see there), and workers share no word they write.
func (s *Store) compact(rows *graph.CSR, from, maxStamp uint64, threads int) (*graph.CSR, error) {
	if s.n <= 0 {
		return nil, fmt.Errorf("dyngraph: compact of %d vertices", s.n)
	}
	bounds := make([]int, 0, (s.n+sweepGrain-1)/sweepGrain+1)
	for lo := 0; lo < s.n; lo += sweepGrain {
		bounds = append(bounds, lo)
	}
	bounds = append(bounds, s.n)
	offsets := make([]uint64, s.n+1)
	parts := make([][]uint32, len(bounds)-1)
	worklist.EachRange(bounds, threads, func(k, lo, hi int) {
		sc := s.scratch.Get().(*scanScratch)
		// The deg words are advisory here, which is all a capacity
		// hint needs: a snapshot is rarely far behind them.
		hint := 0
		for u := uint32(lo); u < uint32(hi); u++ {
			hint += s.LiveDegree(u)
		}
		out := make([]uint32, 0, hint)
		for u := uint32(lo); u < uint32(hi); u++ {
			var n int
			out, n = s.scan(quiescent{s.sp}, u, rows.Neighbors(u), from, maxStamp, sc, out, scanFill|scanDropSelf)
			offsets[u+1] = uint64(n)
		}
		parts[k] = out
		s.scratch.Put(sc)
	})
	for u := 0; u < s.n; u++ {
		offsets[u+1] += offsets[u]
	}
	adj := make([]uint32, offsets[s.n])
	return graph.FromCSRRanges(s.n, offsets, adj, s.base.Undirected(), bounds, threads, func(k, lo, _ int) {
		copy(adj[offsets[lo]:], parts[k])
	})
}
