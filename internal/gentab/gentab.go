// Package gentab provides a generation-stamped open-addressed hash table
// used by the transaction hot paths. Go's built-in map clear() walks the
// whole bucket array, which is sized by the largest transaction ever seen
// — so after one hub-sized transaction every later small transaction pays
// a giant clear. Resetting this table is a single generation bump.
//
// A reset is free; a probe is a hash and at least one cache line. The
// emulated hardware transaction therefore keeps one table per attempt,
// keyed by cache line, whose entry answers every question asked about the
// line (htm.Tx), where it once kept a table each for reads, writes and
// commit-time locks and probed them per word.
//
// Slots from older generations read as empty. A current-generation entry
// can never be probe-shadowed by a stale slot: inserts claim stale slots
// immediately, so within one generation all probe chains are contiguous.
package gentab

// Table maps uint64 keys to int32 values with O(1) bulk reset.
type Table struct {
	keys []uint64
	vals []int32
	gens []uint32
	gen  uint32
	mask uint64
	n    int
}

// New creates a table with capacity for about 2^logSize entries before
// the first growth.
func New(logSize int) *Table {
	if logSize < 4 {
		logSize = 4
	}
	size := 1 << logSize
	return &Table{
		keys: make([]uint64, size),
		vals: make([]int32, size),
		gens: make([]uint32, size),
		gen:  1,
		mask: uint64(size - 1),
	}
}

// Reset empties the table in O(1).
func (t *Table) Reset() {
	t.n = 0
	t.gen++
	if t.gen == 0 { // generation wrap: do the slow clear once per 4G resets
		clear(t.gens)
		t.gen = 1
	}
}

// Len returns the number of live entries.
func (t *Table) Len() int { return t.n }

// Cap returns the number of slots allocated: the largest generation so
// far sized them, and no Reset gives them back.
func (t *Table) Cap() int { return len(t.keys) }

func hash(k uint64) uint64 {
	k ^= k >> 33
	k *= 0xFF51AFD7ED558CCD
	k ^= k >> 33
	return k
}

// Get returns the value stored for k.
func (t *Table) Get(k uint64) (int32, bool) {
	i := hash(k) & t.mask
	for {
		if t.gens[i] != t.gen {
			return 0, false
		}
		if t.keys[i] == k {
			return t.vals[i], true
		}
		i = (i + 1) & t.mask
	}
}

// Put inserts or updates k -> v.
func (t *Table) Put(k uint64, v int32) {
	if t.n*4 >= len(t.keys)*3 {
		t.grow()
	}
	i := hash(k) & t.mask
	for {
		if t.gens[i] != t.gen {
			t.keys[i], t.vals[i], t.gens[i] = k, v, t.gen
			t.n++
			return
		}
		if t.keys[i] == k {
			t.vals[i] = v
			return
		}
		i = (i + 1) & t.mask
	}
}

func (t *Table) grow() {
	old := *t
	size := len(old.keys) * 2
	t.keys = make([]uint64, size)
	t.vals = make([]int32, size)
	t.gens = make([]uint32, size)
	t.mask = uint64(size - 1)
	t.n = 0
	for i := range old.keys {
		if old.gens[i] == old.gen {
			t.Put(old.keys[i], old.vals[i])
		}
	}
}
