package baselines

import (
	"sort"

	"tufast/internal/gentab"
	"tufast/internal/mem"
	"tufast/internal/obs"
	"tufast/internal/sched"
	"tufast/internal/vlock"
)

// OCC is a Silo-style optimistic scheduler (§VI-B "an optimistic
// transaction scheduler Silo optimized for main-memory database"):
// reads record the vertex lock stamp, writes are buffered privately, and
// commit locks the write set in vertex order, validates every read stamp,
// and installs the writes. All mutation happens under exclusive vertex
// locks, so the stamp check alone proves the read set is unchanged.
type OCC struct {
	sched.Instrumented
	sched.Taxed
	sp    *mem.Space
	locks *vlock.Table
}

// NewOCC creates an OCC scheduler over sp with vertex locks in locks.
func NewOCC(sp *mem.Space, locks *vlock.Table) *OCC {
	return &OCC{sp: sp, locks: locks}
}

// Name implements sched.Scheduler.
func (s *OCC) Name() string { return "OCC" }

// Worker implements sched.Scheduler.
func (s *OCC) Worker(tid int) sched.Worker {
	w := &occWorker{s: s, tid: tid, readIdx: gentab.New(6), writeIdx: gentab.New(5)}
	p := s.Metrics().NewProbe()
	w.Loop = sched.NewLoop(w, &p, obs.ModeTx, nil, uint64(tid)*0x2545F4914F6CDD1D+7)
	return w
}

type occRead struct {
	v     uint32
	addr  mem.Addr
	stamp uint64
}

type occWrite struct {
	v    uint32
	addr mem.Addr
	val  uint64
}

type occWorker struct {
	sched.Loop
	s   *OCC
	tid int

	reads    []occRead
	readIdx  *gentab.Table
	writes   []occWrite
	writeIdx *gentab.Table
}

func (w *occWorker) Begin(int) bool {
	w.reads = w.reads[:0]
	w.writes = w.writes[:0]
	w.readIdx.Reset()
	w.writeIdx.Reset()
	return true
}

// Rollback has nothing to do: writes are buffered, and commit releases
// whatever it locked.
func (w *occWorker) Rollback() {}

func (w *occWorker) Ops() (reads, writes uint64) {
	return uint64(len(w.reads)), uint64(len(w.writes))
}

func (w *occWorker) Aborted(int) (obs.Reason, sched.Next) { return obs.ReasonConflict, sched.RetryWait }

// Read implements sched.Tx.
func (w *occWorker) Read(v uint32, addr mem.Addr) uint64 {
	w.s.Charge()
	if len(w.writes) != 0 {
		if i, ok := w.writeIdx.Get(uint64(addr)); ok {
			return w.writes[i].val
		}
	}
	if _, ok := w.readIdx.Get(uint64(addr)); ok {
		val, _, okc := w.s.sp.ReadConsistent(addr)
		if !okc {
			sched.ThrowAbort("line locked")
		}
		return val
	}
	s1 := w.s.locks.Stamp(v)
	if !vlock.StampFree(s1) {
		sched.ThrowAbort("vertex exclusively locked")
	}
	val, _, okc := w.s.sp.ReadConsistent(addr)
	if !okc {
		sched.ThrowAbort("line locked")
	}
	if w.s.locks.Stamp(v) != s1 {
		sched.ThrowAbort("stamp moved during read")
	}
	w.readIdx.Put(uint64(addr), int32(len(w.reads)))
	w.reads = append(w.reads, occRead{v: v, addr: addr, stamp: s1})
	return val
}

// Write implements sched.Tx.
func (w *occWorker) Write(v uint32, addr mem.Addr, val uint64) {
	w.s.Charge()
	if i, ok := w.writeIdx.Get(uint64(addr)); ok {
		w.writes[i].val = val
		return
	}
	w.writeIdx.Put(uint64(addr), int32(len(w.writes)))
	w.writes = append(w.writes, occWrite{v: v, addr: addr, val: val})
}

// commit implements the Silo commit protocol: lock write vertices in ID
// order, validate read stamps, install, release.
func (w *occWorker) Commit() bool {
	if len(w.writes) == 0 {
		return w.validate(nil)
	}
	vs := make([]uint32, 0, len(w.writes))
	seen := make(map[uint32]uint64, len(w.writes)) // v -> stamp before our acquire
	for i := range w.writes {
		v := w.writes[i].v
		if _, ok := seen[v]; !ok {
			seen[v] = 0
			vs = append(vs, v)
		}
	}
	sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
	acquired := 0
	for _, v := range vs {
		pre := w.s.locks.Stamp(v)
		if !w.s.locks.TryExclusive(v, w.tid) {
			w.releaseLocks(vs[:acquired])
			return false
		}
		acquired++
		// Stamp and TryExclusive are two steps: a competitor that locked,
		// installed and released between them left a stamp newer than pre,
		// and validating reads of v against pre would pass over a value
		// that changed.
		if w.s.locks.Stamp(v) != vlock.StampAfterExclusive(pre, w.tid) {
			w.releaseLocks(vs[:acquired])
			return false
		}
		seen[v] = pre
	}
	if !w.validate(seen) {
		w.releaseLocks(vs)
		return false
	}
	for i := range w.writes {
		w.s.sp.StoreVersioned(w.writes[i].addr, w.writes[i].val)
	}
	w.releaseLocks(vs)
	return true
}

// validate checks every read's vertex stamp. ownPre maps vertices we hold
// exclusively to their pre-acquisition stamp.
func (w *occWorker) validate(ownPre map[uint32]uint64) bool {
	for i := range w.reads {
		r := &w.reads[i]
		if ownPre != nil {
			if pre, ok := ownPre[r.v]; ok {
				if pre != r.stamp {
					return false
				}
				continue
			}
		}
		if w.s.locks.Stamp(r.v) != r.stamp {
			return false
		}
	}
	return true
}

func (w *occWorker) releaseLocks(vs []uint32) {
	for _, v := range vs {
		w.s.locks.ReleaseExclusive(v, w.tid)
	}
}
