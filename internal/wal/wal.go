// Package wal is tufastd's write-ahead log: the durability record of
// the mutation plane.
//
// The unit of logging is the committed mutation batch — exactly the
// epoch-bump points of the MVCC overlay. The serving layer appends one
// record per effective POST /v1/edges batch, inside the same
// single-writer bracket that serializes batches, so log order equals
// commit order by construction and a record's epoch is the epoch its
// batch published. Recovery is then trivial to state: load the newest
// valid checkpoint (a CSR at epoch C) and fold every record with epoch
// > C into it; the result is byte-identical to the pre-crash topology
// for every acknowledged batch. A checkpoint is the same fold, written
// out, so Tail and Replay read the log beside appends.
//
// On disk the log is a directory of segments (`wal-<seq>.seg`), each a
// 16-byte header followed by length+CRC32-C framed records:
//
//	frame:   [payload len uint32][crc32c(payload) uint32][payload]
//	payload: [epoch uint64][nops uint32] nops × [time uint64][u uint32][v uint32][flags uint32]
//
// A crash can tear at most the frame being written when the process
// died, and only at the log's tail (frames are appended under one
// lock, fsync barriers never reorder them). Open therefore repairs
// rather than refuses: it scans every segment, truncates the file at
// the first bad frame (length insane, payload short, or CRC mismatch),
// drops any later segments, and reports what it did — a torn tail
// costs exactly the unacknowledged batch that was mid-write, never the
// boot.
//
// Sync policy is the durability/throughput dial: SyncAlways fsyncs
// inside every Append (an acknowledged batch is durable, period),
// SyncInterval fsyncs on a timer (a crash loses at most the last
// interval of acknowledged batches), SyncNone leaves flushing to the
// OS (crash-consistent but not crash-durable — the torn-tail repair
// still applies). Checkpoints bound replay: TruncateBelow removes
// whole segments whose records are all covered by a retained
// checkpoint.
//
// The log is fail-stop: the first write or fsync error poisons it and
// every later Append returns ErrLogFailed. The torn-tail repair is
// only sound because nothing valid can follow a torn frame — a log
// that shrugged off a failed write and kept appending (the file is
// O_APPEND, so later writes would land after the torn bytes) would
// have the next boot truncate away frames that were fsynced and
// acknowledged AFTER the error. Likewise a failed fsync may already
// have lost its dirty pages (the kernel marks them clean regardless),
// so retrying it cannot restore the contract. Recovery from poison is
// a restart: the next Open repairs the tail and the acknowledged
// prefix replays intact.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tufast/internal/dyngraph"
	"tufast/internal/fsx"
)

// Op is one edge mutation, as streamed through the mutation plane.
type Op = dyngraph.Op

// SyncPolicy selects when appended records are fsynced.
type SyncPolicy int

const (
	// SyncAlways fsyncs inside every Append: when Append returns, the
	// record is durable. The policy the acknowledged-batch contract
	// assumes, and the default.
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs on a timer (Options.SyncInterval): a crash
	// loses at most the trailing interval of acknowledged batches.
	SyncInterval
	// SyncNone never fsyncs explicitly; the OS flushes when it likes.
	SyncNone
)

// String returns the flag spelling of the policy.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNone:
		return "none"
	}
	return fmt.Sprintf("SyncPolicy(%d)", int(p))
}

// ParseSyncPolicy parses the flag spelling ("always", "interval",
// "none").
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always", "":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "none":
		return SyncNone, nil
	}
	return SyncAlways, fmt.Errorf("wal: unknown sync policy %q (want always, interval, or none)", s)
}

// Hooks injects faults into the WAL's file layer. Test-only: crash
// tests use them to produce, through the real append path, exactly the
// on-disk states a SIGKILL leaves behind.
type Hooks struct {
	// TrimAppend, when non-nil, is consulted with every frame about to
	// be written; returning n < len(frame) writes only that prefix (a
	// torn append) and fails the Append with ErrInjectedCrash, after
	// which the log refuses further appends — the process "died".
	TrimAppend func(frame []byte) int
	// SyncErr, when non-nil, runs before every fsync; a non-nil return
	// is reported as the fsync's error and poisons the log like a real
	// one would.
	SyncErr func() error
	// ReadSegment, when non-nil, is told of every segment file read in
	// full: one per segment by Open's scan, and one more by any Replay
	// or Tail that no longer holds the scan's bytes.
	ReadSegment func(path string)
}

// ErrInjectedCrash is returned by Append when Hooks.TrimAppend
// simulated a mid-write crash.
var ErrInjectedCrash = errors.New("wal: injected crash during append")

// ErrLogFailed is returned (wrapping the original cause) by every
// operation on a log that fail-stopped; see Poison.
var ErrLogFailed = errors.New("wal: log failed")

// Options tunes a Log. Zero values take the documented defaults.
type Options struct {
	// Sync is the fsync policy (default SyncAlways).
	Sync SyncPolicy
	// SyncInterval is the SyncInterval timer period (default 50ms).
	SyncInterval time.Duration
	// SegmentBytes rotates to a fresh segment once the active one
	// exceeds this size (default 64 MiB).
	SegmentBytes int64
	// Hooks injects faults for crash tests; nil in production.
	Hooks *Hooks
}

func (o Options) withDefaults() Options {
	if o.SyncInterval <= 0 {
		o.SyncInterval = 50 * time.Millisecond
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 64 << 20
	}
	return o
}

const (
	segMagic   = uint64(0x314c4157_46555431) // "1TUF" | "WAL1"
	headerSize = 16                          // magic + reserved word
	frameHead  = 8                           // payload len + crc32c
	opBytes    = 20                          // time(8) u(4) v(4) flags(4)
	recHead    = 12                          // epoch(8) + nops(4)
	flagDel    = uint32(1)

	// maxPayload rejects insane length fields during scan so a torn
	// length word cannot make the reader allocate gigabytes. Generous:
	// ~3.3M ops per record, far above any MaxBatch.
	maxPayload = 64 << 20
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// segment is one on-disk log file.
type segment struct {
	seq        uint64
	path       string
	size       int64  // valid bytes (post-repair)
	records    int    // valid records
	ops        int    // ops of the valid records
	firstEpoch uint64 // epoch of the first record (0 when records == 0)
	lastEpoch  uint64 // epoch of the last record (0 when records == 0)
}

// Stats are the log's cumulative counters since Open.
type Stats struct {
	// Appends / AppendedOps count successful Append calls and the ops
	// they carried.
	Appends     uint64
	AppendedOps uint64
	// Fsyncs counts fdatasync/fsync calls on segment files.
	Fsyncs uint64
	// Rotations counts segment rollovers.
	Rotations uint64
	// TruncatedSegments counts segments removed by TruncateBelow.
	TruncatedSegments uint64
}

// ScanResult describes what Open found (and repaired) on disk.
type ScanResult struct {
	// Batches / Ops count the valid records surviving repair.
	Batches, Ops int
	// FirstEpoch / LastEpoch bound the surviving records' epochs
	// (both 0 when the log is empty).
	FirstEpoch, LastEpoch uint64
	// TornTail is true when a bad frame was found and the log was
	// truncated at it.
	TornTail bool
	// DroppedSegments counts whole segments discarded because they
	// followed a torn frame.
	DroppedSegments int
}

// Log is an append-only segmented write-ahead log. One writer
// (Append/Rotate/TruncateBelow are serialized internally); Tail and
// Replay may run beside it and read the records appended before they
// were called.
type Log struct {
	dir string
	opt Options

	mu     sync.Mutex
	f      *os.File // active segment, open for append
	active segment
	sealed []segment // older segments, oldest first
	// scanned holds, by segment sequence number, the valid bytes Open's
	// scan read and checked, so recovery's Tail decodes them instead of
	// reading and walking every file a second time. The first Tail or
	// Replay takes them and the first Append drops them (they no longer
	// are the whole file). What they cost in between is bounded by what
	// recovery is about to build: a logged op is 20 bytes here and more
	// than that in the graph it is folded into.
	scanned map[uint64][]byte
	dirty   bool   // bytes appended since the last fsync
	buf     []byte // frame scratch, reused across Appends (under mu)
	last    uint64 // epoch of the last record scanned or appended

	// failErr is non-nil once the log fail-stopped (see Poison): set
	// once, under mu, and read without it, so the serving layer can ask
	// per request without queueing behind an fsync.
	failErr atomic.Pointer[error]

	appends     atomic.Uint64
	appendedOps atomic.Uint64
	fsyncs      atomic.Uint64
	rotations   atomic.Uint64
	truncated   atomic.Uint64

	syncStop chan struct{} // closes to stop the interval-sync goroutine
	syncDone chan struct{}
}

// Open opens (creating if needed) the log directory, repairs any torn
// tail, and readies the log for Append. The returned
// ScanResult reports the surviving records and whatever repair was
// done.
func Open(dir string, opt Options) (*Log, ScanResult, error) {
	opt = opt.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, ScanResult{}, err
	}
	l := &Log{dir: dir, opt: opt, scanned: make(map[uint64][]byte)}
	res, err := l.scanAndRepair()
	if err != nil {
		return nil, res, err
	}
	l.last = res.LastEpoch
	if err := l.openActive(); err != nil {
		return nil, res, err
	}
	if opt.Sync == SyncInterval {
		l.syncStop = make(chan struct{})
		l.syncDone = make(chan struct{})
		go l.syncLoop()
	}
	return l, res, nil
}

// scanAndRepair walks the segments in sequence order, validating every
// frame. The first bad frame truncates its segment there and drops all
// later segments; an unreadable header truncates the segment to empty.
func (l *Log) scanAndRepair() (ScanResult, error) {
	var res ScanResult
	ents, err := os.ReadDir(l.dir)
	if err != nil {
		return res, err
	}
	var segs []segment
	for _, e := range ents {
		var seq uint64
		if _, err := fmt.Sscanf(e.Name(), "wal-%016x.seg", &seq); err != nil {
			continue
		}
		segs = append(segs, segment{seq: seq, path: filepath.Join(l.dir, e.Name())})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].seq < segs[j].seq })
	torn := false
	for i := range segs {
		s := &segs[i]
		if torn {
			// Records after a torn frame are unreachable in commit
			// order; keeping them would replay a gap. Drop the segment.
			if err := fsx.RemoveDurable(s.path); err != nil {
				return res, err
			}
			res.DroppedSegments++
			continue
		}
		raw, err := l.readSegment(s.path)
		if err != nil {
			return res, err
		}
		segTorn := scanSegment(s, raw, func(epoch uint64, nops int) {
			if res.Batches == 0 {
				res.FirstEpoch = epoch
			}
			res.LastEpoch = epoch
			res.Batches++
			res.Ops += nops
		})
		if s.records > 0 {
			l.scanned[s.seq] = raw[:s.size]
		}
		if segTorn {
			torn = true
			res.TornTail = true
			// The repair must be durable before the first new append: a
			// truncate left sitting in the page cache can, after a second
			// crash, resurface the stale torn bytes beneath frames
			// acknowledged since this boot — which the NEXT scan would
			// then truncate away.
			if err := truncateDurable(s.path, s.size); err != nil {
				return res, err
			}
			l.fsyncs.Add(1)
		}
		l.sealed = append(l.sealed, *s)
	}
	return res, nil
}

// truncateDurable truncates path to size and fsyncs it (truncation is
// inode metadata plus data-page drops, so the file fsync alone makes
// it durable — no directory entry changes).
func truncateDurable(path string, size int64) error {
	f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := f.Truncate(size); err != nil {
		return err
	}
	return f.Sync()
}

// readSegment reads one segment file in full.
func (l *Log) readSegment(path string) ([]byte, error) {
	if h := l.opt.Hooks; h != nil && h.ReadSegment != nil {
		h.ReadSegment(path)
	}
	return os.ReadFile(path)
}

// scanSegment validates the frames of s in raw, the file's bytes,
// filling size/records/ops/firstEpoch/lastEpoch with the valid prefix.
// Returns whether a bad frame (or header) was found. onRecord fires per
// valid record in order.
func scanSegment(s *segment, raw []byte, onRecord func(epoch uint64, nops int)) bool {
	if len(raw) < headerSize || binary.LittleEndian.Uint64(raw[0:8]) != segMagic {
		// Torn before the header finished (or foreign bytes): keep the
		// file but treat it as empty; openActive rewrites the header.
		s.size = 0
		return true
	}
	off := int64(headerSize)
	for {
		rest := raw[off:]
		if len(rest) == 0 {
			return false // clean end
		}
		if len(rest) < frameHead {
			return true // torn frame head
		}
		plen := binary.LittleEndian.Uint32(rest[0:4])
		sum := binary.LittleEndian.Uint32(rest[4:8])
		if plen < recHead || plen > maxPayload || int(plen)%opBytes != recHead%opBytes {
			return true // insane length word
		}
		if len(rest) < frameHead+int(plen) {
			return true // torn payload
		}
		payload := rest[frameHead : frameHead+int(plen)]
		if crc32.Checksum(payload, crcTable) != sum {
			return true // corrupt payload
		}
		epoch := binary.LittleEndian.Uint64(payload[0:8])
		nops := int(binary.LittleEndian.Uint32(payload[8:12]))
		if recHead+nops*opBytes != int(plen) {
			return true // op count disagrees with length
		}
		off += int64(frameHead + int(plen))
		s.size = off
		if s.records == 0 {
			s.firstEpoch = epoch
		}
		s.records++
		s.ops += nops
		s.lastEpoch = epoch
		onRecord(epoch, nops)
	}
}

// openActive opens the last surviving segment for append (creating
// segment 1 on a fresh log, or rewriting the header of a
// truncated-to-empty one).
func (l *Log) openActive() error {
	if len(l.sealed) == 0 {
		return l.createSegment(1)
	}
	s := l.sealed[len(l.sealed)-1]
	l.sealed = l.sealed[:len(l.sealed)-1]
	if s.size == 0 {
		// Header was torn: rewrite the file from scratch.
		if err := fsx.RemoveDurable(s.path); err != nil {
			return err
		}
		return l.createSegment(s.seq)
	}
	f, err := os.OpenFile(s.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	l.f, l.active = f, s
	return nil
}

// createSegment creates and headers a fresh segment with the given
// sequence number and makes it active.
func (l *Log) createSegment(seq uint64) error {
	path := filepath.Join(l.dir, fmt.Sprintf("wal-%016x.seg", seq))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	var hdr [headerSize]byte
	binary.LittleEndian.PutUint64(hdr[0:8], segMagic)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	l.fsyncs.Add(1)
	if err := fsx.SyncDir(l.dir); err != nil {
		f.Close()
		return err
	}
	l.f = f
	l.active = segment{seq: seq, path: path, size: headerSize}
	return nil
}

// encodeRecord frames one batch record into buf (reused across calls).
func encodeRecord(buf []byte, epoch uint64, ops []Op) []byte {
	plen := recHead + len(ops)*opBytes
	need := frameHead + plen
	if cap(buf) < need {
		buf = make([]byte, need)
	}
	buf = buf[:need]
	payload := buf[frameHead:]
	binary.LittleEndian.PutUint64(payload[0:8], epoch)
	binary.LittleEndian.PutUint32(payload[8:12], uint32(len(ops)))
	off := recHead
	for _, op := range ops {
		binary.LittleEndian.PutUint64(payload[off:], op.Time)
		binary.LittleEndian.PutUint32(payload[off+8:], op.U)
		binary.LittleEndian.PutUint32(payload[off+12:], op.V)
		var flags uint32
		if op.Del {
			flags = flagDel
		}
		binary.LittleEndian.PutUint32(payload[off+16:], flags)
		off += opBytes
	}
	binary.LittleEndian.PutUint32(buf[0:4], uint32(plen))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.Checksum(payload, crcTable))
	return buf
}

// Append logs one committed batch: the epoch its bump published and
// the ops it carried (in applied order). Under SyncAlways the record
// is durable when Append returns; the caller acknowledges the batch
// only after that. Epochs must be appended in nondecreasing order —
// the serving layer's single-writer mutation bracket provides that.
func (l *Log) Append(epoch uint64, ops []Op) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.Err() != nil {
		return l.failedLocked()
	}
	if l.f == nil {
		return errors.New("wal: log closed")
	}
	l.scanned = nil
	l.buf = encodeRecord(l.buf, epoch, ops)
	frame := l.buf
	if l.active.size+int64(len(frame)) > l.opt.SegmentBytes && l.active.records > 0 {
		if err := l.rotateLocked(); err != nil {
			return err
		}
	}
	n := len(frame)
	if h := l.opt.Hooks; h != nil && h.TrimAppend != nil {
		n = h.TrimAppend(frame)
	}
	if _, err := l.f.Write(frame[:n]); err != nil {
		// A failed write (ENOSPC, EIO) may have landed a prefix of the
		// frame; O_APPEND would put the next frame after those torn
		// bytes, and the next boot's repair would then discard it —
		// acknowledged or not. Fail-stop instead (see package doc).
		l.poisonLocked(fmt.Errorf("wal: append: %w", err))
		return l.failedLocked()
	}
	if n < len(frame) {
		// Injected mid-write crash: the torn frame is on disk, the
		// process is "dead" — no record bookkeeping, no acknowledgment.
		l.poisonLocked(ErrInjectedCrash)
		return ErrInjectedCrash
	}
	l.active.size += int64(len(frame))
	if l.active.records == 0 {
		l.active.firstEpoch = epoch
	}
	l.active.records++
	l.active.ops += len(ops)
	l.active.lastEpoch = epoch
	l.last = epoch
	l.dirty = true
	if l.opt.Sync == SyncAlways {
		if err := l.syncLocked(); err != nil {
			return err
		}
	}
	l.appends.Add(1)
	l.appendedOps.Add(uint64(len(ops)))
	return nil
}

// Poison fail-stops the log: every later Append, Sync, or rotation
// returns ErrLogFailed wrapping cause. The log poisons itself on any
// write or fsync error of its own; the serving layer calls it when the
// in-memory commit state diverges from anything a record could replay
// (a partially applied batch). The first cause sticks. Recovery is a
// restart — the next Open repairs the tail and replays exactly the
// acknowledged records.
func (l *Log) Poison(cause error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.poisonLocked(cause)
}

// Err returns the cause the log fail-stopped with, or nil while the
// log is healthy.
func (l *Log) Err() error {
	if p := l.failErr.Load(); p != nil {
		return *p
	}
	return nil
}

func (l *Log) poisonLocked(cause error) {
	if l.failErr.Load() == nil {
		l.failErr.Store(&cause)
	}
}

func (l *Log) failedLocked() error {
	return fmt.Errorf("%w: %w; restart to recover", ErrLogFailed, l.Err())
}

// syncLocked fsyncs the active segment; callers hold l.mu.
func (l *Log) syncLocked() error {
	if l.Err() != nil {
		return l.failedLocked()
	}
	if !l.dirty || l.f == nil {
		return nil
	}
	if h := l.opt.Hooks; h != nil && h.SyncErr != nil {
		if err := h.SyncErr(); err != nil {
			l.poisonLocked(fmt.Errorf("wal: fsync: %w", err))
			return l.failedLocked()
		}
	}
	if err := l.f.Sync(); err != nil {
		// The failed fsync may already have dropped the dirty pages
		// (the kernel cleans them whether or not the write-back
		// succeeded), so a retry that "succeeds" proves nothing —
		// the classic fsync-gate trap. Fail-stop.
		l.poisonLocked(fmt.Errorf("wal: fsync: %w", err))
		return l.failedLocked()
	}
	l.fsyncs.Add(1)
	l.dirty = false
	return nil
}

// Sync forces an fsync of any unflushed appends (used by drain, and as
// the interval policy's timer body).
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncLocked()
}

// syncLoop is the SyncInterval flusher.
func (l *Log) syncLoop() {
	defer close(l.syncDone)
	tick := time.NewTicker(l.opt.SyncInterval)
	defer tick.Stop()
	for {
		select {
		case <-l.syncStop:
			return
		case <-tick.C:
			// A failed interval fsync poisons the log (see syncLocked);
			// later ticks then return immediately. The loop keeps
			// running only so Close's handshake stays uniform.
			_ = l.Sync()
		}
	}
}

// rotateLocked seals the active segment and opens the next one;
// callers hold l.mu.
func (l *Log) rotateLocked() error {
	if err := l.syncLocked(); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		return err
	}
	l.sealed = append(l.sealed, l.active)
	seq := l.active.seq + 1
	l.f = nil
	if err := l.createSegment(seq); err != nil {
		return err
	}
	l.rotations.Add(1)
	return nil
}

// TruncateBelow removes segments made fully redundant by a checkpoint
// at epoch: every record in them has epoch ≤ the argument, so replay
// from that checkpoint never needs them. The active segment rotates
// first when it too is fully covered, so a long-quiet log still
// shrinks to one empty segment. Pass the OLDEST retained checkpoint's
// epoch — truncating below the newest would strand older checkpoints
// kept as corruption fallbacks without the tail that follows them.
func (l *Log) TruncateBelow(epoch uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f != nil && l.active.records > 0 && l.active.lastEpoch <= epoch {
		if err := l.rotateLocked(); err != nil {
			return err
		}
	}
	kept := l.sealed[:0]
	for _, s := range l.sealed {
		if s.records > 0 && s.lastEpoch <= epoch {
			if err := fsx.RemoveDurable(s.path); err != nil {
				return err
			}
			l.truncated.Add(1)
			continue
		}
		kept = append(kept, s)
	}
	l.sealed = kept
	return nil
}

// LastEpoch returns the epoch of the last record the log scanned on
// Open or appended since (0 for a log that never held one): a
// checkpoint at or above it has nothing to fold.
func (l *Log) LastEpoch() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.last
}

// Replay streams every record with epoch > after that the log held when
// it was called, in log order, to fn; records appended meanwhile are
// not streamed. fn errors abort the replay. fn must not retain ops past
// its return: one buffer is decoded into again and again.
func (l *Log) Replay(after uint64, fn func(epoch uint64, ops []Op) error) error {
	var buf []Op
	segs, raws := l.snapshot()
	for i, s := range segs {
		if s.records == 0 || s.lastEpoch <= after {
			continue
		}
		raw, err := l.segmentBytes(s, raws[i])
		raws[i] = nil
		if err != nil {
			return err
		}
		err = eachRecord(raw, after, func(epoch uint64, payload []byte) error {
			buf = decodeOps(buf[:0], payload)
			return fn(epoch, buf)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// Record is one logged batch: its epoch and its ops.
type Record struct {
	Epoch uint64
	Ops   []Op
}

// Tail returns every record with epoch > after that the log held when it
// was called, in log order; records appended meanwhile are not returned.
// The records' ops are consecutive windows of ops, which holds them all
// in log order and is allocated once at its final size. Each segment is
// read at most once: from the bytes Open's scan holds, or from its file.
// The size comes from the segments' op counts; a segment the cut falls
// inside (its first record at or below after, its last above) is read
// first and counted from its frame heads, then decoded from the same
// bytes. Epochs never decrease along the log, so a segment that ends at
// or below after holds nothing to walk.
func (l *Log) Tail(after uint64) (ops []Op, recs []Record, err error) {
	segs, raws := l.snapshot()
	total := 0
	for i, s := range segs {
		switch {
		case s.records == 0 || s.lastEpoch <= after:
		case s.firstEpoch > after:
			total += s.ops
		default:
			if raws[i], err = l.segmentBytes(s, raws[i]); err != nil {
				return nil, nil, err
			}
			_ = eachRecord(raws[i], after, func(_ uint64, payload []byte) error {
				total += recordOps(payload)
				return nil
			})
		}
	}
	ops = make([]Op, 0, total)
	for i, s := range segs {
		if s.records == 0 || s.lastEpoch <= after {
			continue
		}
		raw, err := l.segmentBytes(s, raws[i])
		raws[i] = nil
		if err != nil {
			return nil, nil, err
		}
		_ = eachRecord(raw, after, func(epoch uint64, payload []byte) error {
			lo := len(ops)
			ops = decodeOps(ops, payload)
			recs = append(recs, Record{Epoch: epoch, Ops: ops[lo:len(ops):len(ops)]})
			return nil
		})
	}
	return ops, recs, nil
}

// snapshot returns the segments and their sizes as they are now, with
// the bytes Open's scan holds of each (nil where it holds none), and
// hands those bytes over to the caller: the first reader after Open
// walks them, every later one reads the files. A size only ever covers
// whole records, so a snapshot reads beside Append.
func (l *Log) snapshot() ([]segment, [][]byte) {
	l.mu.Lock()
	defer l.mu.Unlock()
	segs := append(append([]segment(nil), l.sealed...), l.active)
	raws := make([][]byte, len(segs))
	for i, s := range segs {
		raws[i] = l.scanned[s.seq]
	}
	l.scanned = nil
	return segs, raws
}

// decodeOps appends the ops of a record's payload to buf.
func decodeOps(buf []Op, payload []byte) []Op {
	for p := recHead; p < recHead+recordOps(payload)*opBytes; p += opBytes {
		buf = append(buf, Op{
			Time: binary.LittleEndian.Uint64(payload[p:]),
			U:    binary.LittleEndian.Uint32(payload[p+8:]),
			V:    binary.LittleEndian.Uint32(payload[p+12:]),
			Del:  binary.LittleEndian.Uint32(payload[p+16:])&flagDel != 0,
		})
	}
	return buf
}

// recordOps is the op count in a record's payload.
func recordOps(payload []byte) int { return int(binary.LittleEndian.Uint32(payload[8:12])) }

// segmentBytes is s's valid bytes: raw, what Open's scan kept of them,
// or the file read again when the scan kept nothing.
func (l *Log) segmentBytes(s segment, raw []byte) ([]byte, error) {
	if raw != nil {
		return raw, nil
	}
	raw, err := l.readSegment(s.path)
	if err != nil {
		return nil, err
	}
	if int64(len(raw)) < s.size {
		return nil, fmt.Errorf("wal: %s shrank under us", s.path)
	}
	return raw[:s.size], nil
}

// eachRecord calls fn(epoch, payload) for every frame of raw, a
// segment's valid bytes, whose epoch is above after, in order, and stops
// at fn's first error. The frames were validated when raw was scanned.
func eachRecord(raw []byte, after uint64, fn func(epoch uint64, payload []byte) error) error {
	for off := headerSize; off < len(raw); {
		plen := int(binary.LittleEndian.Uint32(raw[off : off+4]))
		payload := raw[off+frameHead : off+frameHead+plen]
		off += frameHead + plen
		if epoch := binary.LittleEndian.Uint64(payload[0:8]); epoch > after {
			if err := fn(epoch, payload); err != nil {
				return err
			}
		}
	}
	return nil
}

// Stats returns the cumulative counters.
func (l *Log) Stats() Stats {
	return Stats{
		Appends:           l.appends.Load(),
		AppendedOps:       l.appendedOps.Load(),
		Fsyncs:            l.fsyncs.Load(),
		Rotations:         l.rotations.Load(),
		TruncatedSegments: l.truncated.Load(),
	}
}

// Close flushes and closes the log. Idempotent.
func (l *Log) Close() error {
	if l.syncStop != nil {
		select {
		case <-l.syncStop:
		default:
			close(l.syncStop)
			<-l.syncDone
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.syncLocked()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	return err
}
