package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

func mkOps(base uint64, n int) []Op {
	ops := make([]Op, n)
	for i := range ops {
		ops[i] = Op{Time: base + uint64(i), U: uint32(i), V: uint32(i + 1), Del: i%3 == 0}
	}
	return ops
}

// collect replays everything after `after` into a flat record list.
func collect(t *testing.T, l *Log, after uint64) (epochs []uint64, ops [][]Op) {
	t.Helper()
	err := l.Replay(after, func(epoch uint64, batch []Op) error {
		epochs = append(epochs, epoch)
		ops = append(ops, append([]Op(nil), batch...))
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, res, err := Open(dir, Options{Sync: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	if res.Batches != 0 || res.TornTail {
		t.Fatalf("fresh log scan: %+v", res)
	}
	want := [][]Op{mkOps(1, 3), mkOps(10, 1), mkOps(20, 7), nil}
	for i, ops := range want {
		if err := l.Append(uint64(i+1), ops); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, res2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if res2.Batches != 4 || res2.Ops != 11 || res2.TornTail {
		t.Fatalf("reopen scan: %+v", res2)
	}
	if res2.FirstEpoch != 1 || res2.LastEpoch != 4 {
		t.Fatalf("epoch bounds: %+v", res2)
	}
	epochs, got := collect(t, l2, 0)
	if len(epochs) != 4 {
		t.Fatalf("replayed %d records, want 4", len(epochs))
	}
	for i, ops := range got {
		if epochs[i] != uint64(i+1) {
			t.Fatalf("record %d epoch %d", i, epochs[i])
		}
		if len(ops) != len(want[i]) {
			t.Fatalf("record %d: %d ops, want %d", i, len(ops), len(want[i]))
		}
		for j, op := range ops {
			if op != want[i][j] {
				t.Fatalf("record %d op %d: %+v != %+v", i, j, op, want[i][j])
			}
		}
	}
	// Replay-after skips covered epochs.
	epochs, _ = collect(t, l2, 2)
	if len(epochs) != 2 || epochs[0] != 3 {
		t.Fatalf("replay after 2: %v", epochs)
	}
}

func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for e := uint64(1); e <= 3; e++ {
		if err := l.Append(e, mkOps(e*10, 2)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	// Simulate a kill mid-append: garbage partial frame at the tail.
	seg := filepath.Join(dir, "wal-0000000000000001.seg")
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x2c, 0x00, 0x00, 0x00, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l2, res, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open with torn tail: %v", err)
	}
	if !res.TornTail || res.Batches != 3 || res.LastEpoch != 3 {
		t.Fatalf("scan: %+v", res)
	}
	// The repaired log must accept new appends and replay cleanly.
	if err := l2.Append(4, mkOps(40, 1)); err != nil {
		t.Fatal(err)
	}
	l2.Close()
	l3, res3, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l3.Close()
	if res3.TornTail || res3.Batches != 4 || res3.LastEpoch != 4 {
		t.Fatalf("post-repair scan: %+v", res3)
	}
}

func TestCorruptMidFrameDropsSuffixAndLaterSegments(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{SegmentBytes: 200}) // force rotation
	if err != nil {
		t.Fatal(err)
	}
	for e := uint64(1); e <= 10; e++ {
		if err := l.Append(e, mkOps(e*10, 3)); err != nil {
			t.Fatal(err)
		}
	}
	if l.Stats().Rotations == 0 {
		t.Fatal("expected rotations with a 200-byte segment cap")
	}
	l.Close()

	// Corrupt a payload byte inside the FIRST segment: everything from
	// that frame on — including all later segments — must be dropped.
	seg1 := filepath.Join(dir, "wal-0000000000000001.seg")
	raw, err := os.ReadFile(seg1)
	if err != nil {
		t.Fatal(err)
	}
	raw[headerSize+frameHead+4] ^= 0xff // inside first record's payload
	if err := os.WriteFile(seg1, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, res, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer l2.Close()
	if !res.TornTail || res.Batches != 0 || res.DroppedSegments == 0 {
		t.Fatalf("scan: %+v", res)
	}
	epochs, _ := collect(t, l2, 0)
	if len(epochs) != 0 {
		t.Fatalf("replayed %v from a fully corrupt log", epochs)
	}
}

func TestRotationAndTruncateBelow(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for e := uint64(1); e <= 20; e++ {
		if err := l.Append(e, mkOps(e, 4)); err != nil {
			t.Fatal(err)
		}
	}
	before, _ := os.ReadDir(dir)
	if len(before) < 3 {
		t.Fatalf("expected several segments, got %d", len(before))
	}
	if err := l.TruncateBelow(15); err != nil {
		t.Fatal(err)
	}
	after, _ := os.ReadDir(dir)
	if len(after) >= len(before) {
		t.Fatalf("truncate removed nothing: %d -> %d segments", len(before), len(after))
	}
	// Epochs 16..20 must survive; nothing above 15 may be lost.
	epochs, _ := collect(t, l, 15)
	if len(epochs) != 5 || epochs[0] != 16 || epochs[4] != 20 {
		t.Fatalf("replay after truncate: %v", epochs)
	}
	// Truncating everything rotates the active segment away too.
	if err := l.TruncateBelow(20); err != nil {
		t.Fatal(err)
	}
	epochs, _ = collect(t, l, 0)
	if len(epochs) != 0 {
		t.Fatalf("records survived full truncate: %v", epochs)
	}
	// And the log still accepts appends afterwards.
	if err := l.Append(21, mkOps(1, 1)); err != nil {
		t.Fatal(err)
	}
}

func TestSyncPolicies(t *testing.T) {
	t.Run("always", func(t *testing.T) {
		l, _, err := Open(t.TempDir(), Options{Sync: SyncAlways})
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		base := l.Stats().Fsyncs
		for e := uint64(1); e <= 5; e++ {
			if err := l.Append(e, mkOps(e, 1)); err != nil {
				t.Fatal(err)
			}
		}
		if got := l.Stats().Fsyncs - base; got != 5 {
			t.Fatalf("SyncAlways: %d fsyncs for 5 appends", got)
		}
	})
	t.Run("interval", func(t *testing.T) {
		l, _, err := Open(t.TempDir(), Options{Sync: SyncInterval, SyncInterval: 5 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		base := l.Stats().Fsyncs
		if err := l.Append(1, mkOps(1, 1)); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(2 * time.Second)
		for l.Stats().Fsyncs == base {
			if time.Now().After(deadline) {
				t.Fatal("interval sync never fired")
			}
			time.Sleep(time.Millisecond)
		}
	})
	t.Run("none", func(t *testing.T) {
		l, _, err := Open(t.TempDir(), Options{Sync: SyncNone})
		if err != nil {
			t.Fatal(err)
		}
		base := l.Stats().Fsyncs
		for e := uint64(1); e <= 5; e++ {
			if err := l.Append(e, mkOps(e, 1)); err != nil {
				t.Fatal(err)
			}
		}
		if got := l.Stats().Fsyncs - base; got != 0 {
			t.Fatalf("SyncNone: %d fsyncs before close", got)
		}
		l.Close() // close still flushes
	})
}

func TestInjectedCrashTornAppend(t *testing.T) {
	dir := t.TempDir()
	crashAt := 3 // batches to accept before tearing the 4th
	var seen int
	hooks := &Hooks{TrimAppend: func(frame []byte) int {
		seen++
		if seen > crashAt {
			return len(frame) / 2 // tear the frame mid-payload
		}
		return len(frame)
	}}
	l, _, err := Open(dir, Options{Hooks: hooks})
	if err != nil {
		t.Fatal(err)
	}
	var lastAcked uint64
	for e := uint64(1); ; e++ {
		err := l.Append(e, mkOps(e, 2))
		if errors.Is(err, ErrInjectedCrash) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		lastAcked = e
	}
	if lastAcked != 3 {
		t.Fatalf("acked %d batches before crash, want 3", lastAcked)
	}
	// The "dead" log refuses further work.
	if err := l.Append(99, nil); err == nil {
		t.Fatal("append succeeded after simulated crash")
	}
	l.Close()

	// Reboot: exactly the acknowledged batches survive.
	l2, res, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if !res.TornTail {
		t.Fatal("torn tail not detected")
	}
	if res.Batches != int(lastAcked) || res.LastEpoch != lastAcked {
		t.Fatalf("scan after crash: %+v, want %d batches", res, lastAcked)
	}
}

// A failed segment write must fail-stop the log: the tail may hold
// torn bytes, and any append accepted after them would be silently
// truncated away by the next boot's repair — after being acknowledged.
func TestWriteErrorFailStops(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{Sync: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	for e := uint64(1); e <= 2; e++ {
		if err := l.Append(e, mkOps(e*10, 2)); err != nil {
			t.Fatal(err)
		}
	}
	// White-box: yank the fd so the next Write fails like EIO would.
	l.f.Close()
	if err := l.Append(3, mkOps(30, 1)); !errors.Is(err, ErrLogFailed) {
		t.Fatalf("append on broken file: %v, want ErrLogFailed", err)
	}
	if l.Err() == nil {
		t.Fatal("Err() nil after a failed write")
	}
	// The poison sticks even though the fd trouble "cleared": a torn
	// tail might be on disk, so nothing may be appended over it.
	if err := l.Append(4, mkOps(40, 1)); !errors.Is(err, ErrLogFailed) {
		t.Fatalf("append after fail-stop: %v, want ErrLogFailed", err)
	}
	l.Close()

	// Reboot recovers: the acknowledged batches, and only those.
	l2, res, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if res.Batches != 2 || res.LastEpoch != 2 {
		t.Fatalf("scan after fail-stop: %+v", res)
	}
	if err := l2.Append(3, mkOps(30, 1)); err != nil {
		t.Fatalf("append after recovery: %v", err)
	}
}

// A failed fsync under SyncAlways must fail-stop too: the kernel may
// have discarded the dirty pages, so bookkeeping that already advanced
// cannot be trusted and no later append may be acknowledged.
func TestSyncErrorFailStops(t *testing.T) {
	dir := t.TempDir()
	failing := false
	hooks := &Hooks{SyncErr: func() error {
		if failing {
			return errors.New("injected fsync error")
		}
		return nil
	}}
	l, _, err := Open(dir, Options{Sync: SyncAlways, Hooks: hooks})
	if err != nil {
		t.Fatal(err)
	}
	for e := uint64(1); e <= 2; e++ {
		if err := l.Append(e, mkOps(e*10, 2)); err != nil {
			t.Fatal(err)
		}
	}
	failing = true
	if err := l.Append(3, mkOps(30, 1)); !errors.Is(err, ErrLogFailed) {
		t.Fatalf("append with failing fsync: %v, want ErrLogFailed", err)
	}
	failing = false // "disk recovered" — too late, the pages may be gone
	if err := l.Append(4, mkOps(40, 1)); !errors.Is(err, ErrLogFailed) {
		t.Fatalf("append after fsync fail-stop: %v, want ErrLogFailed", err)
	}
	if err := l.Sync(); !errors.Is(err, ErrLogFailed) {
		t.Fatalf("sync after fail-stop: %v, want ErrLogFailed", err)
	}
	l.Close()

	// Reboot: both acknowledged batches survive. Batch 3's frame was
	// written before its fsync failed, so it may legitimately survive
	// too (it was never acknowledged — indeterminate is allowed);
	// batch 4 must not exist.
	l2, res, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	epochs, _ := collect(t, l2, 0)
	if len(epochs) < 2 || epochs[0] != 1 || epochs[1] != 2 {
		t.Fatalf("acknowledged epochs lost: %v", epochs)
	}
	if res.LastEpoch > 3 {
		t.Fatalf("unacknowledged epoch survived: %+v", res)
	}
}

// Poison is the serving layer's fail-stop entry point (used when a
// partially applied batch makes memory unrepresentable in the log).
func TestPoisonRefusesAppends(t *testing.T) {
	l, _, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append(1, mkOps(1, 1)); err != nil {
		t.Fatal(err)
	}
	cause := errors.New("partially applied batch")
	l.Poison(cause)
	if err := l.Append(2, mkOps(2, 1)); !errors.Is(err, ErrLogFailed) || !errors.Is(err, cause) {
		t.Fatalf("append after Poison: %v", err)
	}
	if !errors.Is(l.Err(), cause) {
		t.Fatalf("Err() = %v, want the first cause", l.Err())
	}
	l.Poison(errors.New("second cause"))
	if !errors.Is(l.Err(), cause) {
		t.Fatal("second Poison overwrote the first cause")
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want SyncPolicy
		err  bool
	}{
		{"always", SyncAlways, false},
		{"", SyncAlways, false},
		{"interval", SyncInterval, false},
		{"none", SyncNone, false},
		{"fsync-maybe", SyncAlways, true},
	} {
		got, err := ParseSyncPolicy(tc.in)
		if (err != nil) != tc.err || got != tc.want {
			t.Fatalf("ParseSyncPolicy(%q) = %v, %v", tc.in, got, err)
		}
	}
	if SyncInterval.String() != "interval" {
		t.Fatal("String round trip")
	}
}

// TestReplayDecodesScannedBytes follows the bytes Open's scan validated:
// the first Replay decodes them without reading a file, a later one
// reads only the segments it needs, and an Append lets them go (a replay
// after it must see the appended record, which they do not hold).
func TestReplayDecodesScannedBytes(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{Sync: SyncNone, SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	for e := uint64(1); e <= 40; e++ {
		if err := l.Append(e, mkOps(e*100, int(e%7)+1)); err != nil {
			t.Fatalf("append %d: %v", e, err)
		}
	}
	wantEpochs, wantOps := collect(t, l, 0)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	reads := make(map[string]int)
	hooks := &Hooks{ReadSegment: func(path string) { reads[path]++ }}
	total := func() (n int) {
		for _, c := range reads {
			n += c
		}
		return n
	}
	l, _, err = Open(dir, Options{Sync: SyncNone, SegmentBytes: 512, Hooks: hooks})
	if err != nil {
		t.Fatal(err)
	}
	segments := len(reads)
	if segments < 3 || total() != segments {
		t.Fatalf("open read %d files %d times, want at least 3 segments once each", segments, total())
	}
	epochs, ops := collect(t, l, 0)
	if !reflect.DeepEqual(epochs, wantEpochs) || !reflect.DeepEqual(ops, wantOps) {
		t.Fatal("replay of the scanned bytes diverges from the log")
	}
	if total() != segments {
		t.Fatalf("first replay read files: %v", reads)
	}

	// The scan's bytes are gone: a second replay reads the files, but
	// only those holding a record above after.
	epochs, _ = collect(t, l, 39)
	if len(epochs) != 1 || epochs[0] != 40 {
		t.Fatalf("replay after 39: %v", epochs)
	}
	if total() != segments+1 {
		t.Fatalf("replay after 39 read %d files, want the last segment alone", total()-segments)
	}

	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen, append before any replay: the replay must not decode the
	// stale scan.
	l, _, err = Open(dir, Options{Sync: SyncNone, SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append(41, mkOps(1, 2)); err != nil {
		t.Fatal(err)
	}
	if epochs, _ = collect(t, l, 0); len(epochs) != 41 || epochs[40] != 41 {
		t.Fatalf("replay after an append: %d records, want 41 ending at epoch 41", len(epochs))
	}
}

// TestOpsAfterCountsTheReplayedTail checks OpsAfter against what Replay
// streams, for every cut of a log spread over several segments, before
// the first replay (from the scanned bytes, reading no file) and after
// it (from the files).
func TestOpsAfterCountsTheReplayedTail(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{Sync: SyncNone, SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	for e := uint64(1); e <= 40; e++ {
		if err := l.Append(e, mkOps(e*100, int(e%7)+1)); err != nil {
			t.Fatalf("append %d: %v", e, err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	reads := 0
	hooks := &Hooks{ReadSegment: func(string) { reads++ }}
	l, scan, err := Open(dir, Options{Sync: SyncNone, SegmentBytes: 512, Hooks: hooks})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	opened := reads
	want := func(after uint64) (n int) {
		for e := after + 1; e <= 40; e++ {
			n += int(e%7) + 1
		}
		return n
	}
	for _, replayed := range []bool{false, true} {
		for after := uint64(0); after <= 41; after++ {
			got, err := l.OpsAfter(after)
			if err != nil || got != want(after) {
				t.Fatalf("replayed=%v: OpsAfter(%d) = %d, %v; want %d", replayed, after, got, err, want(after))
			}
		}
		if !replayed {
			if reads != opened {
				t.Fatalf("OpsAfter read %d files before the replay, want none", reads-opened)
			}
			if all, _ := l.OpsAfter(0); all != scan.Ops {
				t.Fatalf("OpsAfter(0) = %d, the scan found %d", all, scan.Ops)
			}
			_, ops := collect(t, l, 0)
			n := 0
			for _, rec := range ops {
				n += len(rec)
			}
			if n != want(0) {
				t.Fatalf("replay streamed %d ops, want %d", n, want(0))
			}
		}
	}
}

// TestReplayBesideAppend reads the log while another goroutine appends
// and rotates across small segments: each Replay must stream a prefix of
// the records, whole, in epoch order, reaching at least the last epoch
// LastEpoch reported before it began; each OpsAfter must count such a
// prefix.
func TestReplayBesideAppend(t *testing.T) {
	const records = 300
	l, _, err := Open(t.TempDir(), Options{Sync: SyncNone, SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	nops := func(e uint64) int { return int(e%7) + 1 }
	prefix := make(map[int]bool) // op counts of every prefix of the log
	for e, n := uint64(1), 0; e <= records; e++ {
		n += nops(e)
		prefix[n] = true
	}
	done := make(chan error, 1)
	go func() {
		for e := uint64(1); e <= records; e++ {
			if err := l.Append(e, mkOps(e*100, nops(e))); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	partial := 0
	for finished := false; !finished; {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("append: %v", err)
			}
			finished = true
		default:
		}
		last := l.LastEpoch()
		next := uint64(1)
		err := l.Replay(0, func(epoch uint64, ops []Op) error {
			if epoch != next {
				return fmt.Errorf("record at epoch %d, want %d", epoch, next)
			}
			if want := mkOps(epoch*100, nops(epoch)); !reflect.DeepEqual(ops, want) {
				return fmt.Errorf("record at epoch %d is torn: %v, want %v", epoch, ops, want)
			}
			next++
			return nil
		})
		if err != nil {
			t.Fatalf("replay: %v", err)
		}
		if next-1 < records {
			partial++
		}
		if next-1 < last {
			t.Fatalf("replay ended at epoch %d, LastEpoch was %d before it began", next-1, last)
		}
		n, err := l.OpsAfter(0)
		if err != nil || (n != 0 && !prefix[n]) {
			t.Fatalf("OpsAfter(0) = %d, %v: not the op count of a prefix of the log", n, err)
		}
	}
	t.Logf("partial replays: %d", partial)
	if st := l.Stats(); st.Rotations < 10 || l.LastEpoch() != records {
		t.Fatalf("%d rotations, last epoch %d: want ≥ 10 and %d", st.Rotations, l.LastEpoch(), records)
	}
}
