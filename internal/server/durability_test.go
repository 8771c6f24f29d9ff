package server

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tufast"
	"tufast/internal/dyngraph"
	"tufast/internal/graph"
	"tufast/internal/wal"
)

// The crash matrix: every test here produces, through fault-injection
// hooks or direct file surgery, an on-disk state a SIGKILL can leave
// behind — torn WAL tail, orphan checkpoint temp file, corrupt newest
// checkpoint, record durable but unacknowledged — then reboots and
// checks the recovered topology against the ReplayEdges oracle over
// exactly the acknowledged batches, and that epochs stay monotonic
// across the restart.

// durBase is the deterministic day-zero graph every durability test
// boots from.
func durBase() *tufast.Graph {
	return tufast.GenerateUniform(200, 4, 42).Undirect()
}

// startDurableServer boots (or reboots) a durable server over dir. No
// background checkpoints unless the test sets an interval — the matrix
// drives checkpoints explicitly.
func startDurableServer(t *testing.T, dir string, dcfg DurabilityConfig) *Server {
	t.Helper()
	return startDurableServerOn(t, dir, dcfg, durBase(), 4)
}

// startDurableServerOn is startDurableServer over a day-zero graph and a
// System thread count chosen by the caller.
func startDurableServerOn(t *testing.T, dir string, dcfg DurabilityConfig, base *tufast.Graph, threads int) *Server {
	t.Helper()
	dcfg.DataDir = dir
	if dcfg.CheckpointInterval == 0 {
		dcfg.CheckpointInterval = -1
	}
	s, err := OpenDurable(Config{Addr: "127.0.0.1:0"}, dcfg,
		func() (*tufast.Graph, error) { return base, nil },
		func(g *tufast.Graph) *tufast.DynGraph { return durDyn(g, threads) })
	if err != nil {
		t.Fatalf("OpenDurable: %v", err)
	}
	if err := s.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	return s
}

// durDyn builds the runtime and overlay every durable test server runs
// on g.
func durDyn(g *tufast.Graph, threads int) *tufast.DynGraph {
	return tufast.NewDynGraph(tufast.NewSystem(g, tufast.Options{
		Threads:    threads,
		SpaceWords: tufast.DynSpaceWords(g, 200_000),
		HMaxHint:   64,
		OMaxHint:   256,
	}))
}

// shutdownServer is the graceful path (final checkpoint + WAL close).
func shutdownServer(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// crashServer abandons s the way a kill would: no final checkpoint, no
// graceful anything — background goroutines are reaped (the test
// process lives on) and the WAL file handle is closed, but whatever
// the on-disk state is at this instant is what recovery gets.
func crashServer(s *Server) {
	s.cancelJobs()
	s.stop(context.Background(), false)
	_ = s.hsrv.Close()
}

// ackedBatch is one acknowledged (HTTP 200) mutation batch: the epoch
// the ack carried and the ops as sent.
type ackedBatch struct {
	epoch uint64
	ops   []edgeOp
}

// distinctBatch returns size ops touching distinct undirected edges.
// Distinctness within the batch is what makes replay deterministic:
// ops on different edges commute, so any within-window application
// order — original or replayed — yields the same topology and the
// same effectiveness.
func distinctBatch(rng *rand.Rand, n, size int) []edgeOp {
	seen := make(map[uint64]bool, size)
	ops := make([]edgeOp, 0, size)
	for len(ops) < size {
		u, v := uint32(rng.Intn(n)), uint32(rng.Intn(n))
		if u == v {
			continue
		}
		a, b := u, v
		if a > b {
			a, b = b, a
		}
		k := uint64(a)<<32 | uint64(b)
		if seen[k] {
			continue
		}
		seen[k] = true
		ops = append(ops, edgeOp{U: u, V: v, Del: rng.Float64() < 0.25})
	}
	return ops
}

// postBatch sends one mutation batch, returning the HTTP status and
// (on 200) the ack epoch.
func postBatch(t *testing.T, client *http.Client, base string, ops []edgeOp) (int, uint64) {
	t.Helper()
	code, out, _ := postJSON(t, client, base+"/v1/edges", edgeBatch{Ops: ops})
	var epoch uint64
	if e, ok := out["epoch"].(float64); ok {
		epoch = uint64(e)
	}
	return code, epoch
}

// assertRecoveredTopology compares s's live topology against the
// ReplayEdges oracle: base graph + the acknowledged batches' ops in
// commit (epoch) order must equal the recovered graph byte for byte.
func assertRecoveredTopology(t *testing.T, s *Server, acked []ackedBatch) {
	t.Helper()
	sort.Slice(acked, func(i, j int) bool { return acked[i].epoch < acked[j].epoch })
	base := durBase()
	st := &dyngraph.Stream{N: base.NumVertices(), Undirected: true}
	for u := uint32(0); int(u) < base.NumVertices(); u++ {
		for _, v := range base.Neighbors(u) {
			if v >= u {
				st.Base = append(st.Base, graph.Edge{U: u, V: v})
			}
		}
	}
	tick := uint64(1)
	for _, b := range acked {
		for _, op := range b.ops {
			st.Ops = append(st.Ops, dyngraph.Op{Time: tick, U: op.U, V: op.V, Del: op.Del})
			tick++
		}
	}
	want, err := graph.Build(st.N, st.ReplayEdges(), graph.BuildOptions{Symmetrize: true})
	if err != nil {
		t.Fatalf("oracle build: %v", err)
	}
	view := s.def.dyn.View()
	defer view.Close()
	got, err := view.Compact()
	if err != nil {
		t.Fatalf("compact recovered graph: %v", err)
	}
	if got.NumVertices() != want.NumVertices() {
		t.Fatalf("vertices: got %d want %d", got.NumVertices(), want.NumVertices())
	}
	for u := uint32(0); int(u) < want.NumVertices(); u++ {
		g, w := got.Neighbors(u), want.Neighbors(u)
		if len(g) != len(w) {
			t.Fatalf("vertex %d: degree %d, oracle %d", u, len(g), len(w))
		}
		for i := range g {
			if g[i] != w[i] {
				t.Fatalf("vertex %d neighbor %d: got %d, oracle %d", u, i, g[i], w[i])
			}
		}
	}
}

// TestCrashRecoveryTornTailMidAppend kills the daemon mid-WAL-append
// (via the fault-injection hook, so the torn frame goes through the
// real write path), then reboots: every acknowledged batch must
// survive, the torn batch must not, and the epoch counter must resume
// exactly after the last acknowledged epoch.
func TestCrashRecoveryTornTailMidAppend(t *testing.T) {
	dir := t.TempDir()
	const crashAfter = 8
	var frames int
	hooks := &wal.Hooks{TrimAppend: func(frame []byte) int {
		frames++
		if frames > crashAfter {
			return len(frame) / 2
		}
		return len(frame)
	}}
	s := startDurableServer(t, dir, DurabilityConfig{Sync: wal.SyncAlways, walHooks: hooks})
	client := &http.Client{}
	base := "http://" + s.Addr()
	rng := rand.New(rand.NewSource(7))

	var acked []ackedBatch
	sawCrash := false
	for i := 0; i < crashAfter+3; i++ {
		ops := distinctBatch(rng, 200, 24)
		code, epoch := postBatch(t, client, base, ops)
		switch code {
		case http.StatusOK:
			if sawCrash {
				t.Fatal("batch acknowledged after the log died")
			}
			acked = append(acked, ackedBatch{epoch: epoch, ops: ops})
		case http.StatusInternalServerError:
			sawCrash = true
		case http.StatusServiceUnavailable:
			// Batches after the torn one are refused before they apply.
			if !sawCrash {
				t.Fatalf("batch %d refused before the log died", i)
			}
		default:
			t.Fatalf("batch %d: status %d", i, code)
		}
	}
	if !sawCrash || len(acked) != crashAfter {
		t.Fatalf("acked %d batches, sawCrash=%v (want %d, true)", len(acked), sawCrash, crashAfter)
	}
	lastAcked := acked[len(acked)-1].epoch
	crashServer(s)

	s2 := startDurableServer(t, dir, DurabilityConfig{Sync: wal.SyncAlways})
	t.Cleanup(func() { shutdownServer(t, s2) })
	rec := s2.Recovery()
	if !rec.TornTail {
		t.Fatal("recovery did not report the torn tail")
	}
	if rec.ReplayedBatches != uint64(len(acked)) {
		t.Fatalf("replayed %d batches, want %d", rec.ReplayedBatches, len(acked))
	}
	assertRecoveredTopology(t, s2, acked)

	// Epochs must be monotonic across the restart: the next effective
	// batch commits exactly one past the last acknowledged epoch.
	code, epoch := postBatch(t, client, "http://"+s2.Addr(), distinctBatch(rng, 200, 8))
	if code != http.StatusOK || epoch != lastAcked+1 {
		t.Fatalf("post-reboot batch: status %d epoch %d, want 200 epoch %d", code, epoch, lastAcked+1)
	}

	// The health document must expose the recovery.
	hcode, health := getJSON(t, client, "http://"+s2.Addr()+"/v1/health")
	if hcode != http.StatusOK {
		t.Fatalf("/v1/health: %d", hcode)
	}
	dur, _ := health["durability"].(map[string]any)
	if dur == nil || dur["enabled"] != true || dur["recovered"] != true {
		t.Fatalf("/v1/health durability section: %v", health["durability"])
	}
	if rb, _ := dur["replayed_batches"].(float64); int(rb) != len(acked) {
		t.Fatalf("/v1/health replayed_batches %v, want %d", dur["replayed_batches"], len(acked))
	}
}

// frozenState is what a poisoned graph must hold still: the epoch, the
// pinned view's arc count and a hash of the compacted topology.
func frozenState(t *testing.T, g *graphInstance) (epoch uint64, arcs int, topo uint32) {
	t.Helper()
	view := g.dyn.View()
	defer view.Close()
	csr, err := view.Compact()
	if err != nil {
		t.Fatalf("compact: %v", err)
	}
	h := crc32.NewIEEE()
	for u := uint32(0); int(u) < csr.NumVertices(); u++ {
		_ = binary.Write(h, binary.LittleEndian, uint32(csr.Degree(u)))
		_ = binary.Write(h, binary.LittleEndian, csr.Neighbors(u))
	}
	return view.Epoch(), view.Arcs(), h.Sum32()
}

// TestCrashRecoveryPoisonedLogFreezesGraph: once the log has
// fail-stopped — here through a failed interval fsync, the way a dying
// disk does it — every later batch must be refused with 503 before it
// applies: the epoch, the arc count and the compacted topology stay
// exactly where the poison found them, standing bookkeeping sees
// nothing, and a reboot recovers the acknowledged batches and accepts
// writes again.
func TestCrashRecoveryPoisonedLogFreezesGraph(t *testing.T) {
	dir := t.TempDir()
	var failSync atomic.Bool
	hooks := &wal.Hooks{SyncErr: func() error {
		if failSync.Load() {
			return errors.New("injected EIO")
		}
		return nil
	}}
	s := startDurableServer(t, dir, DurabilityConfig{Sync: wal.SyncAlways, walHooks: hooks})
	client := &http.Client{}
	base := "http://" + s.Addr()
	rng := rand.New(rand.NewSource(11))

	var acked []ackedBatch
	for i := 0; i < 6; i++ {
		ops := distinctBatch(rng, 200, 24)
		code, epoch := postBatch(t, client, base, ops)
		if code != http.StatusOK {
			t.Fatalf("batch %d: status %d", i, code)
		}
		acked = append(acked, ackedBatch{epoch: epoch, ops: ops})
	}
	// The batch whose fsync fails has already committed in memory when
	// the log dies under it (that much is inherent: apply precedes
	// append); it is answered 500 and is the last thing memory takes.
	failSync.Store(true)
	unacked := distinctBatch(rng, 200, 24)
	if code, _ := postBatch(t, client, base, unacked); code != http.StatusInternalServerError {
		t.Fatalf("batch over the failing fsync: status %d, want 500", code)
	}
	epoch, arcs, topo := frozenState(t, s.def)
	batches := s.def.met.mutBatches.Load()
	ins, rem, noops := s.def.dyn.MutationStats()

	const refused = 12
	for i := 0; i < refused; i++ {
		if code, _ := postBatch(t, client, base, distinctBatch(rng, 200, 24)); code != http.StatusServiceUnavailable {
			t.Fatalf("batch %d after poison: status %d, want 503", i, code)
		}
	}
	if e, a, h := frozenState(t, s.def); e != epoch || a != arcs || h != topo {
		t.Fatalf("graph moved under a poisoned log: epoch %d→%d, arcs %d→%d, topology %08x→%08x", epoch, e, arcs, a, topo, h)
	}
	if i, r, n := s.def.dyn.MutationStats(); i != ins || r != rem || n != noops {
		t.Fatalf("refused batches reached the apply: mutation counters %d/%d/%d→%d/%d/%d", ins, rem, noops, i, r, n)
	}
	if got := s.def.met.mutBatches.Load(); got != batches {
		t.Fatalf("refused batches were counted as applied: %d→%d", batches, got)
	}
	if code, health := getJSON(t, client, base+"/v1/health"); code != http.StatusOK || health["status"] != "degraded" {
		t.Fatalf("/v1/health on a poisoned log: %d %v", code, health["status"])
	}
	// Reads keep serving the frozen epoch.
	if code, body := getJSON(t, client, base+"/v1/graph"); code != http.StatusOK || uint64(body["epoch"].(float64)) != epoch {
		t.Fatalf("GET /v1/graph on a poisoned log: %d %v", code, body)
	}
	crashServer(s)

	failSync.Store(false)
	s2 := startDurableServer(t, dir, DurabilityConfig{Sync: wal.SyncAlways})
	t.Cleanup(func() { shutdownServer(t, s2) })
	// The 500 batch's record reached the file before its fsync failed;
	// this process never lost the page cache, so recovery may replay it
	// — an unacknowledged batch is indeterminate, never a refused one.
	switch rec := s2.Recovery(); rec.ReplayedBatches {
	case uint64(len(acked)):
	case uint64(len(acked)) + 1:
		acked = append(acked, ackedBatch{epoch: epoch, ops: unacked})
	default:
		t.Fatalf("replayed %d batches, want %d or %d", rec.ReplayedBatches, len(acked), len(acked)+1)
	}
	assertRecoveredTopology(t, s2, acked)
	if code, _ := postBatch(t, client, "http://"+s2.Addr(), distinctBatch(rng, 200, 8)); code != http.StatusOK {
		t.Fatalf("post-reboot batch: status %d", code)
	}
}

// TestOwnedBatchExhaustingArena: a hook-free batch that runs the arena
// out panics on an owner's goroutine, where no HTTP handler can recover
// it, with nothing rolled back. The daemon must answer that batch 500,
// poison the log and keep serving: reads answer, later batches are
// refused 503 rather than hanging on the mutation bracket, and a reboot
// on a roomier arena recovers exactly the acknowledged batches. One
// thread runs the owners on the handler's goroutine, four on their own.
func TestOwnedBatchExhaustingArena(t *testing.T) {
	for _, threads := range []int{1, 4} {
		t.Run(fmt.Sprintf("threads=%d", threads), func(t *testing.T) {
			dir := t.TempDir()
			s, err := OpenDurable(Config{Addr: "127.0.0.1:0", GCInterval: -1},
				DurabilityConfig{DataDir: dir, Sync: wal.SyncAlways, CheckpointInterval: -1},
				func() (*tufast.Graph, error) { return durBase(), nil },
				func(g *tufast.Graph) *tufast.DynGraph {
					return tufast.NewDynGraph(tufast.NewSystem(g, tufast.Options{
						Threads:    threads,
						SpaceWords: tufast.DynSpaceWords(g, 2000),
					}))
				})
			if err != nil {
				t.Fatalf("OpenDurable: %v", err)
			}
			if err := s.Start(); err != nil {
				t.Fatalf("start: %v", err)
			}
			client := &http.Client{Timeout: time.Minute}
			base := "http://" + s.Addr()
			rng := rand.New(rand.NewSource(5))

			var acked []ackedBatch
			code := http.StatusOK
			for code == http.StatusOK {
				if len(acked) == 200 {
					t.Fatal("200 batches never ran the arena out")
				}
				ops := distinctBatch(rng, 200, 64)
				var epoch uint64
				if code, epoch = postBatch(t, client, base, ops); code == http.StatusOK {
					acked = append(acked, ackedBatch{epoch: epoch, ops: ops})
				}
			}
			if code != http.StatusInternalServerError {
				t.Fatalf("batch %d: status %d, want 500 once the arena runs out", len(acked), code)
			}
			if got := s.def.met.mutBatches.Load(); got != uint64(len(acked)) {
				t.Fatalf("%d batches counted as applied, want the %d acknowledged", got, len(acked))
			}
			if code, health := getJSON(t, client, base+"/v1/health"); code != http.StatusOK || health["status"] != "degraded" {
				t.Fatalf("/v1/health after the failed batch: %d %v", code, health["status"])
			}
			if code, _ := getJSON(t, client, base+"/v1/graph"); code != http.StatusOK {
				t.Fatalf("GET /v1/graph after the failed batch: %d", code)
			}
			if code, _ := postBatch(t, client, base, distinctBatch(rng, 200, 8)); code != http.StatusServiceUnavailable {
				t.Fatalf("batch after the failed one: status %d, want 503", code)
			}
			crashServer(s)

			s2 := startDurableServer(t, dir, DurabilityConfig{Sync: wal.SyncAlways})
			t.Cleanup(func() { shutdownServer(t, s2) })
			if rec := s2.Recovery(); rec.ReplayedBatches != uint64(len(acked)) {
				t.Fatalf("replayed %d batches, want the %d acknowledged", rec.ReplayedBatches, len(acked))
			}
			assertRecoveredTopology(t, s2, acked)
		})
	}
}

// TestCrashRecoveryMidCheckpointRename kills between a checkpoint's
// temp-file write and its rename: the orphan .tmp- file must not
// confuse boot, and recovery proceeds from the previous checkpoint.
func TestCrashRecoveryMidCheckpointRename(t *testing.T) {
	dir := t.TempDir()
	s := startDurableServer(t, dir, DurabilityConfig{Sync: wal.SyncAlways})
	client := &http.Client{}
	base := "http://" + s.Addr()
	rng := rand.New(rand.NewSource(11))

	var acked []ackedBatch
	for i := 0; i < 5; i++ {
		ops := distinctBatch(rng, 200, 16)
		code, epoch := postBatch(t, client, base, ops)
		if code != http.StatusOK {
			t.Fatalf("batch %d: status %d", i, code)
		}
		acked = append(acked, ackedBatch{epoch: epoch, ops: ops})
	}
	crashServer(s)

	// The on-disk state a kill mid-atomic-write leaves: a partial temp
	// file in checkpoints/ that never got renamed.
	orphan := filepath.Join(ckptDir(dir), ".tmp-ckpt-0000000000000005.bin-1234")
	if err := os.WriteFile(orphan, []byte("half a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := startDurableServer(t, dir, DurabilityConfig{Sync: wal.SyncAlways})
	t.Cleanup(func() { shutdownServer(t, s2) })
	if got := s2.Recovery().ReplayedBatches; got != uint64(len(acked)) {
		t.Fatalf("replayed %d batches, want %d", got, len(acked))
	}
	assertRecoveredTopology(t, s2, acked)
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatalf("orphan temp file survived boot (err=%v)", err)
	}
}

// TestCrashRecoveryCorruptNewestCheckpoint flips a byte in the newest
// checkpoint: its CRC footer must reject it and recovery must fall
// back to the older checkpoint plus a longer WAL replay — which is why
// the WAL is truncated below the OLDEST retained checkpoint only.
func TestCrashRecoveryCorruptNewestCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s := startDurableServer(t, dir, DurabilityConfig{Sync: wal.SyncAlways})
	client := &http.Client{}
	base := "http://" + s.Addr()
	rng := rand.New(rand.NewSource(13))

	var acked []ackedBatch
	post := func(k int) {
		for i := 0; i < k; i++ {
			ops := distinctBatch(rng, 200, 16)
			code, epoch := postBatch(t, client, base, ops)
			if code != http.StatusOK {
				t.Fatalf("batch: status %d", code)
			}
			acked = append(acked, ackedBatch{epoch: epoch, ops: ops})
		}
	}
	post(4)
	code, out, _ := postJSON(t, client, base+"/v1/checkpoint", struct{}{})
	if code != http.StatusOK {
		t.Fatalf("POST /v1/checkpoint: %d (%v)", code, out)
	}
	ckptEpoch := uint64(out["checkpoint_epoch"].(float64))
	if ckptEpoch != acked[len(acked)-1].epoch {
		t.Fatalf("checkpoint epoch %d, want %d", ckptEpoch, acked[len(acked)-1].epoch)
	}
	post(3)
	crashServer(s)

	// Corrupt the newest checkpoint (the one at ckptEpoch).
	name := filepath.Join(ckptDir(dir), fmt.Sprintf("ckpt-%016x.bin", ckptEpoch))
	raw, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(name, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := startDurableServer(t, dir, DurabilityConfig{Sync: wal.SyncAlways})
	t.Cleanup(func() { shutdownServer(t, s2) })
	rec := s2.Recovery()
	if rec.CheckpointFallbacks != 1 {
		t.Fatalf("checkpoint fallbacks %d, want 1", rec.CheckpointFallbacks)
	}
	if rec.CheckpointEpoch != 0 {
		t.Fatalf("fell back to checkpoint epoch %d, want 0 (the initial one)", rec.CheckpointEpoch)
	}
	// The fallback replays the WHOLE history, not just the post-
	// checkpoint tail.
	if rec.ReplayedBatches != uint64(len(acked)) {
		t.Fatalf("replayed %d batches, want %d", rec.ReplayedBatches, len(acked))
	}
	assertRecoveredTopology(t, s2, acked)
}

// TestCrashRecoveryDurableUnacked covers the crash between append and
// respond: the record is durable but the client never saw the 200.
// Recovery must include it — durability is decided at the fsync, and
// an indeterminate batch resolving to "applied" is the documented
// contract for unacknowledged writes.
func TestCrashRecoveryDurableUnacked(t *testing.T) {
	dir := t.TempDir()
	s := startDurableServer(t, dir, DurabilityConfig{Sync: wal.SyncAlways})
	client := &http.Client{}
	base := "http://" + s.Addr()
	rng := rand.New(rand.NewSource(17))

	var acked []ackedBatch
	for i := 0; i < 4; i++ {
		ops := distinctBatch(rng, 200, 16)
		code, epoch := postBatch(t, client, base, ops)
		if code != http.StatusOK {
			t.Fatalf("batch %d: status %d", i, code)
		}
		acked = append(acked, ackedBatch{epoch: epoch, ops: ops})
	}
	lastEpoch := acked[len(acked)-1].epoch
	crashServer(s)

	// Re-create the durable-but-unacked state through the real append
	// path: one more well-formed record at the next epoch, written
	// directly to the closed daemon's log.
	extra := distinctBatch(rng, 200, 8)
	wops := make([]wal.Op, len(extra))
	for i, op := range extra {
		wops[i] = wal.Op{U: op.U, V: op.V, Del: op.Del}
	}
	l, _, err := wal.Open(walDir(dir), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(lastEpoch+1, wops); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := startDurableServer(t, dir, DurabilityConfig{Sync: wal.SyncAlways})
	t.Cleanup(func() { shutdownServer(t, s2) })
	if got := s2.Recovery().ReplayedBatches; got != uint64(len(acked)+1) {
		t.Fatalf("replayed %d batches, want %d", got, len(acked)+1)
	}
	withExtra := append(append([]ackedBatch(nil), acked...),
		ackedBatch{epoch: lastEpoch + 1, ops: extra})
	assertRecoveredTopology(t, s2, withExtra)
}

// TestCrashRecoveryConcurrentMutators is the kill-and-restart test
// under load: several clients post batches concurrently while the
// fault hook tears an append mid-frame. Everything acknowledged before
// the tear must survive the reboot byte for byte; nothing after the
// tear may be acknowledged at all.
func TestCrashRecoveryConcurrentMutators(t *testing.T) {
	dir := t.TempDir()
	const crashAfter = 30
	var hookMu sync.Mutex
	frames := 0
	hooks := &wal.Hooks{TrimAppend: func(frame []byte) int {
		hookMu.Lock()
		defer hookMu.Unlock()
		frames++
		if frames > crashAfter {
			return len(frame) - 3
		}
		return len(frame)
	}}
	s := startDurableServer(t, dir, DurabilityConfig{Sync: wal.SyncAlways, walHooks: hooks})
	client := &http.Client{}
	base := "http://" + s.Addr()

	var mu sync.Mutex
	var acked []ackedBatch
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + id)))
			for i := 0; i < crashAfter; i++ {
				ops := distinctBatch(rng, 200, 12)
				code, epoch := postBatch(t, client, base, ops)
				if code != http.StatusOK {
					return // the log died underneath us
				}
				mu.Lock()
				acked = append(acked, ackedBatch{epoch: epoch, ops: ops})
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	if len(acked) != crashAfter {
		t.Fatalf("acked %d batches, want exactly %d (every pre-tear append, nothing after)",
			len(acked), crashAfter)
	}
	crashServer(s)

	s2 := startDurableServer(t, dir, DurabilityConfig{Sync: wal.SyncAlways})
	t.Cleanup(func() { shutdownServer(t, s2) })
	rec := s2.Recovery()
	if !rec.TornTail {
		t.Fatal("recovery did not report the torn tail")
	}
	if rec.ReplayedBatches != uint64(len(acked)) {
		t.Fatalf("replayed %d batches, want %d", rec.ReplayedBatches, len(acked))
	}
	assertRecoveredTopology(t, s2, acked)

	// Monotonic epochs: the highest acknowledged epoch is crashAfter
	// (batches serialize), and the next commit lands right after it.
	code, epoch := postBatch(t, client, "http://"+s2.Addr(),
		distinctBatch(rand.New(rand.NewSource(999)), 200, 8))
	if code != http.StatusOK || epoch != uint64(crashAfter)+1 {
		t.Fatalf("post-reboot batch: status %d epoch %d, want 200 epoch %d",
			code, epoch, crashAfter+1)
	}
}

// TestCrashRecoveryCheckpointRetention drives enough batches through
// tiny WAL segments to rotate several times, checkpoints with keep=1,
// and verifies the WAL actually shrank and a reboot replays only the
// post-checkpoint tail.
func TestCrashRecoveryCheckpointRetention(t *testing.T) {
	dir := t.TempDir()
	dcfg := DurabilityConfig{Sync: wal.SyncAlways, SegmentBytes: 512, CheckpointKeep: 1}
	s := startDurableServer(t, dir, dcfg)
	client := &http.Client{}
	base := "http://" + s.Addr()
	rng := rand.New(rand.NewSource(23))

	var acked []ackedBatch
	for i := 0; i < 12; i++ {
		ops := distinctBatch(rng, 200, 16)
		code, epoch := postBatch(t, client, base, ops)
		if code != http.StatusOK {
			t.Fatalf("batch %d: status %d", i, code)
		}
		acked = append(acked, ackedBatch{epoch: epoch, ops: ops})
	}
	before, _ := os.ReadDir(walDir(dir))
	if len(before) < 3 {
		t.Fatalf("expected several WAL segments before checkpoint, got %d", len(before))
	}
	if code, out, _ := postJSON(t, client, base+"/v1/checkpoint", struct{}{}); code != http.StatusOK {
		t.Fatalf("POST /v1/checkpoint: %d (%v)", code, out)
	}
	after, _ := os.ReadDir(walDir(dir))
	if len(after) >= len(before) {
		t.Fatalf("checkpoint did not truncate the WAL: %d -> %d segments", len(before), len(after))
	}

	// Two more batches after the checkpoint, then a crash: only they
	// need replay.
	var tail []ackedBatch
	for i := 0; i < 2; i++ {
		ops := distinctBatch(rng, 200, 16)
		code, epoch := postBatch(t, client, base, ops)
		if code != http.StatusOK {
			t.Fatalf("tail batch: status %d", code)
		}
		tail = append(tail, ackedBatch{epoch: epoch, ops: ops})
	}
	acked = append(acked, tail...)
	crashServer(s)

	s2 := startDurableServer(t, dir, dcfg)
	t.Cleanup(func() { shutdownServer(t, s2) })
	rec := s2.Recovery()
	if rec.ReplayedBatches != uint64(len(tail)) {
		t.Fatalf("replayed %d batches, want just the %d post-checkpoint ones",
			rec.ReplayedBatches, len(tail))
	}
	assertRecoveredTopology(t, s2, acked)
}

// TestCrashRecoveryCleanRestart: a graceful shutdown checkpoints, so
// the next boot replays nothing and serves the same topology at the
// same epoch.
func TestCrashRecoveryCleanRestart(t *testing.T) {
	dir := t.TempDir()
	s := startDurableServer(t, dir, DurabilityConfig{Sync: wal.SyncAlways})
	client := &http.Client{}
	base := "http://" + s.Addr()
	rng := rand.New(rand.NewSource(29))

	var acked []ackedBatch
	for i := 0; i < 6; i++ {
		ops := distinctBatch(rng, 200, 16)
		code, epoch := postBatch(t, client, base, ops)
		if code != http.StatusOK {
			t.Fatalf("batch %d: status %d", i, code)
		}
		acked = append(acked, ackedBatch{epoch: epoch, ops: ops})
	}
	last := acked[len(acked)-1].epoch
	shutdownServer(t, s)

	s2 := startDurableServer(t, dir, DurabilityConfig{Sync: wal.SyncAlways})
	t.Cleanup(func() { shutdownServer(t, s2) })
	rec := s2.Recovery()
	if rec.ReplayedBatches != 0 {
		t.Fatalf("clean restart replayed %d batches, want 0", rec.ReplayedBatches)
	}
	if rec.CheckpointEpoch != last {
		t.Fatalf("recovered checkpoint epoch %d, want %d", rec.CheckpointEpoch, last)
	}
	assertRecoveredTopology(t, s2, acked)
	code, epoch := postBatch(t, client, "http://"+s2.Addr(), distinctBatch(rng, 200, 8))
	if code != http.StatusOK || epoch != last+1 {
		t.Fatalf("post-restart batch: status %d epoch %d, want 200 epoch %d", code, epoch, last+1)
	}
}

// TestReplayWindowsCutOnRepeatedEdge seeds a log in which the same edges
// are inserted, deleted through the other orientation and inserted again
// by adjacent and by nearby records, with records of fresh edges between
// them, and recovers it: the recovered graph must end where the live
// server stood — epoch, live arcs, every degree and neighbour — and where
// the sequential oracle over the acknowledged batches puts it. The
// records' times fall along the log, so a recovery that ordered the tail
// by time rather than by log position, or that folded the two
// orientations of an edge apart, lets a delete overtake the insert it
// follows.
func TestReplayWindowsCutOnRepeatedEdge(t *testing.T) {
	dir := t.TempDir()
	s := startDurableServer(t, dir, DurabilityConfig{Sync: wal.SyncNone})
	client := &http.Client{}
	base := durBase()
	n := uint32(base.NumVertices())

	// Every edge absent from the base graph, in a fixed order: the first
	// few flip, the rest are used once each as filler.
	inBase := make(map[[2]uint32]bool)
	for u := uint32(0); u < n; u++ {
		for _, v := range base.Neighbors(u) {
			inBase[[2]uint32{u, v}] = true
		}
	}
	var fresh [][2]uint32
	for u := uint32(0); u < n; u++ {
		for v := u + 1; v < n; v++ {
			if !inBase[[2]uint32{u, v}] {
				fresh = append(fresh, [2]uint32{u, v})
			}
		}
	}
	const flips, fillers = 8, 16
	flip, fresh := fresh[:flips], fresh[flips:]

	var acked []ackedBatch
	post := func(ops []edgeOp) {
		t.Helper()
		for i := range ops {
			ops[i].Time = uint64(1_000_000 - len(acked))
		}
		code, epoch := postBatch(t, client, "http://"+s.Addr(), ops)
		if code != http.StatusOK || epoch != uint64(len(acked)+1) {
			t.Fatalf("batch %d: status %d epoch %d", len(acked), code, epoch)
		}
		acked = append(acked, ackedBatch{epoch: epoch, ops: ops})
	}
	present := false
	flipBatch := func() {
		ops := make([]edgeOp, flips)
		for i, e := range flip {
			if present {
				ops[i] = edgeOp{U: e[1], V: e[0], Del: true}
			} else {
				ops[i] = edgeOp{U: e[0], V: e[1]}
			}
		}
		present = !present
		post(ops)
	}
	fillerBatch := func() {
		ops := make([]edgeOp, fillers)
		for i := range ops {
			e := fresh[0]
			fresh = fresh[1:]
			ops[i] = edgeOp{U: e[i%2], V: e[1-i%2]}
		}
		post(ops)
	}
	for round := 0; round < 6; round++ {
		flipBatch() // insert, delete, insert: three adjacent records
		flipBatch()
		flipBatch()
		fillerBatch()
		fillerBatch()
		flipBatch() // and a delete two records further on
		fillerBatch()
	}
	liveEpoch, liveArcs, liveTopo := frozenState(t, s.def)
	crashServer(s)

	s2 := startDurableServer(t, dir, DurabilityConfig{Sync: wal.SyncNone})
	defer crashServer(s2)
	if rec := s2.Recovery(); rec.ReplayedBatches != uint64(len(acked)) {
		t.Fatalf("replayed %d records, want %d", rec.ReplayedBatches, len(acked))
	}
	epoch, arcs, topo := frozenState(t, s2.def)
	if epoch != liveEpoch || arcs != liveArcs || topo != liveTopo {
		t.Fatalf("recovered epoch %d arcs %d topology %08x, live server had %d, %d, %08x",
			epoch, arcs, topo, liveEpoch, liveArcs, liveTopo)
	}
	assertRecoveredTopology(t, s2, acked)
}

// TestReplayReadsEachSegmentOnce recovers a log of several segments and
// counts file reads: Open's scan reads each once, and replay decodes
// those bytes.
func TestReplayReadsEachSegmentOnce(t *testing.T) {
	dir := t.TempDir()
	dcfg := DurabilityConfig{Sync: wal.SyncNone, SegmentBytes: 2048}
	s := startDurableServer(t, dir, dcfg)
	client := &http.Client{}
	rng := rand.New(rand.NewSource(11))
	var acked []ackedBatch
	for i := 0; i < 12; i++ {
		ops := distinctBatch(rng, 200, 24)
		code, epoch := postBatch(t, client, "http://"+s.Addr(), ops)
		if code != http.StatusOK {
			t.Fatalf("batch %d: status %d", i, code)
		}
		acked = append(acked, ackedBatch{epoch: epoch, ops: ops})
	}
	crashServer(s)

	var mu sync.Mutex
	reads := make(map[string]int)
	dcfg.walHooks = &wal.Hooks{ReadSegment: func(path string) {
		mu.Lock()
		reads[path]++
		mu.Unlock()
	}}
	s2 := startDurableServer(t, dir, dcfg)
	t.Cleanup(func() { shutdownServer(t, s2) })
	if rec := s2.Recovery(); rec.ReplayedBatches == 0 {
		t.Fatal("nothing replayed")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(reads) < 3 {
		t.Fatalf("log has %d segments, want several", len(reads))
	}
	for path, c := range reads {
		if c != 1 {
			t.Errorf("%s read %d times", filepath.Base(path), c)
		}
	}
	assertRecoveredTopology(t, s2, acked)
}

// TestCrashRecoveryRebases checks a restart leaves every acknowledged
// arc in the recovered graph's base: the tail of repeated, deleted and
// re-inserted edges is folded in, so /v1/graph reports as many base arcs
// as live ones, and the overlay's arena holds nothing a fresh DynGraph on
// the same base would not.
func TestCrashRecoveryRebases(t *testing.T) {
	dir := t.TempDir()
	dcfg := DurabilityConfig{Sync: wal.SyncNone}
	s := startDurableServer(t, dir, dcfg)
	client := &http.Client{}
	records := ownedReplayLog(durBase())
	for i, ops := range records {
		if code, epoch := postBatch(t, client, "http://"+s.Addr(), ops); code != http.StatusOK || epoch != uint64(i+1) {
			t.Fatalf("record %d: status %d epoch %d", i, code, epoch)
		}
	}
	want := recoveredGraphOf(t, s.def)
	crashServer(s)

	s2 := startDurableServer(t, dir, dcfg)
	defer crashServer(s2)
	if got := recoveredGraphOf(t, s2.def); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered epoch %d arcs %d topology %08x, live server had %d, %d, %08x",
			got.epoch, got.arcs, got.topo, want.epoch, want.arcs, want.topo)
	}
	_, body := getJSON(t, client, "http://"+s2.Addr()+"/v1/graph")
	if baseArcs, liveArcs := body["base_arcs"].(float64), body["live_arcs"].(float64); baseArcs != liveArcs || int(liveArcs) != want.arcs {
		t.Fatalf("/v1/graph after restart: base_arcs %v live_arcs %v, want both %d", baseArcs, liveArcs, want.arcs)
	}
	fresh := durDyn(s2.def.dyn.Base(), 4).System().Space().Used()
	if used := s2.MetricsSnapshot().Server.ArenaUsedWords; used != fresh {
		t.Fatalf("recovered arena holds %d words, a fresh overlay on its base %d", used, fresh)
	}
}

// TestCrashRecoveryOutOfRangeRecord forges a well-framed WAL record that
// names a vertex past the graph, after one good record: the boot must
// refuse with an error naming the bad record's epoch — no panic, no
// server.
func TestCrashRecoveryOutOfRangeRecord(t *testing.T) {
	dir := t.TempDir()
	dcfg := DurabilityConfig{Sync: wal.SyncNone}
	s := startDurableServer(t, dir, dcfg)
	client := &http.Client{}
	code, epoch := postBatch(t, client, "http://"+s.Addr(), distinctBatch(rand.New(rand.NewSource(3)), 200, 8))
	if code != http.StatusOK {
		t.Fatalf("batch: status %d", code)
	}
	crashServer(s)

	n := uint32(durBase().NumVertices())
	l, _, err := wal.Open(walDir(dir), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(epoch+1, []wal.Op{{U: 1, V: 2}}); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(epoch+2, []wal.Op{{U: 3, V: 4}, {U: 5, V: n}}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	dcfg.DataDir, dcfg.CheckpointInterval = dir, -1
	s2, err := OpenDurable(Config{Addr: "127.0.0.1:0"}, dcfg,
		func() (*tufast.Graph, error) { return durBase(), nil },
		func(g *tufast.Graph) *tufast.DynGraph { return durDyn(g, 4) })
	if err == nil || s2 != nil {
		t.Fatalf("boot over an out-of-range record: server %v, error %v", s2, err)
	}
	if want := fmt.Sprintf("epoch %d", epoch+2); !strings.Contains(err.Error(), want) {
		t.Fatalf("boot error %q does not name %s", err, want)
	}
}

// recoveredGraph is what an owned replay must rebuild: the frozen state
// (epoch, arcs, compacted topology), every vertex's live degree, and the
// mutation counters.
type recoveredGraph struct {
	epoch           uint64
	arcs            int
	topo            uint32
	degrees         []int
	ins, rem, noops uint64
}

func recoveredGraphOf(t *testing.T, g *graphInstance) recoveredGraph {
	t.Helper()
	var r recoveredGraph
	r.epoch, r.arcs, r.topo = frozenState(t, g)
	r.ins, r.rem, r.noops = g.dyn.MutationStats()
	for v := uint32(0); int(v) < g.dyn.NumVertices(); v++ {
		r.degrees = append(r.degrees, g.dyn.LiveDegree(v))
	}
	return r
}

// ownedReplayLog builds eight rounds of records over base, no edge twice
// in one record. Hubs 0 and 1 gain twelve fresh arcs a round, so their
// chains pass the length at which a vertex gets its target index (four
// blocks of six entries) early in the tail and keep growing the index
// after; each round also deletes one arc each hub gained two rounds
// before, deletes four base edges that a record three rounds later puts
// back, and carries two no-ops (an insert of a live base edge, a delete
// of an absent one).
func ownedReplayLog(base *tufast.Graph) [][]edgeOp {
	n := uint32(base.NumVertices())
	inBase := func(u, v uint32) bool {
		for _, w := range base.Neighbors(u) {
			if w == v {
				return true
			}
		}
		return false
	}
	var fresh [2][]uint32 // per hub, targets it has no base arc to
	for h := uint32(0); h < 2; h++ {
		for v := uint32(2); v < n; v++ {
			if !inBase(h, v) {
				fresh[h] = append(fresh[h], v)
			}
		}
	}
	var flip, live, absent [][2]uint32 // base edges, base edges, non-edges; hubs excluded
	for u := uint32(2); u < n; u++ {
		for v := u + 1; v < n; v++ {
			switch {
			case inBase(u, v) && len(flip) < 32:
				flip = append(flip, [2]uint32{u, v})
			case inBase(u, v):
				live = append(live, [2]uint32{u, v})
			case !inBase(v, u):
				absent = append(absent, [2]uint32{u, v})
			}
		}
	}
	var records [][]edgeOp
	hubArc := func(h uint32, round, k int) edgeOp {
		return edgeOp{U: h, V: fresh[h][12*round+k]}
	}
	for round := 0; round < 8; round++ {
		var a, b []edgeOp
		for k := 0; k < 6; k++ {
			a = append(a, hubArc(0, round, k), hubArc(1, round, k))
			b = append(b, hubArc(0, round, 6+k), hubArc(1, round, 6+k))
		}
		for _, e := range flip[4*round : 4*round+4] {
			a = append(a, edgeOp{U: e[0], V: e[1], Del: true})
		}
		if round >= 2 {
			for h := uint32(0); h < 2; h++ {
				del := hubArc(h, round-2, 0)
				del.Del = true
				b = append(b, del)
			}
		}
		b = append(b, edgeOp{U: live[round][0], V: live[round][1]},
			edgeOp{U: absent[round][0], V: absent[round][1], Del: true})
		records = append(records, a, b)
		if round >= 3 {
			var c []edgeOp
			for _, e := range flip[4*(round-3) : 4*(round-3)+4] {
				if base.Undirected() {
					e[0], e[1] = e[1], e[0] // put back through the other orientation
				}
				c = append(c, edgeOp{U: e[0], V: e[1]})
			}
			records = append(records, c)
		}
	}
	return records
}

// TestReplayOwnedMatchesLiveServer writes ownedReplayLog through a live
// server on four threads, kills it, and recovers the log with the
// System on one, two and four threads: the recovered graph must be the
// one the live server held — frozen state, every live degree, the
// mutation counters. It runs over a directed base, where each hub's
// arcs all fall to one owner, and an undirected one, where the reverse
// arcs of a hub's edges fall to every owner.
func TestReplayOwnedMatchesLiveServer(t *testing.T) {
	for _, tc := range []struct {
		name string
		base *tufast.Graph
	}{
		{"directed", tufast.GenerateUniform(200, 4, 42)},
		{"undirected", durBase()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			dcfg := DurabilityConfig{Sync: wal.SyncNone}
			s := startDurableServerOn(t, dir, dcfg, tc.base, 4)
			client := &http.Client{}
			records := ownedReplayLog(tc.base)
			for i, ops := range records {
				if code, epoch := postBatch(t, client, "http://"+s.Addr(), ops); code != http.StatusOK || epoch != uint64(i+1) {
					t.Fatalf("record %d: status %d epoch %d", i, code, epoch)
				}
			}
			want := recoveredGraphOf(t, s.def)
			if want.noops == 0 || want.rem == 0 || want.degrees[0] < 48 || want.degrees[1] < 48 {
				t.Fatalf("log exercises too little: %d no-ops, %d removes, hub degrees %d and %d",
					want.noops, want.rem, want.degrees[0], want.degrees[1])
			}
			crashServer(s)

			for _, threads := range []int{1, 2, 4} {
				s2 := startDurableServerOn(t, dir, dcfg, tc.base, threads)
				if rec := s2.Recovery(); rec.ReplayedBatches != uint64(len(records)) {
					t.Fatalf("threads %d: replayed %d records, want %d", threads, rec.ReplayedBatches, len(records))
				}
				got := recoveredGraphOf(t, s2.def)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("threads %d: recovered epoch %d arcs %d topology %08x counters %d/%d/%d; live server had %d, %d, %08x, %d/%d/%d",
						threads, got.epoch, got.arcs, got.topo, got.ins, got.rem, got.noops,
						want.epoch, want.arcs, want.topo, want.ins, want.rem, want.noops)
				}
				crashServer(s2) // the log stays as it is for the next recovery
			}
		})
	}
}

// TestCrashRecoveryRepeatedEdgeInOneBatch sends batches that name one
// edge several times — insert, delete, insert of a fresh edge; delete,
// insert, delete of a base edge; an insert its own batch takes back —
// beside ops on edges named once, with and without standing PageRank
// and CC registered. Either way the live server applies each batch
// owned, so every arc's ops land in slice order, as replay applies
// them: the recovered graph must be the live one (frozen state, degrees,
// counters), at the live epoch with no realignment, and both must be
// the sequential oracle's.
func TestCrashRecoveryRepeatedEdgeInOneBatch(t *testing.T) {
	for _, standing := range []bool{false, true} {
		t.Run(fmt.Sprintf("standing=%v", standing), func(t *testing.T) {
			crashRecoveryRepeatedEdge(t, standing)
		})
	}
}

func crashRecoveryRepeatedEdge(t *testing.T, standing bool) {
	dir := t.TempDir()
	dcfg := DurabilityConfig{Sync: wal.SyncNone}
	s := startDurableServer(t, dir, dcfg)
	client := &http.Client{}
	if standing {
		for _, algo := range []string{"pagerank", "cc"} {
			code, view := submitStanding(t, client, "http://"+s.Addr(), algo, nil)
			if code != http.StatusAccepted {
				t.Fatalf("register standing %s: %d %v", algo, code, view)
			}
			if final := pollJob(t, client, "http://"+s.Addr(), view["job_id"].(string)); final["status"] != StatusDone {
				t.Fatalf("standing %s registration: %v", algo, final)
			}
		}
	}
	base := durBase()
	n := uint32(base.NumVertices())
	var fresh, inBase [][2]uint32
	for u := uint32(0); u < n; u++ {
		for v := u + 1; v < n; v++ {
			if slices.Contains(base.Neighbors(u), v) {
				inBase = append(inBase, [2]uint32{u, v})
			} else {
				fresh = append(fresh, [2]uint32{u, v})
			}
		}
	}
	rng := rand.New(rand.NewSource(23))
	var acked []ackedBatch
	for b := 0; b < 12; b++ {
		f, e, x := fresh[3*b], inBase[2*b], fresh[3*b+1]
		// The repeats sit 40 ops apart, in different chunks of a
		// transactional apply window, where they would commit in any
		// order.
		repeats := map[int]edgeOp{
			0: {U: f[0], V: f[1]}, 40: {U: f[1], V: f[0], Del: true}, 80: {U: f[0], V: f[1]},
			10: {U: e[0], V: e[1], Del: true}, 50: {U: e[0], V: e[1]}, 90: {U: e[1], V: e[0], Del: true},
			20: {U: x[0], V: x[1]}, 60: {U: x[0], V: x[1], Del: true},
		}
		named := func(op edgeOp) bool {
			for _, r := range repeats {
				if min(r.U, r.V) == min(op.U, op.V) && max(r.U, r.V) == max(op.U, op.V) {
					return true
				}
			}
			return false
		}
		// Fillers on edges of their own, none of the repeats'.
		fillers := slices.DeleteFunc(distinctBatch(rng, int(n), 110), named)
		var ops []edgeOp
		for i := 0; i < 100; i++ {
			if r, ok := repeats[i]; ok {
				ops = append(ops, r)
			} else {
				ops = append(ops, fillers[0])
				fillers = fillers[1:]
			}
		}
		code, epoch := postBatch(t, client, "http://"+s.Addr(), ops)
		if code != http.StatusOK || epoch != uint64(b+1) {
			t.Fatalf("batch %d: status %d epoch %d", b, code, epoch)
		}
		acked = append(acked, ackedBatch{epoch: epoch, ops: ops})
	}
	if standing {
		waitStandingStable(t, client, "http://"+s.Addr(), 2)
	}
	want := recoveredGraphOf(t, s.def)
	assertRecoveredTopology(t, s, acked)
	crashServer(s)

	s2 := startDurableServer(t, dir, dcfg)
	defer crashServer(s2)
	if rec := s2.Recovery(); rec.ReplayedBatches != uint64(len(acked)) {
		t.Fatalf("replayed %d records, want %d", rec.ReplayedBatches, len(acked))
	}
	if got := recoveredGraphOf(t, s2.def); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered epoch %d arcs %d topology %08x counters %d/%d/%d; live server had %d, %d, %08x, %d/%d/%d",
			got.epoch, got.arcs, got.topo, got.ins, got.rem, got.noops,
			want.epoch, want.arcs, want.topo, want.ins, want.rem, want.noops)
	}
	assertRecoveredTopology(t, s2, acked)
}
