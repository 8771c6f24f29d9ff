// Durability plane: WAL + atomic checkpoints + crash recovery.
//
// The unit of durability is the committed mutation batch. handleEdges
// appends one WAL record per effective batch inside the same mutMu
// bracket that serializes batches, so log order equals commit order
// and a record's epoch is exactly the epoch its bump published.
//
// Checkpoints and recovery build their graph on one path: load the
// newest checkpoint that passes its CRC, falling back to older ones
// (loadCheckpoint), and fold every WAL record above it into its graph in
// one merge pass on every core (foldLog; tufast.FoldStream: each arc's
// last op in log order decides it). A checkpoint at epoch e is that fold
// over the records the log held, e the last of them, written
// crash-atomically (temp file + fsync + rename, CRC-validated on read)
// and recorded in MANIFEST.json. It reads only files: it pins no view,
// walks no chain, and a batch whose WAL append failed is in no
// checkpoint, as it is in no recovery. The WAL is truncated below the
// OLDEST retained checkpoint, never the newest, so a corrupt-newest
// fallback still has the tail it needs to replay.
//
// Recovery (recoverDataDir) loads the checkpoint while the WAL's open
// scans the log, folds, builds the DynGraph on the folded graph and
// restores the epoch counter to the last record's epoch; the overlay
// starts empty. A fresh dir's day-zero checkpoint is the graph recovery
// built. RecoveryInfo times each stage and the whole.
// The WAL's own open already repaired any torn tail, so a kill at any
// instant costs at most the batch that was mid-append — which was
// never acknowledged.
//
// Tenancy: every graphInstance owns one such plane. The default graph
// roots it at DataDir itself (so PR 9 single-tenant data dirs recover
// unchanged); named graphs root theirs at DataDir/graphs/<name>/,
// recovered on boot by Server.recoverNamedGraphs from the GRAPH.json
// spec each create wrote first.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"tufast"
	"tufast/internal/fsx"
	"tufast/internal/obs"
	"tufast/internal/wal"
)

// DurabilityConfig tunes the durability plane. Zero values take the
// documented defaults.
type DurabilityConfig struct {
	// DataDir roots the on-disk state: <DataDir>/wal/ holds log
	// segments, <DataDir>/checkpoints/ the checkpoint files,
	// <DataDir>/MANIFEST.json the checkpoint index, and
	// <DataDir>/graphs/<name>/ the same layout per named graph.
	DataDir string
	// Sync is the WAL fsync policy (default wal.SyncAlways);
	// SyncInterval is the flush period under wal.SyncInterval.
	Sync         wal.SyncPolicy
	SyncInterval time.Duration
	// SegmentBytes is the WAL segment rotation size (default 64 MiB).
	SegmentBytes int64
	// CheckpointInterval is the background checkpoint period (default
	// 1m; < 0 disables the loop — POST /v1/checkpoint still works).
	CheckpointInterval time.Duration
	// CheckpointKeep is how many checkpoints to retain (default 2).
	// Older ones are pruned and the WAL truncated below the oldest
	// survivor; keeping ≥ 2 means a corrupt newest checkpoint still
	// has a valid fallback with its replay tail intact.
	CheckpointKeep int

	// walHooks injects faults into the WAL file layer; crash tests
	// only.
	walHooks *wal.Hooks
}

func (c DurabilityConfig) withDefaults() DurabilityConfig {
	if c.CheckpointInterval == 0 {
		c.CheckpointInterval = time.Minute
	}
	if c.CheckpointKeep <= 0 {
		c.CheckpointKeep = 2
	}
	return c
}

// RecoveryInfo describes what one boot's recovery did for one graph;
// static once the instance is constructed.
type RecoveryInfo struct {
	// Recovered is true when the durability plane is enabled and boot
	// recovery completed (trivially true for a fresh data dir).
	Recovered bool `json:"recovered"`
	// CheckpointEpoch is the epoch of the checkpoint recovery loaded
	// (0 when booting from the base graph).
	CheckpointEpoch uint64 `json:"checkpoint_epoch"`
	// ReplayedBatches / ReplayedOps count the WAL tail re-applied on
	// top of the checkpoint.
	ReplayedBatches uint64 `json:"replayed_batches"`
	ReplayedOps     uint64 `json:"replayed_ops"`
	// TornTail is true when the WAL had a torn final record (a crash
	// mid-append) that open truncated away.
	TornTail bool `json:"torn_tail,omitempty"`
	// CheckpointFallbacks counts corrupt checkpoints skipped on the
	// way to a loadable one.
	CheckpointFallbacks int `json:"checkpoint_fallbacks,omitempty"`
	// Where the recovery's time went, in milliseconds: loading the
	// checkpoint (or the base graph on a fresh dir) and opening the WAL
	// (every segment read and validated once), which run side by side;
	// replaying the tail above the checkpoint (decoding it); folding it
	// into the checkpoint's graph; and building the runtime and overlay
	// around the folded graph (the arena is most of that when it is
	// cleared rather than mapped). RecoverMS is the wall time of the
	// whole recovery: the load and the scan overlap, so the stages add
	// up to more than it.
	CheckpointLoadMS float64 `json:"checkpoint_load_ms"`
	SpaceNewMS       float64 `json:"space_new_ms"`
	WALScanMS        float64 `json:"wal_scan_ms"`
	ReplayMS         float64 `json:"replay_ms"`
	FoldMS           float64 `json:"fold_ms"`
	RecoverMS        float64 `json:"recover_ms"`
}

// sinceMS is the time since t0 in milliseconds.
func sinceMS(t0 time.Time) float64 { return float64(time.Since(t0)) / float64(time.Millisecond) }

// errNotDurable answers durability endpoints on an ephemeral graph.
var errNotDurable = errors.New("durability disabled (start with a data dir)")

// manifestEntry is one retained checkpoint: its epoch and its file
// name under checkpoints/.
type manifestEntry struct {
	Epoch uint64 `json:"epoch"`
	File  string `json:"file"`
}

// manifest is the checkpoint index, oldest first. Written atomically,
// and only after the checkpoint file it names is durable, so every
// listed file exists in full.
type manifest struct {
	Checkpoints []manifestEntry `json:"checkpoints"`
}

func walDir(dataDir string) string       { return filepath.Join(dataDir, "wal") }
func ckptDir(dataDir string) string      { return filepath.Join(dataDir, "checkpoints") }
func manifestPath(dataDir string) string { return filepath.Join(dataDir, "MANIFEST.json") }

func loadManifest(dataDir string) (manifest, error) {
	var man manifest
	raw, err := os.ReadFile(manifestPath(dataDir))
	if os.IsNotExist(err) {
		return man, nil
	}
	if err != nil {
		return man, err
	}
	if err := json.Unmarshal(raw, &man); err != nil {
		// The manifest is written atomically, so a parse failure means
		// something outside the daemon damaged it. The checkpoints
		// themselves are self-validating (CRC footer): rebuild the
		// index from the directory rather than refusing to boot.
		return rebuildManifest(dataDir)
	}
	return man, nil
}

// rebuildManifest reconstructs the checkpoint index from the files on
// disk (epoch is encoded in the name; the loader's CRC check decides
// validity later).
func rebuildManifest(dataDir string) (manifest, error) {
	ents, err := os.ReadDir(ckptDir(dataDir))
	if err != nil {
		return manifest{}, err
	}
	var man manifest
	for _, e := range ents {
		var epoch uint64
		if _, err := fmt.Sscanf(e.Name(), "ckpt-%016x.bin", &epoch); err != nil {
			continue
		}
		man.Checkpoints = append(man.Checkpoints, manifestEntry{Epoch: epoch, File: e.Name()})
	}
	// ReadDir sorts by name and the names zero-pad the epoch, so the
	// slice is already oldest-first.
	return man, nil
}

func saveManifest(dataDir string, man manifest) error {
	return fsx.WriteFileAtomic(manifestPath(dataDir), func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(man)
	})
}

// recoveredState is what recoverDataDir hands back: the rebuilt
// overlay, the open log, and the manifest/recovery bookkeeping the
// instance wires in via attachDurability.
type recoveredState struct {
	dyn  *tufast.DynGraph
	wlog *wal.Log
	man  manifest
	rec  RecoveryInfo
	// dayZero is the graph recovery built on a fresh dir (booted from
	// loadBase), at epoch; nil otherwise. attachDurability saves it as
	// the day-zero checkpoint so no later boot ever depends on loadBase
	// reproducing the base graph.
	dayZero *tufast.Graph
	epoch   uint64
}

// recoverDataDir runs one graph's boot recovery against dcfg.DataDir:
// newest valid checkpoint (or loadBase on a fresh dir), WAL tail folded
// into it, epoch restored. loadBase loads or generates the
// day-zero graph; mkDyn builds the runtime and overlay around
// whichever graph recovery produced.
func recoverDataDir(dcfg DurabilityConfig,
	loadBase func() (*tufast.Graph, error),
	mkDyn func(*tufast.Graph) *tufast.DynGraph) (recoveredState, error) {

	begin := time.Now()
	var rv recoveredState
	for _, d := range []string{dcfg.DataDir, ckptDir(dcfg.DataDir)} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return rv, err
		}
	}
	// A kill between an atomic write's temp file and its rename leaves
	// a .tmp- orphan; sweep them so they never accumulate.
	if ents, err := os.ReadDir(ckptDir(dcfg.DataDir)); err == nil {
		for _, e := range ents {
			if strings.HasPrefix(e.Name(), ".tmp-") {
				_ = os.Remove(filepath.Join(ckptDir(dcfg.DataDir), e.Name()))
			}
		}
	}

	man, err := loadManifest(dcfg.DataDir)
	if err != nil {
		return rv, err
	}
	// The checkpoint loads on a goroutine of its own while this one opens
	// the log, which reads and validates every segment: the two read
	// different files and neither needs the other until the replay.
	loaded := make(chan loadedCheckpoint, 1)
	go func() { loaded <- loadCheckpoint(dcfg.DataDir, man, loadBase) }()
	t0 := time.Now()
	wlog, scan, err := wal.Open(walDir(dcfg.DataDir), wal.Options{
		Sync:         dcfg.Sync,
		SyncInterval: dcfg.SyncInterval,
		SegmentBytes: dcfg.SegmentBytes,
		Hooks:        dcfg.walHooks,
	})
	rv.rec.WALScanMS = sinceMS(t0)
	ck := <-loaded
	if err == nil && ck.err != nil {
		wlog.Close()
		err = ck.err
	}
	if err != nil {
		return rv, err
	}
	rv.rec.CheckpointLoadMS, rv.rec.CheckpointFallbacks = ck.ms, ck.fallbacks
	rv.rec.TornTail = scan.TornTail

	// The DynGraph starts with every acknowledged arc in its base and an
	// empty overlay. The last record's epoch is the one its bump
	// published, so epoch-keyed state (caches, checkpoint names, client
	// ack epochs) stays consistent across the restart.
	g, epoch, folded, err := foldLog(ck, wlog, &rv.rec)
	if err != nil {
		wlog.Close()
		return rv, err
	}

	t0 = time.Now()
	dyn := mkDyn(g)
	rv.rec.SpaceNewMS = sinceMS(t0)
	dyn.RestoreEpoch(epoch)
	dyn.RestoreMutationStats(folded)
	rv.rec.Recovered = true
	rv.rec.CheckpointEpoch = ck.epoch
	rv.rec.RecoverMS = sinceMS(begin)
	rv.dyn, rv.wlog, rv.man, rv.epoch = dyn, wlog, ck.man, epoch
	if !ck.found {
		rv.dayZero = g
	}
	return rv, nil
}

// foldLog folds every record wlog holds above ck's epoch, in log order,
// into ck's graph in one merge pass, and returns the graph, the last
// folded record's epoch (ck's with none) and the fold's counts; rec gets
// the replay's and the fold's stage timers and counts. Recovery and
// checkpoints both build their graph here: recovery before anything
// appends, a checkpoint beside live appends, from the records the log
// held when it was called.
func foldLog(ck loadedCheckpoint, wlog *wal.Log, rec *RecoveryInfo) (*tufast.Graph, uint64, tufast.StreamStats, error) {
	t0 := time.Now()
	n, epoch := uint32(ck.g.NumVertices()), ck.epoch
	ops, recs, err := wlog.Tail(ck.epoch)
	for _, r := range recs {
		for _, op := range r.Ops {
			if err == nil && (op.U >= n || op.V >= n) {
				err = fmt.Errorf("server: wal replay at epoch %d: op (%d, %d) out of range [0,%d)", r.Epoch, op.U, op.V, n)
			}
		}
		epoch = r.Epoch
	}
	rec.ReplayMS, rec.ReplayedOps, rec.ReplayedBatches = sinceMS(t0), uint64(len(ops)), uint64(len(recs))
	if err != nil {
		return nil, 0, tufast.StreamStats{}, err
	}
	t0 = time.Now()
	g, folded, err := tufast.FoldStream(ck.g, ops)
	rec.FoldMS = sinceMS(t0)
	return g, epoch, folded, err
}

// loadedCheckpoint is what loadCheckpoint found: the graph recovery
// starts from, the epoch it holds, and the manifest without the corrupt
// entries newer than it.
type loadedCheckpoint struct {
	g         *tufast.Graph
	epoch     uint64
	found     bool // false: g is loadBase's, on a fresh dir
	man       manifest
	fallbacks int
	ms        float64
	err       error
}

// loadCheckpoint loads the newest checkpoint in man that passes its CRC,
// falling back to older ones, or loadBase's graph when man lists none.
func loadCheckpoint(dataDir string, man manifest, loadBase func() (*tufast.Graph, error)) loadedCheckpoint {
	t0 := time.Now()
	ck := loadedCheckpoint{man: man}
	for i := len(man.Checkpoints) - 1; i >= 0; i-- {
		ent := man.Checkpoints[i]
		g, err := tufast.LoadGraphBinary(filepath.Join(ckptDir(dataDir), ent.File))
		if err != nil {
			// CRC or structural failure: fall back to the previous
			// checkpoint. The WAL was only ever truncated below the
			// oldest RETAINED checkpoint, so the older one's replay
			// tail is still on disk.
			ck.fallbacks++
			continue
		}
		ck.g, ck.epoch, ck.found = g, ent.Epoch, true
		ck.man.Checkpoints = man.Checkpoints[:i+1] // forget the corrupt newer entries
		break
	}
	switch {
	case ck.found:
	case len(man.Checkpoints) > 0:
		// Checkpoints existed but none loads: the WAL below the oldest
		// one is gone, so rebuilding from the base graph would silently
		// lose acknowledged batches. Refuse instead of serving wrong data.
		ck.err = fmt.Errorf("server: all %d checkpoints in %s failed validation",
			len(man.Checkpoints), ckptDir(dataDir))
	default:
		ck.g, ck.err = loadBase()
	}
	ck.ms = sinceMS(t0)
	return ck
}

// attachDurability wires a recovered durability plane into the
// instance, writing the day-zero checkpoint on a fresh dir.
func (g *graphInstance) attachDurability(rv recoveredState, dcfg DurabilityConfig) error {
	g.wlog, g.dur, g.man, g.recovery = rv.wlog, dcfg, rv.man, rv.rec
	g.ckptEpochGauge.Store(rv.rec.CheckpointEpoch)
	if rv.dayZero != nil {
		// Day zero: checkpoint the base graph so the next boot never
		// depends on loadBase reproducing it (generators are seeded,
		// but input files move).
		g.ckptMu.Lock()
		err := g.saveCheckpoint(rv.dayZero, rv.epoch, rv.man)
		g.ckptMu.Unlock()
		if err != nil {
			_ = rv.wlog.Close()
			return err
		}
	}
	return nil
}

// OpenDurable boots a durable server from dcfg.DataDir: the default
// graph recovers from the dir root, then every named graph under
// graphs/<name>/ recovers through the same checkpoint-plus-replay
// path. loadBase loads or generates the default graph's day-zero
// topology; mkDyn builds the runtime and overlay around whichever
// graph recovery produced (checkpoints change the base topology, so
// sizing must happen inside it). mkDyn applies to the DEFAULT graph
// only — named graphs size themselves from their create spec. Call Start
// on the result as usual.
func OpenDurable(cfg Config, dcfg DurabilityConfig,
	loadBase func() (*tufast.Graph, error),
	mkDyn func(*tufast.Graph) *tufast.DynGraph) (*Server, error) {

	dcfg = dcfg.withDefaults()
	if dcfg.DataDir == "" {
		return nil, errors.New("server: OpenDurable requires DataDir")
	}
	cfg = cfg.withDefaults()
	rv, err := recoverDataDir(dcfg, loadBase, mkDyn)
	if err != nil {
		return nil, err
	}
	s := New(rv.dyn, cfg)
	s.dataDir, s.durTpl = dcfg.DataDir, dcfg
	if err := s.def.attachDurability(rv, dcfg); err != nil {
		return nil, err
	}
	if err := s.recoverNamedGraphs(); err != nil {
		s.stop(context.Background(), false)
		return nil, err
	}
	return s, nil
}

// recoverNamedGraphs scans <dataDir>/graphs/ on boot, recovering every
// named graph from its own durability plane. A directory without a
// GRAPH.json is a create that crashed before its spec landed — nothing
// under that name was ever acknowledged — and is removed durably.
func (s *Server) recoverNamedGraphs() error {
	root := filepath.Join(s.dataDir, "graphs")
	ents, err := os.ReadDir(root)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	for _, ent := range ents {
		if !ent.IsDir() {
			continue
		}
		name := ent.Name()
		dir := filepath.Join(root, name)
		spec, err := loadGraphSpec(dir)
		if os.IsNotExist(err) {
			if rerr := fsx.RemoveTreeDurable(dir); rerr != nil {
				return fmt.Errorf("server: sweep partial graph %q: %w", name, rerr)
			}
			continue
		}
		if err != nil {
			return fmt.Errorf("server: graph %q: %w", name, err)
		}
		g, err := s.openNamedInstance(name, dir, spec)
		if err != nil {
			return fmt.Errorf("server: recover graph %q: %w", name, err)
		}
		s.graphs[name] = g
	}
	return nil
}

// openNamedInstance recovers (or, on a fresh dir, creates day-zero
// state for) one named graph's durability plane and builds its serving
// plane. The GRAPH.json spec doubles as loadBase: creation is
// deterministic from it, so a create that crashed before its first
// checkpoint rebuilds identically.
func (s *Server) openNamedInstance(name, dir string, spec createSpec) (*graphInstance, error) {
	dcfg := s.durTpl
	dcfg.DataDir = dir
	rv, err := recoverDataDir(dcfg,
		func() (*tufast.Graph, error) { return buildFromSpec(spec) },
		func(base *tufast.Graph) *tufast.DynGraph { return s.buildDyn(base, spec.MutationBudget) })
	if err != nil {
		return nil, err
	}
	g := s.newInstance(name, rv.dyn, spec.Quotas)
	if err := g.attachDurability(rv, dcfg); err != nil {
		return nil, err
	}
	return g, nil
}

// Recovery returns what boot recovery did for the default graph (zero
// value on an ephemeral server). Per-graph recovery documents are on
// each graph's /v1/graphs/{name}/health.
func (s *Server) Recovery() RecoveryInfo { return s.def.recovery }

// Durable reports whether the durability plane is enabled.
func (s *Server) Durable() bool { return s.def.wlog != nil }

// NamedGraphs returns the registered non-default graph names, sorted;
// tufastd's boot banner reports them.
func (s *Server) NamedGraphs() []string {
	s.regMu.RLock()
	names := make([]string, 0, len(s.graphs))
	for name := range s.graphs {
		if name != DefaultGraph {
			names = append(names, name)
		}
	}
	s.regMu.RUnlock()
	sort.Strings(names)
	return names
}

// errCheckpointClosed refuses a checkpoint of a graph whose teardown
// began: its directory may already belong to a graph re-created under
// the same name.
var errCheckpointClosed = errors.New("graph deleted or closed")

// checkpointNow writes the checkpoint of the last epoch the WAL holds:
// the newest loadable checkpoint with the records above it folded in
// (foldLog). It reads only the checkpoint file and the log, never the
// live graph, so batches apply beside it. Single-flight under ckptMu; a
// no-op (returning the existing epoch) when nothing was logged since the
// last checkpoint; refused once teardown began.
func (s *graphInstance) checkpointNow() (uint64, error) {
	if s.wlog == nil {
		return 0, errNotDurable
	}
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	if s.logClosed || s.deleted.Load() {
		return 0, errCheckpointClosed
	}
	// attachDurability left at least the day-zero checkpoint listed, so
	// loadCheckpoint never falls back to a base graph here.
	if prev := s.man.Checkpoints[len(s.man.Checkpoints)-1].Epoch; s.wlog.LastEpoch() <= prev {
		return prev, nil
	}
	ck := loadCheckpoint(s.dur.DataDir, s.man, nil)
	var g *tufast.Graph
	var e uint64
	err := ck.err
	if err == nil {
		g, e, _, err = foldLog(ck, s.wlog, &RecoveryInfo{})
	}
	if err != nil {
		s.met.checkpointErrors.Add(1)
		return 0, err
	}
	return e, s.saveCheckpoint(g, e, ck.man)
}

// saveCheckpoint writes g as the checkpoint at epoch e, adds it to man,
// prunes the checkpoints past CheckpointKeep, and truncates the WAL
// below the oldest survivor. Callers hold ckptMu.
func (s *graphInstance) saveCheckpoint(g *tufast.Graph, e uint64, man manifest) error {
	file := fmt.Sprintf("ckpt-%016x.bin", e)
	if err := g.SaveBinary(filepath.Join(ckptDir(s.dur.DataDir), file)); err != nil {
		s.met.checkpointErrors.Add(1)
		return err
	}
	next := append(append([]manifestEntry(nil), man.Checkpoints...), manifestEntry{Epoch: e, File: file})
	var pruned []manifestEntry
	if len(next) > s.dur.CheckpointKeep {
		pruned = next[:len(next)-s.dur.CheckpointKeep]
		next = next[len(next)-s.dur.CheckpointKeep:]
	}
	// Publish the manifest before deleting anything it no longer
	// names: a crash between the two leaves orphan files (harmless),
	// never a manifest pointing at removed ones.
	if err := saveManifest(s.dur.DataDir, manifest{Checkpoints: next}); err != nil {
		s.met.checkpointErrors.Add(1)
		return err
	}
	s.man.Checkpoints = next
	for _, p := range pruned {
		_ = fsx.RemoveDurable(filepath.Join(ckptDir(s.dur.DataDir), p.File))
	}
	// Oldest retained epoch, not e: the older checkpoints are kept as
	// corruption fallbacks and need their replay tails.
	if err := s.wlog.TruncateBelow(next[0].Epoch); err != nil {
		s.met.checkpointErrors.Add(1)
		return err
	}
	s.ckptEpochGauge.Store(e)
	s.met.checkpoints.Add(1)
	return nil
}

// checkpointLoop checkpoints on a timer until shutdown (or this
// graph's deletion); an unchanged epoch makes the tick a no-op.
func (s *graphInstance) checkpointLoop() {
	defer s.gcWG.Done()
	tick := time.NewTicker(s.dur.CheckpointInterval)
	defer tick.Stop()
	for {
		select {
		case <-s.baseCtx.Done():
			return
		case <-tick.C:
			// Errors are counted in checkpointErrors; the loop keeps
			// ticking — a transient disk failure must not end
			// checkpointing for the daemon's lifetime.
			_, _ = s.checkpointNow()
		}
	}
}

// handleCheckpoint serves POST …/checkpoint: an operator-triggered
// inline checkpoint (before planned maintenance, after a bulk load).
func (s *graphInstance) handleCheckpoint(w http.ResponseWriter, _ *http.Request) {
	if s.wlog == nil {
		writeError(w, http.StatusBadRequest, errNotDurable.Error())
		return
	}
	if s.srv.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	e, err := s.checkpointNow()
	switch {
	case errors.Is(err, errCheckpointClosed):
		writeError(w, http.StatusNotFound, "graph deleted")
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, "checkpoint: "+err.Error())
		return
	}
	writeJSON(w, http.StatusOK, struct {
		CheckpointEpoch uint64 `json:"checkpoint_epoch"`
	}{e})
}

// healthDurability is the durability slice of GET …/health.
type healthDurability struct {
	Enabled         bool   `json:"enabled"`
	Recovered       bool   `json:"recovered,omitempty"`
	CheckpointEpoch uint64 `json:"checkpoint_epoch,omitempty"`
	ReplayedBatches uint64 `json:"replayed_batches,omitempty"`
	ReplayedOps     uint64 `json:"replayed_ops,omitempty"`
	TornTail        bool   `json:"torn_tail,omitempty"`
	// Recovery is the whole of what this boot's recovery did, stage
	// timers included.
	Recovery           *RecoveryInfo `json:"recovery,omitempty"`
	WALAppendedBatches uint64        `json:"wal_appended_batches,omitempty"`
	WALFsyncs          uint64        `json:"wal_fsyncs,omitempty"`
	// WALFailed carries the fail-stop cause once the log poisoned
	// itself (write/fsync error, partial-apply divergence): mutations
	// are refused un-acknowledged until the daemon restarts and
	// recovers. Empty while healthy.
	WALFailed string `json:"wal_failed,omitempty"`
}

// handleHealthV1 serves GET …/health: a JSON health document with
// the recovery/durability status a readiness probe or operator wants,
// where /healthz stays the one-byte liveness check.
func (s *graphInstance) handleHealthV1(w http.ResponseWriter, _ *http.Request) {
	status, code := "ok", http.StatusOK
	if s.srv.draining.Load() {
		status, code = "draining", http.StatusServiceUnavailable
	}
	dur := healthDurability{Enabled: s.wlog != nil}
	if s.wlog != nil {
		st := s.wlog.Stats()
		dur.Recovered = s.recovery.Recovered
		dur.CheckpointEpoch = s.ckptEpochGauge.Load()
		dur.ReplayedBatches = s.recovery.ReplayedBatches
		dur.ReplayedOps = s.recovery.ReplayedOps
		dur.TornTail = s.recovery.TornTail
		dur.Recovery = &s.recovery
		dur.WALAppendedBatches = st.Appends
		dur.WALFsyncs = st.Fsyncs
		if werr := s.wlog.Err(); werr != nil {
			dur.WALFailed = werr.Error()
			status = "degraded" // reads serve; mutations 500 until restart
		}
	}
	writeJSON(w, code, struct {
		Graph      string           `json:"graph"`
		Status     string           `json:"status"`
		Epoch      uint64           `json:"epoch"`
		Durability healthDurability `json:"durability"`
	}{s.name, status, s.dyn.Epoch(), dur})
}

// fillDurability adds the durability counters to a metrics snapshot.
func (s *graphInstance) fillDurability(sv *obs.ServerSnapshot, epoch uint64) {
	if s.wlog == nil {
		return
	}
	st := s.wlog.Stats()
	sv.WALAppendedBatches = st.Appends
	sv.WALAppendedOps = st.AppendedOps
	sv.WALFsyncs = st.Fsyncs
	sv.WALErrors = s.met.walErrors.Load()
	sv.Checkpoints = s.met.checkpoints.Load()
	sv.CheckpointErrors = s.met.checkpointErrors.Load()
	ce := s.ckptEpochGauge.Load()
	sv.CheckpointEpoch = ce
	if epoch > ce {
		sv.WALLagEpochs = epoch - ce
	}
	sv.RecoveryReplayedBatches = s.recovery.ReplayedBatches
	sv.RecoveryReplayedOps = s.recovery.ReplayedOps
}
