package server

import (
	"sync/atomic"

	"tufast/internal/obs"
)

// metrics holds the serving-layer counters: lock-free atomics on the
// hot paths, folded into an obs.ServerSnapshot (and from there into the
// system MetricsSnapshot and the /metrics endpoint) on demand.
type metrics struct {
	admitted  atomic.Uint64
	rejected  atomic.Uint64
	cacheHits atomic.Uint64

	// quotaRejected counts admissions refused 429 by this graph's
	// tenant quotas (inflight-job cap or mutation-rate bucket) —
	// distinct from rejected, which is shared-pool backpressure.
	quotaRejected atomic.Uint64

	completed atomic.Uint64
	failed    atomic.Uint64
	deadline  atomic.Uint64
	canceled  atomic.Uint64

	// mutBatches counts accepted batches, mutOps the ops they carried.
	mutBatches atomic.Uint64
	mutOps     atomic.Uint64

	// Standing-query plane: reads served from resident results, repair
	// cycles completed, seed-time (or retried) CC recomputes, and
	// localized delete repairs that replaced them.
	standingHits          atomic.Uint64
	standingRepairs       atomic.Uint64
	standingRecomputes    atomic.Uint64
	standingDeleteRepairs atomic.Uint64

	// Durability plane: appends that failed (the batch committed in
	// memory but was answered 5xx), checkpoints written, and checkpoint
	// attempts that errored. Append/fsync counts live in the wal
	// package's own counters and are folded in by fillDurability.
	walErrors        atomic.Uint64
	checkpoints      atomic.Uint64
	checkpointErrors atomic.Uint64

	// MVCC chain GC: passes that rewrote at least one chain, the total
	// chains compacted, and passes abandoned on a transient error (the
	// loop keeps ticking; only shutdown stops it).
	gcPasses atomic.Uint64
	gcChains atomic.Uint64
	gcErrors atomic.Uint64

	jobLatency obs.Histogram
	// batchLatency times an answered mutation batch from handler entry
	// to the response written; batchStages splits it (see stageDecode).
	batchLatency obs.Histogram
	batchStages  [numBatchStages]obs.Histogram
	// repairLag times batch-commit → standing-result-published.
	repairLag obs.Histogram
	// snapshotFolded and snapshotFull time the job snapshots built by
	// folding the previous one forward and by compacting the whole
	// overlay.
	snapshotFolded obs.Histogram
	snapshotFull   obs.Histogram
}

// snapshot captures the counters plus the gauges the caller supplies
// (queue state, the graph's current mutation epoch, and the standing
// registry's population).
func (m *metrics) snapshot(queueDepth, queueCap int, epoch uint64, standing, standingRepairing int) *obs.ServerSnapshot {
	return &obs.ServerSnapshot{
		Admitted:              m.admitted.Load(),
		Rejected:              m.rejected.Load(),
		QuotaRejected:         m.quotaRejected.Load(),
		CacheHits:             m.cacheHits.Load(),
		Completed:             m.completed.Load(),
		Failed:                m.failed.Load(),
		DeadlineExceeded:      m.deadline.Load(),
		Canceled:              m.canceled.Load(),
		MutationBatches:       m.mutBatches.Load(),
		MutationOps:           m.mutOps.Load(),
		Epoch:                 epoch,
		QueueDepth:            queueDepth,
		QueueCap:              queueCap,
		StandingQueries:       standing,
		StandingRepairing:     standingRepairing,
		StandingHits:          m.standingHits.Load(),
		StandingRepairs:       m.standingRepairs.Load(),
		StandingRecomputes:    m.standingRecomputes.Load(),
		StandingDeleteRepairs: m.standingDeleteRepairs.Load(),
		GCPasses:              m.gcPasses.Load(),
		GCChains:              m.gcChains.Load(),
		GCErrors:              m.gcErrors.Load(),
		JobLatency:            m.jobLatency.Snapshot(),
		BatchLatency:          m.batchLatency.Snapshot(),
		BatchStages: obs.BatchStagesSnapshot{
			Decode:   m.batchStages[stageDecode].Snapshot(),
			Admit:    m.batchStages[stageAdmit].Snapshot(),
			LockWait: m.batchStages[stageLockWait].Snapshot(),
			Apply:    m.batchStages[stageApply].Snapshot(),
			WAL:      m.batchStages[stageWAL].Snapshot(),
			Standing: m.batchStages[stageStanding].Snapshot(),
			Respond:  m.batchStages[stageRespond].Snapshot(),
		},
		RepairLag:      m.repairLag.Snapshot(),
		SnapshotFolded: m.snapshotFolded.Snapshot(),
		SnapshotFull:   m.snapshotFull.Snapshot(),
	}
}
