// Command tufastd serves graph analytics over a mutable graph as a
// long-running HTTP/JSON daemon: a mutation plane applying batched
// edge updates transactionally and an analytics plane running
// pagerank/cc/sssp/degree jobs asynchronously with admission control,
// per-job deadlines, and an epoch-tagged result cache.
//
// Usage:
//
//	tufastd -addr :8080 -gen-n 100000 -gen-deg 8
//	tufastd -addr :8080 -graph edges.bin -mutations 2000000
//	tufastd -addr :8080 -data-dir /var/lib/tufastd -wal-sync always
//
// Endpoints:
//
//	POST /v1/edges      {"ops":[{"u":1,"v":2},{"u":3,"v":4,"del":true}]}
//	POST /v1/jobs       {"algo":"pagerank","timeout_ms":5000}
//	POST /v1/jobs       {"algo":"pagerank","standing":true}  (resident, delta-maintained)
//	GET  /v1/jobs/{id}  job status and result
//	GET  /v1/standing   resident standing queries and repair state
//	GET  /v1/graph      topology summary and mutation epoch
//	POST /v1/checkpoint write a checkpoint now (durable daemons)
//	GET  /v1/health     JSON health + recovery/durability status
//	GET  /metrics       runtime + serving observability snapshot
//	GET  /healthz       200 while serving, 503 while draining
//
// Multi-graph tenancy: one daemon serves a fleet of named graphs, each
// with its own topology, durability plane, and admission quotas. The
// unnamed routes above alias the reserved "default" graph.
//
//	GET    /v1/graphs              list registered graphs
//	PUT    /v1/graphs/{name}       create (body: vertices, edges | avg_degree, quotas…)
//	DELETE /v1/graphs/{name}       drain, close, and durably remove
//	*      /v1/graphs/{name}/...   every unnamed endpoint, per graph
//
// With -data-dir the daemon is durable: every acknowledged mutation
// batch is appended to a write-ahead log before the 200 (fsync policy
// -wal-sync), checkpoints bound the log, and a restart recovers the
// newest checkpoint plus the WAL tail — a kill at any instant loses at
// most unacknowledged batches.
//
// SIGINT/SIGTERM drains gracefully: admission stops, in-flight jobs
// finish (or are cancelled after the grace period), and the final
// metrics snapshot is flushed to stderr.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"tufast"
	"tufast/internal/server"
	"tufast/internal/wal"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		graphIn    = flag.String("graph", "", "binary graph or edge-list file (overrides -gen-*)")
		genN       = flag.Int("gen-n", 100_000, "generated graph: vertex count")
		genDeg     = flag.Int("gen-deg", 8, "generated graph: average degree")
		genAlpha   = flag.Float64("gen-alpha", 2.1, "generated graph: power-law exponent")
		seed       = flag.Uint64("seed", 1, "generated graph: seed")
		directed   = flag.Bool("directed", false, "keep the graph directed (cc jobs need undirected)")
		threads    = flag.Int("threads", 0, "mutation-plane runtime threads (0 = GOMAXPROCS)")
		jobWorkers = flag.Int("job-workers", 2, "concurrent analytics jobs")
		jobThreads = flag.Int("job-threads", 0, "per-job runtime threads (0 = GOMAXPROCS)")
		queue      = flag.Int("queue", 64, "analytics admission queue depth (full = 429)")
		mutations  = flag.Int("mutations", 1_000_000, "edge-mutation budget the shared space is sized for")
		jobTimeout = flag.Duration("job-timeout", 30*time.Second, "default per-job deadline")
		maxJobs    = flag.Int("max-jobs", 1024, "retained terminal jobs (older results evicted, ids answer 404)")
		maxStand   = flag.Int("max-standing", 8, "resident standing queries (further registrations = 429)")
		drainGrace = flag.Duration("drain-grace", 10*time.Second, "how long a drain lets jobs finish before cancelling")
		dataDir    = flag.String("data-dir", "", "durability directory (WAL + checkpoints + crash recovery); empty = ephemeral")
		walSync    = flag.String("wal-sync", "always", "WAL fsync policy: always (durable acks), interval (bounded loss), none (crash-consistent only)")
		walSyncInt = flag.Duration("wal-sync-interval", 50*time.Millisecond, "fsync period for -wal-sync=interval")
		walSegSize = flag.Int64("wal-segment-bytes", 64<<20, "WAL segment rotation size")
		ckptEvery  = flag.Duration("checkpoint-interval", time.Minute, "background checkpoint period (<0 disables; POST /v1/checkpoint always works)")
		ckptKeep   = flag.Int("checkpoint-keep", 2, "retained checkpoints (older pruned, WAL truncated below the oldest)")
	)
	flag.Parse()

	loadBase := func() (*tufast.Graph, error) {
		return loadGraph(*graphIn, *genN, *genDeg, *genAlpha, *seed, !*directed)
	}
	mkDyn := func(g *tufast.Graph) *tufast.DynGraph {
		fmt.Printf("tufastd: graph |V|=%d |E|=%d maxdeg=%d undirected=%v\n",
			g.NumVertices(), g.NumEdges(), g.MaxDegree(), g.Undirected())
		// Each resident standing query owns vertex arrays in the shared
		// space (3 for delta pagerank, 1 for incremental cc); budget four
		// per slot on top of the mutation-overlay sizing.
		standingWords := *maxStand * 4 * (g.NumVertices() + 8)
		sys := tufast.NewSystem(g, tufast.Options{
			Threads:    *threads,
			SpaceWords: tufast.DynSpaceWords(g, *mutations) + standingWords,
		})
		return tufast.NewDynGraph(sys)
	}
	cfg := server.Config{
		Addr:           *addr,
		JobWorkers:     *jobWorkers,
		JobThreads:     *jobThreads,
		QueueDepth:     *queue,
		DefaultTimeout: *jobTimeout,
		DrainGrace:     *drainGrace,
		MaxJobs:        *maxJobs,
		MaxStanding:    *maxStand,
	}

	var srv *server.Server
	if *dataDir != "" {
		pol, err := wal.ParseSyncPolicy(*walSync)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tufastd:", err)
			os.Exit(2)
		}
		srv, err = server.OpenDurable(cfg, server.DurabilityConfig{
			DataDir:            *dataDir,
			Sync:               pol,
			SyncInterval:       *walSyncInt,
			SegmentBytes:       *walSegSize,
			CheckpointInterval: *ckptEvery,
			CheckpointKeep:     *ckptKeep,
		}, loadBase, mkDyn)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tufastd:", err)
			os.Exit(1)
		}
		rec := srv.Recovery()
		fmt.Printf("tufastd: recovered from %s in %.1f ms: checkpoint epoch %d, replayed %d batches (%d ops)"+
			" (checkpoint load %.1f ms beside wal scan %.1f ms, replay %.1f ms, fold %.1f ms, runtime and arena %.1f ms)",
			*dataDir, rec.RecoverMS, rec.CheckpointEpoch, rec.ReplayedBatches, rec.ReplayedOps,
			rec.CheckpointLoadMS, rec.WALScanMS, rec.ReplayMS, rec.FoldMS, rec.SpaceNewMS)
		if rec.TornTail {
			fmt.Printf(", torn WAL tail truncated")
		}
		if rec.CheckpointFallbacks > 0 {
			fmt.Printf(", %d corrupt checkpoint(s) skipped", rec.CheckpointFallbacks)
		}
		fmt.Println()
		if names := srv.NamedGraphs(); len(names) > 0 {
			fmt.Printf("tufastd: recovered %d named graph(s): %v\n", len(names), names)
		}
	} else {
		g, err := loadBase()
		if err != nil {
			fmt.Fprintln(os.Stderr, "tufastd:", err)
			os.Exit(1)
		}
		srv = server.New(mkDyn(g), cfg)
	}
	if err := srv.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "tufastd:", err)
		os.Exit(1)
	}
	fmt.Printf("tufastd: serving on http://%s (POST /v1/edges, POST /v1/jobs, GET /metrics)\n", srv.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	stop()
	fmt.Fprintln(os.Stderr, "tufastd: draining (finish or cancel in-flight jobs, then exit)")

	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainGrace+30*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		fmt.Fprintln(os.Stderr, "tufastd: shutdown:", err)
	}

	// Flush the final metrics snapshot so a scraped-on-exit deployment
	// still captures the run's totals.
	buf, err := json.MarshalIndent(srv.MetricsSnapshot(), "", "  ")
	if err == nil {
		fmt.Fprintf(os.Stderr, "tufastd: final metrics: %s\n", buf)
	}
}

// loadGraph loads a binary/edge-list graph or generates a power-law
// one; undirected symmetrizes either way.
func loadGraph(path string, n, deg int, alpha float64, seed uint64, undirected bool) (*tufast.Graph, error) {
	if path == "" {
		g := tufast.GeneratePowerLaw(n, n*deg, alpha, seed)
		if undirected {
			g = g.Undirect()
		}
		return g, nil
	}
	if g, err := tufast.LoadGraphBinary(path); err == nil {
		if undirected {
			g = g.Undirect()
		}
		return g, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return tufast.ReadEdgeListGraph(f, 0, undirected)
}
