package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"tufast"
	"tufast/internal/server"
	"tufast/internal/wal"
)

// writeBed is what every serve_write round shares: the base graph on
// disk, the generated batches, and the arena budget. The budget is the
// round's fixed op count x 1.5 through the public DynSpaceWords, sized
// once, so arena exhaustion (ROADMAP 1b) is never what is measured.
type writeBed struct {
	c        *runCtx
	root     string
	basePath string
	g        *tufast.Graph
	batches  []batch
	nClosed  int // batches in phase A
	space    int // SpaceWords of every System the rounds build
}

func (b *writeBed) loadBase() (*tufast.Graph, error) { return tufast.LoadGraphBinary(b.basePath) }

func (b *writeBed) mkDyn(g *tufast.Graph) *tufast.DynGraph {
	return tufast.NewDynGraph(tufast.NewSystem(g, tufast.Options{
		Threads: b.c.threads, SpaceWords: b.space,
	}))
}

// open boots a durable server on dir the way tufastd would, in this
// process: a daemon child plus a loader put four runnable threads on
// two cores and quadrupled the spread of the write throughput.
func (b *writeBed) open(dir string) (*server.Server, error) {
	srv, err := server.OpenDurable(
		server.Config{Addr: "127.0.0.1:0", JobWorkers: 1, JobThreads: b.c.threads},
		server.DurabilityConfig{DataDir: dir, Sync: wal.SyncInterval, CheckpointInterval: -1},
		b.loadBase, b.mkDyn)
	if err != nil {
		return nil, err
	}
	if err := srv.Start(); err != nil {
		return nil, err
	}
	return srv, nil
}

// shutdown drains srv and then hands its heap back to the system. A
// server's arena is hundreds of megabytes; left to the collector's own
// timing, whether the next server's arena lands on fresh pages or on a
// dead one's decided both peak_rss_mb (955-985 MB over four runs this
// way, 1055-1177 MB with a plain collection) and how long the next open
// and the recovery spent finding memory.
func shutdown(srv *server.Server) error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := srv.Shutdown(ctx)
	debug.FreeOSMemory()
	return err
}

// writeRound is what one serve_write round measured.
type writeRound struct {
	setupS       float64
	closedS      float64   // phase A elapsed
	closedMS     []float64 // phase A per-batch latency
	pacedMS      []float64 // phase B latency from the due time
	lateMS       []float64
	checkpointMS float64
	recoverS     float64
	fsyncs       uint64
}

// closedLoop sends batches from clients writers, each sending its next
// batch only after the previous answer; onAck(i) runs after batch i is
// acknowledged. It returns each batch's latency in ms.
func closedLoop(c *runCtx, cl *client, batches []batch, clients int, sum *ackSum,
	span string, onAck func(i int)) []float64 {
	lat := make([]float64, len(batches))
	root := c.tr.begin(span, -1, 0)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(batches) {
					return
				}
				t0 := time.Now()
				postBatch(c, cl, batches[i], sum, root, int64(i+1))
				lat[i] = float64(time.Since(t0)) / 1e6
				if onAck != nil {
					onAck(i)
				}
			}
		}()
	}
	wg.Wait()
	c.tr.end(root)
	return lat
}

// recover times durable open + Start + first healthy answer on a crash
// image, then holds the recovered server to what was acknowledged:
// its epoch is the last acknowledged epoch, and its live arcs are what
// the live server held before the copy and what base + acks predict.
func (b *writeBed) recover(image string, live, want graphInfo) (float64, error) {
	c := b.c
	sp := c.tr.begin("recover", -1, 0)
	t0 := time.Now()
	srv, err := b.open(image)
	if err != nil {
		return 0, err
	}
	cl := newClient(srv.Addr(), c.threads)
	defer cl.close()
	status, err := cl.do("GET", "/v1/health", nil, nil)
	seconds := time.Since(t0).Seconds()
	c.tr.end(sp)
	c.op(succeeded(status, err))

	rec, err := getGraph(cl)
	if err != nil {
		return 0, err
	}
	switch {
	case rec.Epoch != want.Epoch:
		err = fmt.Errorf("recovered epoch %d, last acknowledged %d", rec.Epoch, want.Epoch)
	case rec.LiveArcs != live.LiveArcs || rec.LiveArcs != want.LiveArcs:
		err = fmt.Errorf("live arcs: recovered %d, before the copy %d, base+acks %d", rec.LiveArcs, live.LiveArcs, want.LiveArcs)
	}
	c.oracle("recovery", err)
	if err := shutdown(srv); err != nil {
		return 0, err
	}
	return seconds, os.RemoveAll(image)
}

// round runs one serve_write round on a fresh data dir and server.
func (b *writeBed) round(r int) (writeRound, error) {
	c, w := b.c, b.c.w
	var out writeRound
	t0 := time.Now()
	dir := filepath.Join(b.root, fmt.Sprintf("round-%d", r))
	srv, err := b.open(dir)
	if err != nil {
		return out, err
	}
	cl := newClient(srv.Addr(), c.threads)
	defer cl.close()
	var sum ackSum
	closedLoop(c, cl, b.batches[:w.WarmBatches], 2, &sum, "warmup", nil)
	out.setupS = time.Since(t0).Seconds()

	// Phase A: closed loop, 2 writers, a fixed number of ops; a third
	// goroutine checkpoints once, when the midpoint batch is acknowledged,
	// so the crash image's WAL tail is half of A plus all of B.
	closed := b.batches[w.WarmBatches : w.WarmBatches+b.nClosed]
	var ckpt sync.WaitGroup
	t0 = time.Now()
	out.closedMS = closedLoop(c, cl, closed, 2, &sum, "phase_a", func(i int) {
		if i != b.nClosed/2 {
			return
		}
		ckpt.Add(1)
		go func() {
			defer ckpt.Done()
			sp := c.tr.begin("http.post_checkpoint", -1, 0)
			t := time.Now()
			status, err := cl.do("POST", "/v1/checkpoint", nil, nil)
			out.checkpointMS = float64(time.Since(t)) / 1e6
			c.tr.end(sp)
			c.op(succeeded(status, err))
		}()
	})
	out.closedS = time.Since(t0).Seconds()
	ckpt.Wait()

	// Phase B: open loop at a fixed rate, latency from the due time.
	paced := b.batches[w.WarmBatches+b.nClosed:]
	out.pacedMS = make([]float64, len(paced))
	root := c.tr.begin("phase_b", -1, 0)
	out.lateMS = pace(w.PacedRate, len(paced), nil, func(i int, due time.Time) {
		postBatch(c, cl, paced[i], &sum, root, int64(i+1))
		out.pacedMS[i] = sinceMS(due)
	})
	c.tr.end(root)
	if !c.scheduleKept(fmt.Sprintf("round %d", r), out.lateMS, w.PacedRate) {
		out.pacedMS = nil // the other rounds' are still reported
	}

	// Quiescent: read what the live server holds, copy its data dir (the
	// crash image: no shutdown checkpoint, WAL tail intact), then stop it.
	c.roundDone()
	live, err := getGraph(cl)
	if err != nil {
		return out, err
	}
	out.fsyncs = srv.MetricsSnapshot().Server.WALFsyncs
	image := dir + "-crash"
	if err := copyTree(dir, image); err != nil {
		return out, err
	}
	if err := shutdown(srv); err != nil {
		return out, err
	}
	want := graphInfo{LiveArcs: b.g.NumEdges() + sum.inserted - sum.removed, Epoch: sum.lastEpoch}
	if out.recoverS, err = b.recover(image, live, want); err != nil {
		return out, err
	}
	return out, os.RemoveAll(dir)
}

// runServeWrite is the serve_write workload: rounds identical rounds
// from the same initial state, every reported number an order statistic
// over them.
func runServeWrite(c *runCtx) error {
	w := c.w
	root, err := os.MkdirTemp(mkOutDir(), "serve_write-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(root)
	g := genGraph(w, c.seed)
	nClosed := (w.ClosedOps + w.BatchOps - 1) / w.BatchOps
	total := w.WarmBatches + nClosed + w.PacedBatches
	b := &writeBed{
		c: c, root: root, basePath: filepath.Join(root, "base.bin"), g: g,
		batches: genBatches(g, c.seed, total, w.BatchOps),
		nClosed: nClosed,
		space:   tufast.DynSpaceWords(g, total*w.BatchOps*3/2),
	}
	if err := g.SaveBinary(b.basePath); err != nil {
		return err
	}
	c.sizes["vertices"], c.sizes["arcs"], c.sizes["max_degree"] = g.NumVertices(), g.NumEdges(), g.MaxDegree()
	c.sizes["closed_ops"], c.sizes["paced_batches"], c.sizes["space_words"] = nClosed*w.BatchOps, w.PacedBatches, b.space
	once := time.Since(c.start).Seconds()

	var rounds []writeRound
	cpu0 := cpuSeconds()
	for r := 0; r < c.w.Rounds; r++ {
		wr, err := b.round(r)
		if err != nil {
			return fmt.Errorf("round %d: %w", r, err)
		}
		rounds = append(rounds, wr)
	}
	c.set("process.cpu_s", cpuSeconds()-cpu0)

	// Set-up is the one-time part plus the median of the per-round part
	// (fresh dir, durable open, Start, warm-up): several set-ups, one median.
	c.setMedian("setup_s", pluck(rounds, func(wr writeRound) float64 { return once + wr.setupS }))
	// The two bounded measurements are the fast-side quartile over the
	// rounds, not their median (see fastQuartile): of eight identical
	// rounds, a value between the second- and the third-best.
	rates := pluck(rounds, func(wr writeRound) float64 { return float64(nClosed*w.BatchOps) / wr.closedS })
	c.setOver("write_ops_per_s", fastQuartile(rates, true), rates)
	var pooled, late []float64
	for _, wr := range rounds {
		pooled = append(pooled, wr.pacedMS...)
		late = append(late, wr.lateMS...)
	}
	c.set("closed_write_p50_ms", roundMedian(pluck(rounds, func(wr writeRound) []float64 { return wr.closedMS }), median))
	c.set("write_p50_ms", roundMedian(pluck(rounds, func(wr writeRound) []float64 { return wr.pacedMS }), median))
	recoveries := pluck(rounds, func(wr writeRound) float64 { return wr.recoverS })
	c.setOver("recover_s", fastQuartile(recoveries, false), recoveries)
	c.setMedian("server.checkpoint_ms", pluck(rounds, func(wr writeRound) float64 { return wr.checkpointMS }))
	_, tail := tailPercentile(pooled)
	c.set("server.write_tail_ms", tail)
	c.set("loadgen.late_p99_ms", percentile(late, 0.99))
	c.set("wal.fsyncs", float64(rounds[len(rounds)-1].fsyncs))

	if c.tr != nil {
		probeGraph(c, g)
		probeRuntime(c, g)
		if err := probeWritePath(c, b); err != nil {
			return err
		}
	}
	return nil
}

// mkOutDir creates the benchmark's scratch directory inside the
// checkout and returns it.
func mkOutDir() string {
	_ = os.MkdirAll(outDir, 0o755)
	return outDir
}

// copyTree copies the regular files and directories under src to dst.
func copyTree(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}
