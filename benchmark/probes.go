package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"tufast"
	"tufast/algorithms"
	"tufast/internal/htm"
	"tufast/internal/mem"
	"tufast/internal/server"
	"tufast/internal/vlock"
	"tufast/internal/wal"
	"tufast/internal/worklist"
)

// The probes price one layer at a time: fixed-iteration loops over the
// layer's exported functions, run only in the traced child, after the
// workload, single-threaded unless stated. They exist so that a change
// can say which layer moved; no end-to-end number comes from them.

// perOp runs fn n times and returns the mean time of one call in ns.
func perOp(n int, fn func(i int)) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

// medianMS runs fn reps times and returns the median duration in ms.
func medianMS(reps int, fn func()) float64 {
	xs := make([]float64, reps)
	for i := range xs {
		t0 := time.Now()
		fn()
		xs[i] = float64(time.Since(t0)) / 1e6
	}
	return median(xs)
}

// probeGraph prices generation, CSR build and the binary round trip of
// the workload's own graph.
func probeGraph(c *runCtx, g *tufast.Graph) {
	c.set("graph.gen_ms", medianMS(3, func() { genGraph(c.w, c.seed) }))
	arcs := arcList(g)
	c.set("graph.build_ms", medianMS(3, func() {
		if _, err := tufast.BuildGraph(g.NumVertices(), arcs, g.Undirected()); err != nil {
			panic(err)
		}
	}))
	path := filepath.Join(mkOutDir(), fmt.Sprintf("probe-%d.bin", os.Getpid()))
	defer os.Remove(path)
	c.set("graph.save_load_ms", medianMS(3, func() {
		if err := g.SaveBinary(path); err != nil {
			panic(err)
		}
		if _, err := tufast.LoadGraphBinary(path); err != nil {
			panic(err)
		}
	}))
}

// rmw8 is the probes' transaction body: read-modify-write of 8 words,
// one per cache line, owned by 8 distinct vertices.
func rmw8(a tufast.Array, base int) func(tx tufast.Tx) error {
	return func(tx tufast.Tx) error {
		for k := 0; k < 8; k++ {
			v, addr := uint32(base+k), a.Addr((base+k)*mem.WordsPerLine)
			tx.Write(v, addr, tx.Read(v, addr)+1)
		}
		return nil
	}
}

// probeRuntime prices mem, htm, core, vlock, worklist and the overlay's
// single-op paths. The thresholds HMaxHint 16 / OMaxHint 64 make the
// size hints 8, 32 and 128 route to H, O and L.
func probeRuntime(c *runCtx, g *tufast.Graph) {
	n := 200_000
	if c.smoke {
		n /= 50
	}
	words := c.sizes["space_words"]
	if words == 0 {
		words = 24*(g.NumVertices()+8) + 4096 // NewSystem's default
	}
	c.set("mem.space_new_ms", medianMS(3, func() { mem.NewSpace(words) }))
	c.set("core.system_new_ms", medianMS(5, func() { tufast.NewSystem(g, tufast.Options{Threads: c.threads}) }))

	sp := mem.NewSpace(1 << 16)
	c.set("mem.read_consistent_ns", perOp(n*8, func(i int) { sp.ReadConsistent(mem.Addr(i & (1<<16 - 1))) }))
	htx := htm.NewTx(sp, nil)
	c.set("htm.tx_rw8_ns", perOp(n, func(i int) {
		htx.Begin()
		base := mem.Addr(i&1023) * 8 * mem.WordsPerLine
		for k := mem.Addr(0); k < 8; k++ {
			v, _ := htx.Read(base + k*mem.WordsPerLine)
			htx.Write(base+k*mem.WordsPerLine, v+1)
		}
		htx.Commit()
	}))

	tiny, err := tufast.BuildGraph(1024, nil, false)
	if err != nil {
		panic(err)
	}
	sys := tufast.NewSystem(tiny, tufast.Options{Threads: c.threads, HMaxHint: 16, OMaxHint: 64, SpaceWords: 1 << 16})
	arr := sys.NewArray(1024 * mem.WordsPerLine)
	bodies := make([]func(tufast.Tx) error, 128) // built once: the loop times Atomic, not closure allocation
	for i := range bodies {
		bodies[i] = rmw8(arr, i*8)
	}
	for _, p := range []struct {
		name string
		hint int
	}{{"core.atomic_h_ns", 8}, {"core.atomic_o_ns", 32}, {"core.atomic_l_ns", 128}} {
		w := sys.Worker()
		c.set(p.name, perOp(n, func(i int) { _ = w.Atomic(p.hint, bodies[i&127]) }))
		sys.Release(w)
	}
	// Hot: T workers, every transaction inside the same 64 words.
	var wg sync.WaitGroup
	t0 := time.Now()
	for t := 0; t < c.threads; t++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := sys.Worker()
			defer sys.Release(w)
			for i := 0; i < n/c.threads; i++ {
				_ = w.Atomic(8, bodies[i&7])
			}
		}()
	}
	wg.Wait()
	c.set("core.atomic_hot_ns", float64(time.Since(t0).Nanoseconds())/float64(n/c.threads*c.threads))

	locks := vlock.NewTable(1024)
	c.set("vlock.lock_unlock_ns", perOp(n*4, func(i int) {
		v := uint32(i & 1023)
		locks.TryExclusive(v, 1)
		locks.ReleaseExclusive(v, 1)
	}))
	q := worklist.NewQueue(c.threads)
	c.set("worklist.push_pop_ns", perOp(n*4, func(i int) {
		q.Push(uint32(i))
		q.Pop()
	}))

	// Overlay single-op paths: short chains (8 inserts per vertex), then
	// a hub whose chain already holds 4096 entries.
	nv, hub := uint32(1<<14), 4096
	if c.smoke {
		nv, hub = 1<<9, 128
	}
	empty, err := tufast.BuildGraph(int(nv), nil, false)
	if err != nil {
		panic(err)
	}
	dsys := tufast.NewSystem(empty, tufast.Options{Threads: c.threads, SpaceWords: tufast.DynSpaceWords(empty, 8*int(nv)+2*hub+1024)})
	dyn := tufast.NewDynGraph(dsys)
	w := dsys.Worker()
	defer dsys.Release(w)
	add := func(u, v uint32) {
		_ = w.Atomic(dyn.MutationHint(u, v), func(tx tufast.Tx) error {
			tx.AddEdge(dyn, u, v)
			return nil
		})
	}
	c.set("dyngraph.add_edge_ns", perOp(8*int(nv-1), func(i int) {
		u := 1 + uint32(i)%(nv-1)
		add(u, (u+1+uint32(i)/(nv-1))%nv)
	}))
	for i := 0; i < hub; i++ {
		add(0, uint32(1+i))
	}
	c.set("dyngraph.add_edge_hub_ns", perOp(hub/8, func(i int) { add(0, uint32(1+hub+i)) }))
}

// probeOverlay prices reading and maintaining dyn's chains as the
// workload's ops left them: a pinned view's Neighbors and Compact, one
// GC pass, and the arena words each effective op cost (usedBefore is
// the arena's fill before the first op).
func probeOverlay(c *runCtx, dyn *tufast.DynGraph, usedBefore int) {
	view := dyn.View()
	var buf []uint32
	nv := dyn.NumVertices()
	c.set("dyngraph.view_neighbors_ns", perOp(nv, func(i int) { buf = view.Neighbors(uint32(i), buf) }))
	c.set("dyngraph.compact_ms", medianMS(3, func() {
		if _, err := view.Compact(); err != nil {
			panic(err)
		}
	}))
	view.Close()
	ins, rem, _ := dyn.MutationStats()
	c.set("dyngraph.arena_words_per_op", float64(dyn.System().Space().Used()-usedBefore)/float64(ins+rem+1))
	t0 := time.Now()
	if _, err := dyn.GCCtx(context.Background(), 0); err != nil {
		panic(err)
	}
	c.set("dyngraph.gc_pass_ms", float64(time.Since(t0))/1e6)
}

// row is one line of a "where the time goes" table.
type row struct {
	name  string
	value float64
}

// printTable prints a table whose rows are per-layer metric names and
// whose last row is what they leave unexplained of total.
func printTable(title, unit string, total float64, rows []row) {
	fmt.Printf("where the time goes: %s (total %.1f %s)\n", title, total, unit)
	rest := total
	for _, r := range rows {
		fmt.Printf("   %-32s %10.1f %s  %5.1f%%\n", r.name, r.value, unit, 100*r.value/total)
		rest -= r.value
	}
	fmt.Printf("   %-32s %10.1f %s  %5.1f%%\n", "unexplained residual", rest, unit, 100*rest/total)
}

// probeWritePath replays serve_write's identical phase-A batches layer
// by layer — straight through ApplyStreamCtx on an identically built
// graph, through Log.Append under each sync policy, and as HTTP bodies
// the server refuses before its bracket — and prints the write-path
// table.
func probeWritePath(c *runCtx, b *writeBed) error {
	w := c.w
	ctx := context.Background()
	dyn := b.mkDyn(b.g)
	usedBefore := dyn.System().Space().Used()
	apply := func(bt batch) error {
		sp := c.tr.begin("tufast.apply_batch", -1, 0)
		defer c.tr.end(sp)
		_, err := dyn.ApplyStreamCtx(ctx, bt.ops, tufast.StreamOptions{})
		return err
	}
	for _, bt := range b.batches[:w.WarmBatches] {
		if err := apply(bt); err != nil {
			return err
		}
	}
	dyn.System().ResetStats()
	closed := b.batches[w.WarmBatches : w.WarmBatches+b.nClosed]
	applyUS := make([]float64, len(closed))
	for i, bt := range closed {
		t0 := time.Now()
		if err := apply(bt); err != nil {
			return err
		}
		applyUS[i] = float64(time.Since(t0)) / 1e3
	}
	c.set("tufast.apply_batch_us", median(applyUS))
	st := dyn.System().StatsSnapshot()
	c.set("tufast.stream_commits_h", float64(st.Mode["H"].Transactions))
	c.set("tufast.stream_commits_o", float64(st.Mode["O"].Transactions+st.Mode["O+"].Transactions))
	c.set("tufast.stream_commits_l", float64(st.Mode["L"].Transactions+st.Mode["O2L"].Transactions))
	probeOverlay(c, dyn, usedBefore)

	for _, pol := range []wal.SyncPolicy{wal.SyncNone, wal.SyncInterval, wal.SyncAlways} {
		batches := closed
		if pol == wal.SyncAlways {
			batches = closed[:min(len(closed), 200)] // an fsync each: the device's number
		}
		dir := filepath.Join(b.root, "wal-"+pol.String())
		log, _, err := wal.Open(dir, wal.Options{Sync: pol})
		if err != nil {
			return err
		}
		us := make([]float64, len(batches))
		for i, bt := range batches {
			sp := c.tr.begin("wal.append_batch", -1, 0)
			t0 := time.Now()
			err := log.Append(uint64(i+1), bt.ops)
			us[i] = float64(time.Since(t0)) / 1e3
			c.tr.end(sp)
			if err != nil {
				return err
			}
		}
		c.set("wal.append_batch_us."+pol.String(), median(us))
		if err := log.Close(); err != nil {
			return err
		}
		if pol != wal.SyncInterval {
			continue
		}
		var bytes int64
		segs, _ := filepath.Glob(filepath.Join(dir, "*"))
		for _, s := range segs {
			if fi, err := os.Stat(s); err == nil {
				bytes += fi.Size()
			}
		}
		ops := len(batches) * w.BatchOps
		c.set("wal.bytes_per_op", float64(bytes)/float64(ops))
		log, _, err = wal.Open(dir, wal.Options{Sync: wal.SyncNone})
		if err != nil {
			return err
		}
		t0 := time.Now()
		err = log.Replay(0, func(uint64, []wal.Op) error { return nil })
		c.set("wal.replay_ops_per_s", float64(ops)/time.Since(t0).Seconds())
		if cerr := log.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}

	// HTTP and decode: requests the server answers 400 before it takes
	// any lock, so they price the transport and the JSON decode alone.
	srv := server.New(dyn, server.Config{Addr: "127.0.0.1:0", JobWorkers: 1, JobThreads: c.threads})
	if err := srv.Start(); err != nil {
		return err
	}
	cl := newClient(srv.Addr(), c.threads)
	bad := make([]tufast.StreamOp, w.BatchOps)
	for i := range bad {
		bad[i] = tufast.StreamOp{U: ^uint32(0), V: ^uint32(0)}
	}
	reps := 2000
	if c.smoke {
		reps /= 50
	}
	refused := func(body []byte) float64 {
		us := make([]float64, reps)
		for i := range us {
			t0 := time.Now()
			status, _ := cl.do("POST", "/v1/edges", body, nil)
			us[i] = float64(time.Since(t0)) / 1e3
			if status != 400 {
				panic(fmt.Sprintf("probe batch answered %d, want 400", status))
			}
		}
		return median(us)
	}
	rtt := refused([]byte(`{"ops":[]}`))
	decode := refused(marshalBatch(bad)) - rtt
	cl.close()
	if err := shutdown(srv); err != nil {
		return err
	}
	c.set("server.http_rtt_us", rtt)
	c.set("server.decode_batch_us", decode)
	total := c.get("closed_write_p50_ms") * 1e3
	rows := []row{
		{"server.http_rtt_us", rtt},
		{"server.decode_batch_us", decode},
		{"tufast.apply_batch_us", c.get("tufast.apply_batch_us")},
		{"wal.append_batch_us.interval", c.get("wal.append_batch_us.interval")},
	}
	residual := total
	for _, r := range rows {
		residual -= r.value
	}
	c.set("server.write_residual_us", residual)
	printTable(fmt.Sprintf("write path per %d-op batch, closed loop, 2 writers", w.BatchOps), "us", total, rows)
	return nil
}

// probeJobPath prices what a serve_mixed job and a hooked batch are
// made of: the overlay as the run left it, a DeltaPageRank seed, and the
// identical phase-S batches straight through ApplyStreamCtx with the
// standing hooks composed; then it prints the job-path table.
func probeJobPath(c *runCtx, g *tufast.Graph, live *tufast.DynGraph, usedBefore int, sBatches []batch, space int) error {
	probeOverlay(c, live, usedBefore)

	ctx := context.Background()
	dyn := tufast.NewDynGraph(tufast.NewSystem(g, tufast.Options{Threads: c.threads, SpaceWords: space}))
	t0 := time.Now()
	pr := algorithms.NewDeltaPageRank(dyn, 0.85, 1e-4)
	if err := pr.Stabilize(); err != nil {
		return err
	}
	c.set("algorithms.delta_pr_seed_ms", float64(time.Since(t0))/1e6)
	// A stabilize after one 16-op batch takes half a second here: the
	// first 24 batches are enough for a median.
	sBatches = sBatches[:min(len(sBatches), 24)]
	hookedUS := make([]float64, len(sBatches))
	stabMS := make([]float64, len(sBatches))
	for i, bt := range sBatches {
		sp := c.tr.begin("tufast.apply_batch_hooked", -1, 0)
		t0 := time.Now()
		_, err := dyn.ApplyStreamCtx(ctx, bt.ops, tufast.StreamOptions{OnEdge: pr.OnEdge, Emit: pr.Emit})
		hookedUS[i] = float64(time.Since(t0)) / 1e3
		c.tr.end(sp)
		if err != nil {
			return err
		}
		sp = c.tr.begin("algorithms.delta_pr_stabilize", -1, 0)
		t0 = time.Now()
		err = pr.Stabilize()
		stabMS[i] = float64(time.Since(t0)) / 1e6
		c.tr.end(sp)
		if err != nil {
			return err
		}
	}
	c.set("tufast.apply_batch_hooked_us", median(hookedUS))
	c.set("algorithms.delta_pr_stabilize_ms", median(stabMS))

	// A job's run is snapshot (Compact) + fresh System + the algorithm.
	run := c.get("server.job_run_ms")
	compact, sysNew := c.get("dyngraph.compact_ms"), c.get("core.system_new_ms")
	printTable("job path per job, 1 closed-loop client beside paced writes", "ms", c.get("job_p50_ms"), []row{
		{"server.job_queued_ms", c.get("server.job_queued_ms")},
		{"dyngraph.compact_ms", compact},
		{"core.system_new_ms", sysNew},
		{"server.job_run_ms - compact - new", run - compact - sysNew},
		{"server.job_poll_gap_ms", c.get("server.job_poll_gap_ms")},
	})
	return nil
}
