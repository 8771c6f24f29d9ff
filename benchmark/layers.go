package main

// perLayer lists the metrics of the traced run, one module prefix per
// layer. Moves says which end-to-end measurement each should move and
// on which workload; it is written down before anything is measured so
// a later change can be checked against it. Counts come from the
// snapshots the program exports; _ns/_us/_ms probes are fixed-iteration
// loops over a layer's exported functions, single-threaded unless
// stated. A metric that does not exist on a workload reads 0 there.
var perLayer = []metric{
	// Issue 14's end-to-end names that did not hold a 0.10 bound against
	// themselves on the reference box: measured in every run, traced or
	// not, printed in the report, and not bounded (README has the numbers).
	{Name: "write_p50_ms", Unit: "ms", Better: "lower", Moves: "batch latency from the due time, serve_write phase B (per round, then the median) and serve_mixed phase H; a 1.4 ms round trip whose median rests on the wake-up of parked threads"},
	{Name: "standing_read_p50_ms", Unit: "ms", Better: "lower", Moves: "inline standing hit round trip from the due time, serve_mixed phase S; a sub-millisecond loopback round trip"},
	{Name: "standing_write_p50_ms", Unit: "ms", Better: "lower", Moves: "serve_mixed phase S: batch latency from the due time with the standing hook attached, every batch contending with the repair worker"},

	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Moves: "VmHWM of the workload's child process at exit. Issue 14's memory metric; identical serve_mixed runs read 273-300 MB and once 452 MB (where collection cycles fall), so live_heap_mb is bounded in its place"},
	{Name: "closed_write_p50_ms", Unit: "ms", Better: "lower", Moves: "write_ops_per_s serve_write: a phase-A batch's latency with 2 closed-loop writers; the total of the write-path table"},

	{Name: "graph.gen_ms", Unit: "ms", Better: "lower", Moves: "setup_s, all workloads"},
	{Name: "graph.build_ms", Unit: "ms", Better: "lower", Moves: "setup_s all; job_p50_ms serve_mixed (every snapshot rebuilds a CSR)"},
	{Name: "graph.save_load_ms", Unit: "ms", Better: "lower", Moves: "setup_s, recover_s serve_write"},

	{Name: "mem.space_new_ms", Unit: "ms", Better: "lower", Moves: "setup_s; job_p50_ms serve_mixed (arena of the workload's size)"},
	{Name: "mem.read_consistent_ns", Unit: "ns", Better: "lower", Moves: "suite_p50_s lib_skew"},

	{Name: "htm.tx_rw8_ns", Unit: "ns", Better: "lower", Moves: "suite_p50_s lib_flat first; write_ops_per_s (Begin, 8 reads, 8 writes, Commit on disjoint lines)"},
	{Name: "htm.starts", Unit: "count", Better: "lower", Moves: "suite_p50_s lib_skew"},
	{Name: "htm.commits", Unit: "count", Better: "higher", Moves: "suite_p50_s lib_skew"},
	{Name: "htm.abort_conflict", Unit: "count", Better: "lower", Moves: "suite_p50_s lib_skew"},
	{Name: "htm.abort_capacity", Unit: "count", Better: "lower", Moves: "suite_p50_s lib_skew"},
	{Name: "htm.abort_explicit", Unit: "count", Better: "lower", Moves: "suite_p50_s lib_skew"},
	{Name: "htm.abort_locked", Unit: "count", Better: "lower", Moves: "suite_p50_s lib_skew"},

	{Name: "core.atomic_h_ns", Unit: "ns", Better: "lower", Moves: "suite_p50_s lib_flat; write_ops_per_s (uncontended 8-word read-modify-write routed to H)"},
	{Name: "core.atomic_o_ns", Unit: "ns", Better: "lower", Moves: "suite_p50_s lib_skew (same, routed to O)"},
	{Name: "core.atomic_l_ns", Unit: "ns", Better: "lower", Moves: "suite_p50_s lib_skew; write_ops_per_s hub ops (same, routed to L)"},
	{Name: "core.atomic_hot_ns", Unit: "ns", Better: "lower", Moves: "suite_p50_s lib_skew (T workers on 64 shared words)"},
	{Name: "core.system_new_ms", Unit: "ms", Better: "lower", Moves: "job_p50_ms serve_mixed; setup_s"},
	{Name: "core.commits_h", Unit: "count", Better: "higher", Moves: "suite_p50_s"},
	{Name: "core.commits_o", Unit: "count", Better: "higher", Moves: "suite_p50_s lib_skew"},
	{Name: "core.commits_oplus", Unit: "count", Better: "higher", Moves: "suite_p50_s lib_skew"},
	{Name: "core.commits_o2l", Unit: "count", Better: "lower", Moves: "suite_p50_s lib_skew"},
	{Name: "core.commits_l", Unit: "count", Better: "higher", Moves: "suite_p50_s lib_skew"},
	{Name: "core.abort_frac", Unit: "ratio", Better: "lower", Moves: "suite_p50_s lib_skew (aborted attempts / all attempts)"},
	{Name: "core.ops_per_s", Unit: "1/s", Better: "higher", Moves: "diagnostic only: committed reads+writes per second; removing redundant work lowers it"},
	{Name: "core.period_final", Unit: "count", Better: "higher", Moves: "suite_p50_s lib_skew (adaptive O-mode segment length at the end)"},

	{Name: "sched.deadlocks", Unit: "count", Better: "lower", Moves: "suite_p50_s lib_skew"},
	{Name: "vlock.lock_unlock_ns", Unit: "ns", Better: "lower", Moves: "suite_p50_s lib_skew"},
	{Name: "worklist.push_pop_ns", Unit: "ns", Better: "lower", Moves: "suite_p50_s lib_skew and lib_flat"},

	{Name: "algorithms.pagerank_ms", Unit: "ms", Better: "lower", Moves: "suite_p50_s (median per suite)"},
	{Name: "algorithms.cc_ms", Unit: "ms", Better: "lower", Moves: "suite_p50_s"},
	{Name: "algorithms.spfa_ms", Unit: "ms", Better: "lower", Moves: "suite_p50_s"},
	{Name: "algorithms.kcore_ms", Unit: "ms", Better: "lower", Moves: "suite_p50_s"},
	{Name: "algorithms.mis_ms", Unit: "ms", Better: "lower", Moves: "suite_p50_s"},
	{Name: "algorithms.delta_pr_seed_ms", Unit: "ms", Better: "lower", Moves: "server.standing_register_s serve_mixed"},
	{Name: "algorithms.delta_pr_stabilize_ms", Unit: "ms", Better: "lower", Moves: "standing_write_p50_ms serve_mixed (per 64-op batch)"},

	{Name: "dyngraph.add_edge_ns", Unit: "ns", Better: "lower", Moves: "write_ops_per_s (chains of at most 8 entries)"},
	{Name: "dyngraph.add_edge_hub_ns", Unit: "ns", Better: "lower", Moves: "write_ops_per_s (4096-entry chain)"},
	{Name: "dyngraph.view_neighbors_ns", Unit: "ns", Better: "lower", Moves: "job_p50_ms serve_mixed; recover_s"},
	{Name: "dyngraph.compact_ms", Unit: "ms", Better: "lower", Moves: "job_p50_ms serve_mixed; recover_s; server.checkpoint_ms (GraphView.Compact after the workload's ops)"},
	{Name: "dyngraph.gc_pass_ms", Unit: "ms", Better: "lower", Moves: "write_p50_ms"},
	{Name: "dyngraph.arena_words_per_op", Unit: "words", Better: "lower", Moves: "live_heap_mb, peak_rss_mb serve_*"},

	{Name: "tufast.apply_batch_us", Unit: "us", Better: "lower", Moves: "write_ops_per_s, write_p50_ms (the identical phase-A batches straight through ApplyStreamCtx)"},
	{Name: "tufast.apply_batch_hooked_us", Unit: "us", Better: "lower", Moves: "standing_write_p50_ms serve_mixed (same, DeltaPageRank hooks composed)"},
	{Name: "tufast.stream_commits_h", Unit: "count", Better: "higher", Moves: "write_ops_per_s"},
	{Name: "tufast.stream_commits_o", Unit: "count", Better: "lower", Moves: "write_ops_per_s"},
	{Name: "tufast.stream_commits_l", Unit: "count", Better: "lower", Moves: "write_ops_per_s"},

	{Name: "wal.append_batch_us.none", Unit: "us", Better: "lower", Moves: "write_ops_per_s (encode + write)"},
	{Name: "wal.append_batch_us.interval", Unit: "us", Better: "lower", Moves: "write_ops_per_s (the policy serve_write runs)"},
	{Name: "wal.append_batch_us.always", Unit: "us", Better: "lower", Moves: "the device's fsync; reported, never claimed on"},
	{Name: "wal.bytes_per_op", Unit: "B", Better: "lower", Moves: "recover_s"},
	{Name: "wal.replay_ops_per_s", Unit: "1/s", Better: "higher", Moves: "recover_s"},
	{Name: "wal.fsyncs", Unit: "count", Better: "lower", Moves: "write_ops_per_s"},

	{Name: "server.http_rtt_us", Unit: "us", Better: "lower", Moves: "write_ops_per_s; standing_read_p50_ms (an empty batch answered 400)"},
	{Name: "server.decode_batch_us", Unit: "us", Better: "lower", Moves: "write_ops_per_s (a full out-of-range batch answered 400 before the bracket, minus rtt)"},
	{Name: "server.write_residual_us", Unit: "us", Better: "lower", Moves: "write_ops_per_s (closed-loop batch p50 - rtt - decode - apply - append: lock wait and bookkeeping)"},
	{Name: "server.write_tail_ms", Unit: "ms", Better: "lower", Moves: "diagnostic: phase B pooled over rounds, the highest of p90/p95/p99/p99.9 with ten samples beyond it (p95 at 360 samples); tails moved 30% between identical runs"},
	{Name: "server.checkpoint_ms", Unit: "ms", Better: "lower", Moves: "write_p50_ms serve_write"},
	{Name: "server.job_queued_ms", Unit: "ms", Better: "lower", Moves: "job_p50_ms, jobs_per_s"},
	{Name: "server.job_run_ms", Unit: "ms", Better: "lower", Moves: "job_p50_ms, jobs_per_s"},
	{Name: "server.job_poll_gap_ms", Unit: "ms", Better: "lower", Moves: "job_p50_ms (client-observed minus queued minus run)"},
	{Name: "server.standing_register_s", Unit: "s", Better: "lower", Moves: "serve_mixed set-up of phase S"},
	{Name: "server.standing_repair_lag_p50_ms", Unit: "ms", Better: "lower", Moves: "standing_read freshness, serve_mixed"},
	{Name: "server.standing_repairs", Unit: "count", Better: "higher", Moves: "standing_write_p50_ms"},
	{Name: "server.gc_passes", Unit: "count", Better: "higher", Moves: "write_p50_ms serve_mixed"},
	{Name: "server.gc_chains", Unit: "count", Better: "higher", Moves: "write_p50_ms serve_mixed"},
	{Name: "server.cache_hits", Unit: "count", Better: "lower", Moves: "expected 0: every job must compute"},
	{Name: "server.rejected_429", Unit: "count", Better: "lower", Moves: "expected 0: a refusal is a failed operation"},

	{Name: "loadgen.late_p99_ms", Unit: "ms", Better: "lower", Moves: "validity: how late the open-loop generator fired; a paced stream whose p95 exceeds one send interval has its samples dropped"},
	{Name: "process.cpu_s", Unit: "s", Better: "lower", Moves: "user+sys over the main phase"},
	{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower", Moves: "time spent recording spans (count x calibrated cost of one) as a share of the traced child's run"},
	{Name: "trace.headline_ratio", Unit: "ratio", Better: "lower", Moves: "traced over untraced headline time (suite, phase A, phase H) of the same invocation; two runs of the same code differ by a few percent, so this bounds the overhead only that loosely"},
}
