#!/bin/sh
# check.sh — the repo's pre-merge gate: formatting, vet, the
# transaction- and concurrency-contract analyzer suite (tufastcheck,
# with -strict-ignores), the test suite under the race detector (short
# profile, one run, failures summarised by cmd/testsummary), the arena's
# platform split and its finalizer, the paper's application figures once,
# the builder and edge-list loader fuzzed, and the serializability
# oracles again under oversubscription.
# Run from the repo root or anywhere inside it; `make check` is an
# alias and `make lint` runs the analyzer stage alone.
set -eu

# Fail fast, and clearly, if the toolchain is missing rather than
# letting the first stage die with a cryptic "not found".
for tool in go gofmt; do
    if ! command -v "$tool" >/dev/null 2>&1; then
        echo "check.sh: required tool '$tool' not found in PATH" >&2
        echo "check.sh: install the Go toolchain (go 1.22+) and retry" >&2
        exit 2
    fi
done

cd "$(dirname "$0")/.."

stage_start=0
begin() {
    echo "== $1 =="
    stage_start=$(date +%s)
}
end() {
    echo "ok ($(($(date +%s) - stage_start))s)"
}

begin "gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi
end

begin "go vet"
go vet ./...
end

begin "tufastcheck"
# -strict-ignores also fails on stale //tufast:ignore directives, so
# suppressions are deleted when the finding they excused is gone.
go run ./cmd/tufastcheck -strict-ignores ./...
end

# The serving binaries' dependency set can only shrink: neither the
# daemon nor the load generator links the paper-reproduction harness,
# the baseline schedulers, the comparison engines or the reproduction's
# cost model. internal/sched, the TM contract the daemon runs, imports
# neither the cost model nor the emulated HTM the baselines use.
begin "serving binaries link no reproduction code"
if go list -deps ./cmd/tufastd ./cmd/tufast-loadgen | grep -E '^tufast/internal/(baselines|bench|engines|simcost)'; then
    echo "cmd/tufastd or cmd/tufast-loadgen links the packages above" >&2
    exit 1
fi
if go list -f '{{join .Imports " "}}' ./internal/sched | tr ' ' '\n' | grep -E '^tufast/internal/(simcost|htm)$'; then
    echo "internal/sched imports the packages above" >&2
    exit 1
fi
end

# One run of the whole suite under the race detector. The summariser
# prints a line per package as it finishes and, on failure, every
# failing test grouped by package under the output it produced, so the
# crash matrix (TestCrashRecovery*), the tenancy suite (TestTenancy*)
# and the MVCC view oracle (TestMVCCViewOracle) fail with their own
# diagnostics without being run a second time by name; FuzzDecodeBatch's
# seed corpus runs here as ordinary tests. The pipe's status is the
# summariser's, which is 1 on any failure. internal/algo runs on its own
# line after the rest: every scheduler times every algorithm there, and
# under the race detector that alone takes 8 to 10 minutes on a 2-core
# box (longer beside the other packages), at go test's default
# per-binary timeout of ten. Its own is twice that.
begin "go test -race (short)"
go test -race -short -json $(go list ./... | grep -v '^tufast/internal/algo$') | go run ./cmd/testsummary
go test -race -short -timeout 20m -json ./internal/algo | go run ./cmd/testsummary
end

# The graph builder against its map-and-sort reference, and the edge-list
# loader on arbitrary text, fuzzed ten seconds each on two workers past
# the seed corpora in internal/graph/testdata/fuzz (which the stage above
# runs as ordinary tests). A failing input is written there for the next
# run to repeat.
begin "fuzz Build and ReadEdgeList (10s each)"
go test -run '^$' -fuzz '^FuzzBuild$' -fuzztime 10s -parallel 2 ./internal/graph
go test -run '^$' -fuzz '^FuzzReadEdgeList$' -fuzztime 10s -parallel 2 ./internal/graph
end

# mem.Space maps its arena where the platform can and allocates it where
# it cannot: build the side this box never runs (everything but
# benchmark/, which reads rusage and is linux-only) and vet the other
# unix. Then the tests that drop mapped arenas, ten times with a
# collection after nearly every allocation: a finalizer that unmaps an
# arena something still reads is a fault here, not a rumour. Beside the
# recovery tests (TestReplayOwnedMatchesLiveServer among them), a
# checkpoint, the fold of the previous checkpoint and the log, is held
# to a compaction of the live graph, a deleted graph's checkpoint to the
# graph re-created in its directory, and the log's Replay and Tail
# run twenty times beside appends that rotate segments; the fold
# recovery is built on runs twenty times against ApplyOwned, and twenty
# times at 1, 2 and 4 workers against an op-by-op model, and an owned
# batch that runs the arena out twenty times, both on batches that apply
# on the caller's goroutine and on batches that fan out; the job
# snapshot's fold from the previous snapshot twenty times against a full
# compaction, across a GC pass's rebuild and beside one; chain GC
# twenty times as the batch it is (passes beside owned batches, taking
# turns with batches on the batch lock, running the arena out), and the
# standing computations' repair oracle twenty times: PageRank and CC
# repaired at a pinned view while owned batches land beside the repair,
# at 1, 2 and 4 threads.
begin "arena fallback cross-compiles; finalizers under GOGC=1 -race"
GOOS=windows go build $(go list -f '{{if .GoFiles}}{{.ImportPath}}{{end}}' ./... | grep -v '^tufast/benchmark$')
GOOS=darwin go vet ./internal/mem
GOGC=1 go test -race -count=10 ./internal/mem
GOGC=1 go test -race -count=10 -run 'TestCrashRecovery|TestTenancyCrashRecovery|TestReplay|TestCheckpointFoldMatchesCompact|TestStaleCheckpointAfterRecreate' ./internal/server
go test -race -count=20 -run 'TestReplayBesideAppend' ./internal/wal
go test -race -count=20 -run 'TestFoldMatchesApplyOwned|TestApplyOwnedPanicBreaksGraph|TestFoldParallelMatchesSerial|TestCompactFromDifferential|TestCompactFromGCHazard|TestCompactFromBesideGC' . ./internal/dyngraph
go test -race -count=20 -run 'TestApplyOwnedBesideGC|TestGCPassTakesTurnsWithBatches|TestGCRunningArenaOut' .
go test -race -count=20 -run 'TestRepairExactAtPinnedEpoch' ./algorithms
end

# The benchmarks EXPERIMENTS quotes, one iteration each, so they at least
# keep compiling and running: the write path's (the owned batch's sweep
# of inline against fanned-out among them), the recovery fold's at one
# and two threads and its inline cutoff's table, recovery's stage
# timers on a data dir of serve_write's shape, the H-mode fast path's
# "shares nothing" number, the Fig. 13/14 RM and RW cells, and the
# per-scheduler transactions those cells are built from, the lib
# suite's calls at 1 and 2 threads on small graphs of both shapes, and
# the graph builder and R-MAT generator behind every workload's set-up.
begin "benchmarks run (1x)"
go test -run '^$' -bench 'BenchmarkApplyStream(Leaf|Hub)$' -benchtime 1x . >/dev/null
go test -run '^$' -bench 'BenchmarkApplyOwned$' -benchtime 1x . >/dev/null
go test -run '^$' -bench 'BenchmarkFold' -benchtime 1x ./internal/dyngraph >/dev/null
go test -run '^$' -bench 'BenchmarkDecodeBatch256$|BenchmarkRecover$' -benchtime 1x ./internal/server >/dev/null
go test -run '^$' -bench 'BenchmarkHCommitDisjoint$' -benchtime 1x ./internal/core >/dev/null
go test -run '^$' -bench 'Benchmark(RM|RW)$' -benchtime 1x ./internal/bench >/dev/null
go test -run '^$' -bench 'BenchmarkLibSuite$' -benchtime 1x -short ./internal/bench >/dev/null
go test -run '^$' -bench 'Benchmark(2PL|OCC|TO|STM|HSync|HTO)Txn$|BenchmarkTPLReadThenWrite' -benchtime 1x ./internal/sched >/dev/null
go test -run '^$' -bench 'BenchmarkBuild$|BenchmarkRMAT$' -benchtime 1x ./internal/graph ./internal/graph/gen >/dev/null
end

# The paper's application figures, once at -short on two threads. Every
# row of Fig. 11 and 12 runs through internal/bench's table of systems,
# and a row or cell that fails is left empty with a note that says so:
# such a note fails the stage, as does a non-zero exit.
begin "paper figures run (fig11 fig12 -short)"
figs=$(go run ./cmd/tufast-bench -short -threads 2 fig11 fig12)
if echo "$figs" | grep 'note: .*failed'; then
    echo "a Fig. 11/12 row or cell failed" >&2
    exit 1
fi
end

# Serializability under oversubscription: the isolated run above passes
# on schedulers that lose updates once threads outnumber cores, so the
# same oracles run again as eight concurrent processes at -cpu 8, over
# every baseline scheduler (with cancellation on each of them and on
# TuFast, the deadlock-resolution test, which lives on TPL's lock order
# rule, the one-record-per-outcome test, whose refused waits it makes,
# the count of HSync's and H-TO's hardware
# attempts in their own snapshot, and TPL's own tests of the rule: wait
# cycles of two and three workers, upgrades, waits above and below the
# worker's locks, and random-order locking on a deadline), over core's
# cross-mode histories (with the lockers always there, and coming and
# going), mode ladder, router, commit gate, quiet-attempt interleavings,
# O-commit announcement, the one record of outcomes, the backoff level a
# transaction carries from H into O (and not into L), two L transactions
# that would close a wait cycle, and random-order locking in L mode on a
# deadline, over the shortest-path example against Dijkstra (hubs in L
# mode), over the pagerank example against a power iteration, the
# matching example's two matchings held to maximality, the analytics
# example's five analyses held to their sequential references and the
# quickstart's matching and mode breakdown, over the
# queued driver (its own quiesce, chunk and priority tests, the
# algorithms' entry point into it, and WCC and SPFA against their
# sequential references and SPFA's stale entries), over the snapshot fold beside and after chain
# GC, over the overlay's target index: attempts
# killed after a build, a doubling and a repoint in each mode, and
# concurrent batches on four hub sources beside chain GC and pinned
# views, and GC passes beside, between and out of arena under owned
# batches; over owned batches inline and fanned out, held to the fold
# and run out of arena; over the one worker pool: an algorithms call beside the
# System's own sweeps, mostly in L mode, where a thread id shared by two
# goroutines loses updates; over a cancellation found between rungs of
# the mode ladder, counted once in every view; over the public queued
# driver: a wakeup
# published while its writer stalls before the commit, and the Figure 3
# SSSP body on FIFO and PQ held to Dijkstra; and, under the race detector, over the
# server's lock-free admission: 32 racing submissions against a
# two-job quota, and submitters racing Shutdown's drain; and over the
# standing plane's lock-free publish: reads right after batches, a first
# repair beside a parked batch, delete repairs, and a repair that must
# stand down while its view holds a batch not yet delivered to it.
begin "oversubscribed serializability (8 processes, -cpu 8)"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go test -c -o "$tmp/sched.test" ./internal/sched
go test -c -o "$tmp/core.test" ./internal/core
go test -c -o "$tmp/worklist.test" ./internal/worklist
go test -c -o "$tmp/algo.test" ./internal/algo
go test -c -o "$tmp/dyngraph.test" ./internal/dyngraph
go test -c -o "$tmp/tufast.test" .
go test -c -o "$tmp/shortestpath.test" ./examples/shortestpath
go test -c -o "$tmp/pagerank.test" ./examples/pagerank
go test -c -o "$tmp/matching.test" ./examples/matching
go test -c -o "$tmp/analytics.test" ./examples/analytics
go test -c -o "$tmp/quickstart.test" ./examples/quickstart
go test -race -c -o "$tmp/server.test" ./internal/server
oversubscribed() { # test binary, -test.run pattern, -test.count
    pids=""
    for i in 1 2 3 4 5 6 7 8; do
        "$1" -test.run "$2" -test.count="$3" -test.cpu 8 >"$tmp/out.$i" 2>&1 &
        pids="$pids $!"
    done
    failed=0
    for pid in $pids; do
        wait "$pid" || failed=$((failed + 1))
    done
    if [ "$failed" -ne 0 ]; then
        echo "$1: $failed of 8 processes failed" >&2
        grep -h -A1 -e '--- FAIL' -e '^panic:' "$tmp"/out.* >&2 || tail -n 20 "$tmp"/out.* >&2
        exit 1
    fi
}
oversubscribed "$tmp/sched.test" 'TestSerializabilityHistories|TestRunCtxEveryScheduler|TestBankTransfer|TestCounterIsolation|TestWriteSkewPrevented|TestDeadlockResolution|TestOutcomesRecordedOnce|TestBaselineHTMCountsInOwnSnapshot|TestNoCycleAllowsWait|TestTwoPartyCycle|TestThreePartyCycle|TestSharedSharedNoCycle|TestUpgradeUpgradeCycle|TestRemoveAllClearsHolds|TestUpgradedHold|TestOutOfOrderWaitRefused|TestInOrderWaitBlocks|TestRandomOrderLockingCommits' 50
oversubscribed "$tmp/core.test" 'TestCrossModeSerializableHistories|TestCrossModeHistoriesLockersComeAndGo|TestIsolationAcrossModes|TestRouter|TestBackoffStartsAtZeroAfterLadder|TestBackoffLevelCarriesAcrossRungs|TestOCapacityAbortDoesNotBackOff|TestLEntryWaitsForHCommitWindow|TestPanicInCommitWindowClearsGate|TestLateWorkerSeesLActive|TestQuietH|TestOCommitLowersCountOnEveryExit|TestOneCountFourViews|TestLDeadlockCycleResolved|TestRandomOrderLockingCommits' 30
oversubscribed "$tmp/worklist.test" 'TestDrain' 30
oversubscribed "$tmp/shortestpath.test" 'TestRunSSSPMatchesDijkstra' 20
oversubscribed "$tmp/pagerank.test" 'TestPageRankMatchesPowerIteration' 5
oversubscribed "$tmp/matching.test" 'TestMatchingsAreMaximal' 20
oversubscribed "$tmp/analytics.test" 'TestAnalyticsProfile' 10
oversubscribed "$tmp/quickstart.test" 'TestQuickstartMatching' 20
oversubscribed "$tmp/algo.test" 'TestForEachQueued|TestResultsCountCommitsNotAttempts|TestQueuedKernelsMatchSequential|TestSPFAStaleEntryOneRead' 10
oversubscribed "$tmp/dyngraph.test" 'TestIndexAbortSafety|TestCompactFromDifferential|TestCompactFromGCHazard|TestCompactFromBesideGC' 20
oversubscribed "$tmp/tufast.test" 'TestHubMutationOracle|TestAlgorithmsShareSystemWorkers|TestApplyOwnedBesideGC|TestGCPassTakesTurnsWithBatches|TestGCRunningArenaOut|TestFoldMatchesApplyOwned|TestApplyOwnedPanicBreaksGraph|TestForEachQueuedWakesAfterCommit|TestForEachQueuedSSSPMatchesDijkstra' 4
oversubscribed "$tmp/tufast.test" 'TestCancelAfterHAbortCountsOnce' 30
oversubscribed "$tmp/server.test" 'TestInflightQuotaExactUnderConcurrentAdmission|TestShutdownRacingSubmitters' 20
oversubscribed "$tmp/server.test" 'TestStandingReadAfterBatch|TestStandingSeedBesideParkedBatch|TestStandingDeleteRepairNoRecompute|TestStandingRepairWaitsForDelivery' 10
end

echo "All checks passed."
