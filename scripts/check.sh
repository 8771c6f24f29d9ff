#!/bin/sh
# check.sh — the repo's pre-merge gate: formatting, vet, the
# transaction- and concurrency-contract analyzer suite (tufastcheck,
# with -strict-ignores), and the test suite under the race detector
# (short profile, one run, failures summarised by cmd/testsummary).
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

# The serving path (daemon, load generator, server package) is covered
# by ./... above; this stage re-runs vet + the contract analyzers over
# it by name so a failure points straight at the serving subsystem.
begin "serving path (vet + tufastcheck)"
go vet ./internal/server ./cmd/tufastd ./cmd/tufast-loadgen ./algorithms
go run ./cmd/tufastcheck ./internal/server ./cmd/tufastd ./cmd/tufast-loadgen ./algorithms
end

# One run of the whole suite under the race detector. The summariser
# prints a line per package as it finishes and, on failure, every
# failing test grouped by package under the output it produced, so the
# crash matrix (TestCrashRecovery*), the tenancy suite (TestTenancy*)
# and the MVCC view oracle (TestMVCCViewOracle) fail with their own
# diagnostics without being run a second time by name. The pipe's
# status is the summariser's, which is 1 on any failure.
begin "go test -race (short)"
go test -race -short -json ./... | go run ./cmd/testsummary
end

echo "All checks passed."
