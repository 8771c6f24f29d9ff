# Convenience targets; scripts/check.sh is the canonical gate.
# Repeatable performance numbers come from benchmark/ (bash
# benchmark/run.sh --workload <id>); `make bench` is the paper's
# figures.

.PHONY: build test lint check loc bench loadgen-smoke

build:
	go build ./...

test:
	go test ./...

# lint runs the contract analyzers (transaction + concurrency) alone;
# the full gate (make check) includes them, with -strict-ignores,
# after go vet.
lint:
	go run ./cmd/tufastcheck ./...

check:
	./scripts/check.sh

# loc prints non-test Go lines added/removed per package against REV
# (default HEAD~1): the table a deletion PR reports.
loc:
	./scripts/loc.sh $(REV)

bench:
	go test -bench=. -benchtime=1x ./internal/bench/

# loadgen-smoke is the CI smoke: a short, low-rate mixed run that
# exercises the whole serving path (admission, jobs, cache, drain).
loadgen-smoke:
	go run ./cmd/tufast-loadgen -inprocess -gen-n 5000 -duration 2s -clients 4 -rps 50
