# Developer entry points. Everything here is plain `go` — the Makefile only
# names the common invocations so CI and humans run the same commands.

GO ?= go

.PHONY: all build vet test race serve bench bench-short

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Run the analysis server (checker-as-a-service) on its default address.
serve:
	$(GO) run ./cmd/diffcoded

# The repository's benchmark: every workload of BENCHMARK.json, untraced and
# traced (see bench/README.md for single-workload and comparison runs).
bench:
	bash bench/run.sh

# Packages whose Go micro-benchmarks bench-short runs: the root package
# (figures, ablations, named perf benchmarks), the Java front end, the
# abstract interpreter, and usage extraction (DAG build, diff, extract).
BENCH_PKGS = . ./internal/javatok ./internal/javaparser ./internal/analysis ./internal/usage ./internal/change

# One iteration per micro-benchmark: a smoke pass cheap enough for CI.
bench-short:
	$(GO) test -run '^$$' -bench . -benchtime 1x $(BENCH_PKGS)
