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

# Packages whose Go benchmarks the bench targets run: the root package
# (figures, ablations, named perf benchmarks) and the Java front end.
BENCH_PKGS = . ./internal/javatok ./internal/javaparser

# Full benchmark suite.
bench:
	$(GO) test -run '^$$' -bench . -benchmem $(BENCH_PKGS)

# One iteration per benchmark: a smoke pass cheap enough for CI.
bench-short:
	$(GO) test -run '^$$' -bench . -benchtime 1x $(BENCH_PKGS)
