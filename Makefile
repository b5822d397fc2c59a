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

# Full benchmark suite (figures + ablations + named perf benchmarks).
bench:
	$(GO) test -run '^$$' -bench . -benchmem .

# One iteration per benchmark: a smoke pass cheap enough for CI.
bench-short:
	$(GO) test -run '^$$' -bench . -benchtime 1x .
