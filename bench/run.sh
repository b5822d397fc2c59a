#!/usr/bin/env bash
# Builds the benchmark runner and runs it with the arguments given. Run it
# from the repository root:
#
#   bash bench/run.sh --workload paper-eval --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh --seed 1 --out run.json     # every workload, both modes
#
# Everything the build and the run write (Go build cache, binary, temporary
# artifact stores) stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" || ! -f "$root/bench/go.mod" ]]; then
	echo "bench/run.sh: run from the repository root (go.mod, internal/ and bench/ are required)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOENV=off GOWORK=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off

(cd "$root/bench" && go build -o "$build/bench" .)
exec "$build/bench" "$@"
