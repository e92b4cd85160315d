#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every argument is passed on:
#
#   bash clicbench/run.sh --workload tpcc-stream --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache, stream files and span dumps all stay
# under $CARGO_TARGET_DIR (default .bench_build) in the current directory.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build/tmp"
build="$(cd "$build" && pwd)"

export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"

(cd "$here" && go build -o "$build/clicbench" .)
exec "$build/clicbench" --out "$build/clicbench-out" "$@"
