#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash wivibench/run.sh --workload offline-track --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Everything the Go toolchain writes
# (build cache, temporary files, the binary) goes under .bench_build in
# the working directory, or under $CARGO_TARGET_DIR when that is set.
set -euo pipefail

build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build/tmp" "$build/config"
build="$(cd "$build" && pwd)"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go build -o "$build/wivibench" ./wivibench >&2
exec "$build/wivibench" "$@"
