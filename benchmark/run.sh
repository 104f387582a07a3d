#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags.
# Run from the repository root, e.g.
#   bash benchmark/run.sh --workload mem-single --seed 7 --seconds 20 --trace 0
# Everything the Go toolchain and the benchmark write (build cache,
# temporary files, telemetry counters, binary, saved indexes, traces)
# stays under .bench_build/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export TMPDIR="$out/tmp" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod CGO_ENABLED=0

(cd "$root/benchmark" && go build -o "$out/rstknn-benchmark" .)
exec "$out/rstknn-benchmark" "$@"
