#!/usr/bin/env bash
# The benchmark's command (see BENCHMARK.json): builds bench/e2e from source
# and runs it with the arguments given. Everything the Go toolchain writes -
# build cache, temporary files, the binary - stays under .bench_build in the
# checkout, as does the data of a run.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" GOFLAGS=-mod=mod GOTOOLCHAIN=local
go build -o "$out/e2e" ./bench/e2e
exec "$out/e2e" "$@"
