#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it.
# Run from the repository root:
#   bash perfbench/run.sh --workload invoke-tiny --seed 1 --seconds 10 --trace 0
# Every build artefact and Go cache stays under .bench_build in the
# checkout, so the run reads and writes nothing outside it.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export XDG_CACHE_HOME="$build/cache"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOFLAGS=-mod=mod
export GOPROXY=off
export GOTELEMETRY=off
export GOENV=off

go -C "$root/perfbench" build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
