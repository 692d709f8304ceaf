#!/usr/bin/env bash
# Builds the benchmark and runs it from the repository root. Everything the
# Go toolchain writes — build cache, module cache, its telemetry counters,
# binaries — goes under .bench_build in the checkout, so a run touches
# nothing outside it.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
mkdir -p .bench_build
export GOCACHE="$root/.bench_build/gocache"
export GOPATH="$root/.bench_build/gopath"
export XDG_CONFIG_HOME="$root/.bench_build/config"
export GOTOOLCHAIN=local GOWORK=off
go build -C bench -o "$root/.bench_build/bench" .
exec "$root/.bench_build/bench" "$@"
