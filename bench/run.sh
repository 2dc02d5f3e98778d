#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Run from the repository root:
#
#   bash bench/run.sh --workload offline_clf --seed 1 --seconds 20 --trace 0
#
# Builds the benchmark (its own module, bench/go.mod, which imports the
# repository's packages from ..) and runs it. Everything Go writes — build
# cache, temporary files, binaries — stays under .bench_build in the
# checkout, so a run touches nothing outside it.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off XDG_CONFIG_HOME="$build/config"
go build -C "$root/bench" -o "$build/bench" .
exec "$build/bench" "$@"
