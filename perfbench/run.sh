#!/usr/bin/env bash
# Builds the benchmark (and the weaver module it measures) from source and
# runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload tao --seed 1 --seconds 20 --trace 0
#
# The build, the Go caches, write-ahead logs, spans and CPU profiles all stay
# under .bench_build in the current directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp" GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --workdir "$build" "$@"
