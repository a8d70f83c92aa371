#!/usr/bin/env bash
# Builds the end-to-end daemon benchmark from source and runs it with the
# given arguments. Run from the repository root, e.g.
#   bash e2ebench/run.sh --workload ret-abilene --seed 1 --seconds 30 --trace 0
# Build outputs and the Go build cache stay under .bench_build/.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/e2ebench" && go build -o "$build/e2ebench" .)
exec "$build/e2ebench" "$@"
