#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything the build writes
# (binary, Go build cache, module cache, Go's own config) goes under
# .bench_build/ at the root of the checkout; nothing outside it is touched.
#
#   bash benchmark/run.sh --workload serve_tcp --seed 1 --seconds 15 --trace 0
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$build/benchmark" .)
cd "$root"
exec "$build/benchmark" "$@"
