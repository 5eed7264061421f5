#!/bin/sh
# Entry point named by BENCHMARK.json: builds the harness from source and
# runs it. Everything the Go toolchain writes (build cache, temp files,
# telemetry) is pinned under .bench_build in the checkout, so a run
# touches nothing outside it.
set -eu
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/gotmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/gotmp"
export XDG_CONFIG_HOME="$build/config" GOPROXY=off GOTOOLCHAIN=local
(cd "$root/bench" && go build -o "$build/zoombench" .)
exec "$build/zoombench" -root "$root" "$@"
