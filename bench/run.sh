#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root, the
# directory that holds BENCHMARK.json. Everything the build and the run write
# stays under bench/out/: the Go build cache, the go command's telemetry
# counters and the binary in .build/ (a dot directory, so `go test ./...` in
# bench/ does not walk it), results, traces and scratch data directories
# beside it.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
build="$root/bench/out/.build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
commit="$(git rev-parse --short=12 HEAD 2>/dev/null || echo unknown)"
if [ "$commit" != unknown ] && [ -n "$(git status --porcelain 2>/dev/null)" ]; then
  commit="$commit+dirty"
fi
go build -C bench -buildvcs=false -ldflags "-X main.commit=$commit" -o "$build/xnf-bench" .
exec "$build/xnf-bench" "$@"
