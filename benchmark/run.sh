#!/usr/bin/env bash
# Builds the harness from the checkout's sources and runs it with the
# arguments given. Everything the Go toolchain writes — build cache, module
# cache, the binary — stays under .bench_build in the checkout, so a run
# reads and writes nothing outside it and does not depend on $HOME.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache"
export GOPATH="$build/go-path"
export GOMODCACHE="$build/go-path/pkg/mod"
export GOTOOLCHAIN=local
export GOPROXY=off

# In a directory without the module (go.mod, internal/) this fails, and
# with it the run: no result is printed.
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
