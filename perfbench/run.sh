#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources into .bench_build and runs
# it with the given arguments (--workload, --seed, --seconds, --trace). Every
# file the Go toolchain writes stays inside the checkout; the toolchain is
# never allowed to download anything.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/home"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off CGO_ENABLED=0
(cd "$root/perfbench" && go build -trimpath -o "$build/perfbench" .) >&2
cd "$root"
exec "$build/perfbench" "$@"
