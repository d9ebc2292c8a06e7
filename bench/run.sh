#!/usr/bin/env bash
# Builds labbench from the checkout's sources and runs it with the given
# arguments. Run it from the repository root:
#
#   bash bench/run.sh --workload serve --seed 7 --seconds 20 --trace 0
#
# Everything the Go toolchain writes (build cache, module cache, telemetry,
# the binary) goes under .bench_build/ in the current directory, so the
# benchmark reads and writes nothing outside the checkout.
set -euo pipefail

root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/home" "$build/gocache" "$build/gomodcache" "$build/tmp"
export HOME="$build/home"
export XDG_CONFIG_HOME="$build/home/.config"
export XDG_CACHE_HOME="$build/home/.cache"
export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export GOTOOLCHAIN=local
export GOFLAGS=-mod=readonly
export GOPROXY=off
export GOENV=off

go -C "$root/bench" build -o "$build/labbench" ./cmd/labbench
exec "$build/labbench" "$@"
