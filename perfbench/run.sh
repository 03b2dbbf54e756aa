#!/usr/bin/env bash
# Builds the benchmark from the sources in the current checkout and runs
# one workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload mine-warm --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout (Go build cache, binary, scratch graph files, span dumps).
set -euo pipefail

root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export GOWORK=off
export GOTOOLCHAIN=local

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" -workdir "$build/work" "$@"
