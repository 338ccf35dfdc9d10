#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root:
#
#   bash bench/run.sh --workload save_heavy --seed 1 --seconds 10 --trace 0
#
# Everything it writes stays inside the checkout: the Go build cache, the go
# command's own counters and the binary under .bench_build/, lane directories
# and traces under bench/out/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
(cd "$here" && GOCACHE="$build/gocache" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS= \
	go build -o "$build/bench" .)
cd "$root"
exec "$build/bench" "$@"
