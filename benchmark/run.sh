#!/usr/bin/env bash
# Builds cactusbench from the source in this checkout and runs it with the
# given arguments, e.g.
#
#   bash benchmark/run.sh --workload catalog_warm --seed 1 --seconds 35 --trace 0
#
# Everything the build and the run write stays under .bench_build in the
# checkout: the Go build cache, the binary, profile caches and traces.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd "$root/benchmark" && go build -o "$out/cactusbench" .)
cd "$root"
exec "$out/cactusbench" "$@"
