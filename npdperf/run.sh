#!/usr/bin/env bash
# Builds the npdperf benchmark from source inside the checkout and runs it
# with the given arguments, e.g.
#
#   bash npdperf/run.sh --workload mix-cold --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The Go build cache and the binary live
# under .bench_build/ so nothing is written outside the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/npdperf"
mkdir -p "$out"
# Keep the toolchain's caches in the checkout and the build offline: the
# benchmark has no dependencies outside the repository.
export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOPATH="$out/gopath"
export GOENV=off
export GOTOOLCHAIN=local
export GOPROXY=off
(cd "$root/npdperf" && go build -o "$out/npdperf" .)
exec "$out/npdperf" --cache "$out" "$@"
