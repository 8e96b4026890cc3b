#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout, then runs it with
# the given arguments, e.g.:
#
#   bash perfbench/run.sh --workload gc-heavy --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (binary, Go build cache) goes under
# $CARGO_TARGET_DIR, default .bench_build, relative to the checkout root.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
root=$(cd "$here/.." && pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out"

# Keep every write of the Go toolchain inside the checkout, and never
# reach for the network: the module has no dependency to fetch.
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTOOLCHAIN=local
export GOFLAGS=-mod=readonly
export GOPROXY=off
export GOWORK=off

(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
