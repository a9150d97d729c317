#!/usr/bin/env bash
# Builds perfbench from this checkout and runs it with the given arguments.
# Run it from the repository root:
#
#   bash perfbench/run.sh --workload sweep --seed 1 --seconds 20 --trace 0
#
# The Go build cache, temporary files and the binary live under
# .bench_build/ in the checkout, so nothing is read from or written to a
# shared cache. The build fails (and the script exits non-zero without a
# result) when the module around this directory is missing.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
