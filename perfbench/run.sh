#!/usr/bin/env bash
# Builds the simulator benchmark from this checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload node-steady --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (compiler cache, binary, temporary files) stays
# under .bench_build/ in the checkout, and run records and span files go to
# .bench_out/. Without the repository's sources next to perfbench/ the build
# fails and the script exits non-zero before printing a result.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=

(cd "$root/perfbench" && go build -trimpath -o "$build/perfbench" .)
cd "$root"
exec "$build/perfbench" "$@"
