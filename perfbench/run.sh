#!/usr/bin/env bash
# Builds the benchmark from source and runs it; every argument is passed
# through (see README.md). Run it from the root of a checkout:
#
#   bash perfbench/run.sh --workload avv-exact-xd --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and the run's scratch files all stay
# under .bench_build/ in the checkout.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache"
export GOTOOLCHAIN=local
export GOFLAGS=-mod=mod
export XDG_CONFIG_HOME="$out/config"
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --scratch "$out/scratch" "$@"
