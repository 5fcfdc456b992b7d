#!/usr/bin/env bash
# Builds the benchmark against the simulator sources of the checkout it
# sits in, then runs it with every argument passed through:
#
#   bash bench/run.sh --workload paper-suite --seed 42 --seconds 20 --trace 0
#
# Run it from the repository root. The build and all scratch state live
# under .bench_build/, so the benchmark reads and writes nothing outside
# the checkout. Without the simulator sources beside it the build fails
# and the script exits non-zero before printing a result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go -C "$root/bench" build -o "$out/cabench" .
exec "$out/cabench" "$@"
