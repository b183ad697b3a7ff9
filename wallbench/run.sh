#!/usr/bin/env bash
# Builds the wall-clock benchmark from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash wallbench/run.sh --workload scan --seed 1 --seconds 14 --trace 0
#
# Build outputs and the Go build cache go under $CARGO_TARGET_DIR
# (.bench_build when unset), so the benchmark reads and writes only inside
# the checkout.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out"
# The toolchain writes its telemetry under XDG_CONFIG_HOME; keep that and
# every cache inside the build directory too.
export GOCACHE=$out/gocache GOMODCACHE=$out/gomod GOPATH=$out/gopath XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local GOFLAGS=-mod=mod
go -C "$root/wallbench" build -o "$out/wallbench" . >&2
exec "$out/wallbench" -dir "$out" "$@"
