#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it with
# the given arguments. Run it from the repository root:
#
#   bash benchmark/run.sh --workload solo --seed 1 --seconds 20 --trace 0
#
# Everything the build and the runs write (Go build cache, binary, network
# stores, sinks, profiles, digest records) goes under $CARGO_TARGET_DIR,
# default .bench_build, inside the checkout.
set -euo pipefail

root=$PWD
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out"

export GOCACHE=$out/gocache GOPATH=$out/gopath XDG_CONFIG_HOME=$out/config \
	PPROF_TMPDIR=$out/pprof GOTOOLCHAIN=local GOFLAGS= GOWORK=off
go -C "$root/benchmark" build -o "$out/geobench" .
exec "$out/geobench" --state "$out/state" "$@"
