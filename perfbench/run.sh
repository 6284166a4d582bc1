#!/usr/bin/env bash
# Builds perfbench and the mtsimd worker from this checkout's sources,
# then runs perfbench. Run it from the repository root:
#
#   bash perfbench/run.sh --workload curves --seed 1 --seconds 25 --trace 0
#
# Everything the build and the runs write stays under .bench_build/ in the
# current directory (Go build cache included). The last line of standard
# output is the run's result as one JSON object.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOFLAGS= GOWORK=off GOENV=off GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0

(
	cd "$root/perfbench"
	go build -o "$out/perfbench" .
	go build -o "$out/mtsimd" mtreescale/cmd/mtsimd
) >&2

exec "$out/perfbench" -mtsimd "$out/mtsimd" -out "$out/runs" "$@"
