#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the root of the checkout. Everything the build writes (the Go
# build cache, temporary files, the binary, traced runs' span files) stays
# in the build directory, $CARGO_TARGET_DIR or .bench_build by default.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of a full checkout (go.mod and perfbench/go.mod)" >&2
	exit 2
fi
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath"

export GOCACHE=$out/gocache GOTMPDIR=$out/gotmp GOPATH=$out/gopath
export GOTOOLCHAIN=local GOENV=off GOTELEMETRY=off GOPROXY=off
export PERFBENCH_OUT=$out

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
