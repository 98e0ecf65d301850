#!/usr/bin/env bash
# Builds the benchmark (once; later calls hit the build cache) and runs it.
#
#   benchmarks/run.sh <workload> [-seed n] [-seconds n] [-trace 0|1]
#   benchmarks/run.sh -list
#   benchmarks/run.sh <workload> -repeat 5
#
# Run from the repository root. Everything the build and the run leave behind
# goes to benchmarks/out/, the Go build cache included, so nothing outside the
# checkout is written.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/benchmarks/out"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOFLAGS=-buildvcs=false
export GOTOOLCHAIN=local GOPROXY=off GOENV=off
go build -o "$out/benchmarks" ./benchmarks
if [[ $# -gt 0 && $1 != -* ]]; then
	set -- -workload "$@"
fi
exec "$out/benchmarks" "$@"
