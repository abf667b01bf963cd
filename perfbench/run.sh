#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/perfbench (inside the
# checkout, build cache included) and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload suite-cold --seed 1 --seconds 25 --trace 0
#
# Run from the repository root. The last line of standard output is the
# result object; progress and diagnostics go to standard error.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=readonly GOENV=off
command -v go >/dev/null || PATH="$PATH:/usr/local/go/bin" # the standard install location
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -out "$out" "$@"
