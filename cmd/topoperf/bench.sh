#!/usr/bin/env bash
# The benchmark driver's entry point (BENCHMARK.json "command"), run from
# the root of a checkout:
#
#   bash cmd/topoperf/bench.sh --workload W --seed N --seconds S --trace 0|1
#
# It builds cmd/topoperf from source and runs it. The Go build cache and
# everything the program writes stay under .bench_build/ in the checkout,
# so nothing outside it is touched and two checkouts never share a build.
set -euo pipefail
mkdir -p .bench_build/gocache
export GOCACHE="$PWD/.bench_build/gocache"
export GOPATH="$PWD/.bench_build/gopath"
export GOFLAGS=-buildvcs=false
export GOTOOLCHAIN=local
exec go run ./cmd/topoperf "$@"
