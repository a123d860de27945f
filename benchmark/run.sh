#!/usr/bin/env bash
# Builds the benchmark from the checkout this script lives in, then runs it
# with the arguments given. Everything the build leaves behind (the Go build
# cache included) stays under .bench_build/ in that checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="${GOCACHE:-$out/gocache}"
export GOPATH="${GOPATH:-$out/gopath}"
export GOTOOLCHAIN=local
go build -o "$out/benchmark" ./benchmark
exec "$out/benchmark" "$@"
