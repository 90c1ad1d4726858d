#!/usr/bin/env bash
# Builds the benchmark from the checkout this script sits in and runs it:
#
#   bash .perfbench/run.sh --workload explore-asym --seed 1 --seconds 25 --trace 0
#
# The binary, the Go build cache and every other file the toolchain writes
# land in .bench_build at the checkout root. The toolchain stays offline: the
# benchmark module needs nothing beyond the checkout's own module.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$build/config" GOENV=off GOFLAGS= GOWORK=off \
	GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local
(cd "$root/.perfbench" && go build -o "$build/perfbench" .)
cd "$root"
exec "$build/perfbench" "$@"
