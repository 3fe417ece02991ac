#!/usr/bin/env bash
# Builds the serving benchmark from source and runs it. Run from the root of
# a checkout:
#
#   bash perfbench/run.sh --workload solve-hot --seed 1 --seconds 10 --trace 0
#
# Every build artifact (binary, Go build cache, Go's own state files) lands in
# .bench_build/ under the checkout, so nothing is written outside it.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal/serve || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the root of a repository checkout (go.mod, internal/ and perfbench/ are required)" >&2
	exit 2
fi

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/home" "$build/tmp"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home" XDG_CACHE_HOME="$build/home"
export TMPDIR="$build/tmp" GOTMPDIR="$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/mod"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod

go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
