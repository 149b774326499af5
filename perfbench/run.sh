#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it:
#
#   bash perfbench/run.sh --workload ingest --seed 1 --seconds 15 --trace 0
#
# Run it from the checkout root. Everything the build and the runs write
# (Go build cache, binary, span files, snapshots) stays under .bench_build.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/home" "$build/tmp"
(
	cd "$root/perfbench"
	HOME="$build/home" XDG_CONFIG_HOME="$build/home" XDG_CACHE_HOME="$build/home" \
	GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath" \
	GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOFLAGS= GOWORK=off \
		go build -o "$build/bin/perfbench" .
)
exec "$build/bin/perfbench" "$@"
