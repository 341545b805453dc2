#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it. Run it from
# the repository root; every argument passes through to the benchmark:
#
#   bash perfbench/run.sh --workload solve-ooc --seed 1 --seconds 20 --trace 0
#
# The Go build cache, the instance files and the span dumps all stay under
# the build directory ($CARGO_TARGET_DIR, default .bench_build).
set -euo pipefail

root=$PWD
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/go-cache" "$build/go-path" "$build/config" "$build/work"

env GOCACHE="$build/go-cache" GOPATH="$build/go-path" XDG_CONFIG_HOME="$build/config" \
	HOME="$build/config" GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off \
	go -C "$root/perfbench" build -o "$build/perfbench" .

exec "$build/perfbench" -dir "$build/work" "$@"
