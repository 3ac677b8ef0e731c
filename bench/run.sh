#!/usr/bin/env bash
# Builds the benchmark from source and runs it, with every argument passed
# through. Run it from the repository root: all build state (Go build
# cache, temporary files, the binary, span files) stays in .bench_build/.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOENV=off
go -C "$root/bench" build -o "$build/bench" .
exec "$build/bench" "$@"
