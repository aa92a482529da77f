#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it with the given arguments. Everything the go tool
# writes (build cache, temporary files, its own settings) is kept inside
# .bench_build/, so a run reads and writes only inside its checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"

(
	cd "$root/benchmark"
	GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
		XDG_CONFIG_HOME="$build/config" GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off \
		go build -o "$build/tasterbench" .
)

cd "$root"
exec "$build/tasterbench" "$@"
