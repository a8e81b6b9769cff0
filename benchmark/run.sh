#!/usr/bin/env bash
# Builds the benchmark from source and runs it, touching nothing outside
# the checkout: the binary, the go build cache and the module cache all
# live in .bench_build at the repository root. Run from the repository
# root; every argument is passed on to the benchmark (see README.md).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
(
	cd "$here"
	GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOPATH="$build/go-path" \
		XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off \
		go build -o "$build/fcbench" .
)
exec "$build/fcbench" "$@"
