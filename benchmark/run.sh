#!/usr/bin/env bash
# Contract entry point (see BENCHMARK.json): builds the benchmark from source
# with every toolchain artefact kept inside the checkout, then runs it with
# the arguments it was given. Run it from the repository root.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/home"
# HOME moves the toolchain's telemetry and GOPATH defaults into the checkout.
HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" \
GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= \
	go build -C "$here" -o "$build/cgraph-benchmark" .
exec "$build/cgraph-benchmark" "$@"
