#!/usr/bin/env bash
# Builds the repository benchmark from source and runs it:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Everything the build and the run write stays under .bench_build at the
# root of the checkout: binary, Go build cache, Go's configuration and
# telemetry directory, temporary files, span and count files. The build
# needs no network: the only dependency is the repository itself.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOPATH="$build/gopath" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" --out "$build/perfbench-out" "$@"
