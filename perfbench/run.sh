#!/usr/bin/env bash
# Builds lcds-server and the benchmark from the sources of the checkout it
# is run from, then runs one workload:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything it writes (Go build cache, binaries, span files) stays under
# .bench_build in the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOWORK=off GOFLAGS= CGO_ENABLED=0
go build -o "$build/lcds-server" ./cmd/lcds-server >&2
(cd perfbench && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" -server "$build/lcds-server" -out "$build" "$@"
