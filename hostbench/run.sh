#!/usr/bin/env bash
# Builds the host-time benchmark from source and runs it with the given
# arguments, e.g.
#
#   bash hostbench/run.sh --workload fleet --seed 42 --seconds 30 --trace 0
#
# Run from the repository root. Build outputs, the Go build cache and the
# go command's own config stay under .bench_build/ in the current
# directory. Go telemetry is switched off in that config first: otherwise
# the go command forks a detached telemetry sidecar process that can
# outlive this script.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local XDG_CONFIG_HOME="$build/config"
go telemetry off
go build -o "$build/hostbench" ./hostbench
exec "$build/hostbench" "$@"
