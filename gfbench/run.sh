#!/usr/bin/env bash
# Builds gfbench from source and runs it with the given arguments. Run it
# from the repository root:
#
#   bash gfbench/run.sh --workload deletion-stream --seed 1 --seconds 40 --trace 0
#
# Build outputs, the Go build cache and the go command's own files
# (telemetry, env file) stay in .bench_build/ under the current directory.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOSUMDB=off
(cd "$here" && go build -o "$out/gfbench" .)
exec "$out/gfbench" "$@"
