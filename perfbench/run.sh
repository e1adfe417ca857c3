#!/usr/bin/env bash
# Builds icindex, icserver, iccoord and the perfbench program from this
# checkout, then runs perfbench with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload point --seed 1 --seconds 30 --trace 0
#   bash perfbench/run.sh --workload all --seed 1 --seconds 30 --trace 1
#
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
# Keep the go command's cache, module cache, config (telemetry included)
# and temporary files inside the checkout, and keep it off the network.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" TMPDIR="$out/tmp"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS= CGO_ENABLED=0
mkdir -p "$out/bin" "$out/tmp"

# With telemetry on, the go command starts a detached upload process that
# outlives this script; turning it off first keeps every process it starts
# inside the build.
go telemetry off
go build -o "$out/bin/" ./cmd/icindex ./cmd/icserver ./cmd/iccoord
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" "$@"
