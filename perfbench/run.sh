#!/usr/bin/env bash
# Builds the fleet-replay benchmark from source and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload fleet-mix --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Every build artefact (binary, Go
# build cache, toolchain config) stays under .bench_build/ in the
# current directory, and the build never reaches the network.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
