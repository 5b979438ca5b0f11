#!/usr/bin/env bash
# Builds the fleet benchmark from source and runs it with the given flags:
#
#	bash perfbench/run.sh --workload auto-persession --seed 1 --seconds 36 --trace 0
#
# Run from the repository root. Every build artifact, cache and temporary
# file stays under .bench_build/ in the current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath" \
	GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOPROXY=off \
	GIT_CEILING_DIRECTORIES="$(dirname "$root")"
go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
