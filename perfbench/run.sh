#!/usr/bin/env bash
# Builds the benchmark driver from source and runs it with the given
# arguments, from the root of a checkout of the repository:
#
#   bash perfbench/run.sh --workload serve-cached --seed 1 --seconds 30 --trace 0
#
# Everything it writes (Go build cache, binary, index files, spans) stays
# under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of a full checkout (go.mod and internal/ not found)" >&2
	exit 2
fi

out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"
# Keep the toolchain's caches and its config and telemetry files inside
# the checkout too; the module has no dependencies to fetch.
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off
go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" --workdir "$out/work" "$@"
