#!/usr/bin/env bash
# Builds the benchmark program from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build writes (binary, Go build cache, Go's own config
# and telemetry files) stays under .bench_build/ in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOWORK=off
go -C perfbench build -o "$out/perfbench" . 1>&2
exec "$out/perfbench" "$@"
