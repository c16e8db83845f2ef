#!/usr/bin/env bash
# Builds the simulator benchmark from the checkout's sources and runs it.
#
#   bash _perfbench/run.sh --workload fig6-sweep --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything the build and the run
# write (Go build cache, binary, CPU profile) stays under .bench_build/
# in that root; the Go toolchain's own cache, config and temp
# directories are pointed there too.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOFLAGS= GOWORK=off

(cd "$here" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" -workdir "$out" "$@"
