#!/usr/bin/env bash
# Builds cmd/tvpbench from source and runs it with the given flags, e.g.
#
#   bash cmd/tvpbench/run.sh --workload sim-highipc --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write (Go build cache, temporary files,
# the binary, the tvpd store directories) goes under .bench_build in the
# current directory. Without the simulator module two directories up the
# build fails and the script exits non-zero before printing any result.
set -euo pipefail

src=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$(pwd)/.bench_build"
mkdir -p "$out/go-cache" "$out/go-tmp"

export GOCACHE="$out/go-cache" GOTMPDIR="$out/go-tmp" GOPATH="$out/go-path"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off

(cd "$src" && go build -o "$out/tvpbench" .)
exec "$out/tvpbench" -workdir "$out" "$@"
