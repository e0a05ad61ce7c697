#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout that holds this
# script and runs it with the given arguments, for example
#
#   bash benchmark/run.sh --workload tablei --seed 1 --seconds 25 --trace 0
#
# Everything the build writes (Go build cache, binary, go command state)
# stays under .bench_build at the checkout root, and the go command is
# kept offline: no toolchain download, no module proxy.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/go-cache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=

go -C "$here" build -o "$out/tecbench" .
exec "$out/tecbench" "$@"
