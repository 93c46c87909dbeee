#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout it sits in and runs
# it with the given arguments. Run it from the repository root:
#
#   bash e2ebench/run.sh --workload suite --seed 1 --seconds 20 --trace 0
#
# Build outputs (binary, Go build cache, trace files) go to .bench_build
# under the current directory; nothing is fetched over the network.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$here" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" "$@"
