#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs one workload:
#
#   bash bench/run.sh --workload serve-warm --seed 7 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at the
# repository root, including the Go build cache. Without the rest of the
# repository next to bench/ the build fails, and so does the script.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
  GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd "$root/bench" && go build -o "$out/energybench" ./cmd/energybench)
cd "$root"
exec "$out/energybench" "$@"
