#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload keyed-deep --seed 1 --seconds 10 --trace 0
#
# Every build product, cache and tool setting stays under .bench_build
# in the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build/perfbench"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
# Fall back to the Go toolchain's standard install location when go is
# not on PATH.
command -v go >/dev/null || PATH="$PATH:/usr/local/go/bin"
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
