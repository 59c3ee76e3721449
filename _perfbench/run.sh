#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it. All build
# state (Go build cache, module cache, tool config) stays under
# .bench_build/ at the checkout root; the benchmark's result is the last
# line of standard output, and build chatter goes to standard error.
#
# Usage, from the checkout root:
#   bash _perfbench/run.sh --workload <fleet-campaign|stream-window|query-ingest> \
#       --seed <n> --seconds <s> --trace <0|1>
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"

export GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOENV=off
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config"

(cd "$root/_perfbench" && go build -o "$build/perfbench" .) >&2

cd "$root"
exec "$build/perfbench" "$@"
