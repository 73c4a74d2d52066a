#!/usr/bin/env bash
# BENCHMARK.json's command. Builds the harness inside the checkout and
# runs it from the repository root with the given arguments. A run may
# write nothing outside the checkout, so the Go build cache and the go
# command's own counter files (it keeps them under the user's
# configuration directory) are pointed into .bench_build/ too.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
export GOCACHE="$root/.bench_build/gocache" XDG_CONFIG_HOME="$root/.bench_build/config"
go build -C "$root/benchmark" -o "$root/.bench_build/stq-benchmark" .
cd "$root"
exec .bench_build/stq-benchmark "$@"
