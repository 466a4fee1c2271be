#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every argument is passed to the benchmark (see README.md):
#
#   bash perfbench/run.sh --workload tune-bao --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache, job stores and span files all stay in
# .bench_build at the repository root. Build messages go to stderr, so the
# last line of stdout is always the benchmark's JSON result.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
work="$(dirname "$here")/.bench_build"
mkdir -p "$work/tmp"

export GOCACHE="$work/gocache" GOPATH="$work/gopath" GOTMPDIR="$work/tmp" TMPDIR="$work/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$here" && go build -o "$work/perfbench" .) >&2
exec "$work/perfbench" --workdir "$work" "$@"
