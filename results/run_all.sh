#!/bin/bash
# Regenerates every experiment output in this directory (~45 CPU-minutes on
# one core at these scales). EXPERIMENTS.md documents the settings behind
# each file; use `cmd/repro -scale paper` for the full paper settings.
cd "$(dirname "$0")/.." || exit 1
bin=$(mktemp -d) || exit 1
trap 'rm -rf "$bin"' EXIT
go build -o "$bin/repro" ./cmd/repro || exit 1
run() {
  name=$1; shift
  "$bin/repro" "$@" > "results/${name}.txt" 2>&1
  echo "${name} $(date +%H:%M:%S)" >> results/progress.txt
}
rm -f results/progress.txt
run fig4      -exp fig4      -trials 2 -budget 1024
run fig5      -exp fig5      -scale paper -trials 2 -budget 1024
run table1    -exp table1    -trials 3 -budget 256
run baselines -exp baselines -trials 1 -budget 192
run batch     -exp batch     -trials 1 -budget 192
run precision -exp precision -trials 1 -budget 256
run crossdev  -exp crossdev  -trials 1 -budget 256
run ablation  -exp ablation  -trials 3 -budget 224
echo "ALL DONE $(date +%H:%M:%S)" >> results/progress.txt
