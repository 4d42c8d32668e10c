#!/usr/bin/env bash
# Builds systolicdbd and the benchmark from the source tree, then runs one
# benchmark workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload small-rw --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# repository root, including the Go build cache.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/systolicdbd || ! -f perfbench/go.mod || ! -f BENCHMARK.json ]]; then
	echo "perfbench: run from the repository root (needs go.mod, cmd/systolicdbd, perfbench/ and BENCHMARK.json)" >&2
	exit 2
fi

root="$(pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$root/.bench_build/gocache"
export GOPATH="$root/.bench_build/gopath"
export GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local
# The go command keeps its settings and telemetry under the user config
# directory; point it inside the checkout too.
export XDG_CONFIG_HOME="$root/.bench_build/config"

go build -o "$out/systolicdbd" ./cmd/systolicdbd
(cd perfbench && go build -o "$out/perfbench" .)

exec "$out/perfbench" -benchmark "$root/BENCHMARK.json" -daemon "$out/systolicdbd" -work "$out" "$@"
