#!/usr/bin/env bash
# Builds the daemon-path benchmark from source and runs it with the
# given flags. Run from the repository root:
#
#   bash perfbench/run.sh --workload replay-bare --seed 1 --seconds 10 --trace 0
#
# Build outputs and the Go build cache stay under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" "$@"
