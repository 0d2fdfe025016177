#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the root of the
# checkout. Everything the build leaves behind, the Go build cache
# included, stays in .bench_build/ inside the checkout.
#
#   bash bench/run.sh --workload NAME --seed N --seconds S --trace 0|1
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p .bench_build
export GOCACHE="$PWD/.bench_build/gocache" GOTOOLCHAIN=local
go build -C bench -o "$PWD/.bench_build/staccatobench" .
exec .bench_build/staccatobench "$@"
