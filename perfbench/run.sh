#!/usr/bin/env bash
# Build the benchmark from this checkout and run it (see README.md):
#   bash perfbench/run.sh --workload serial-data --seed 1 --seconds 20 --trace 0
# The build goes to $CARGO_TARGET_DIR (default .bench_build) with the dune
# cache off, so nothing is read or written outside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
build_dir="${CARGO_TARGET_DIR:-.bench_build}"
DUNE_CACHE=disabled dune build --root . --profile release --build-dir "$build_dir" \
  ./perfbench/nabbench.exe 1>&2
exec "$build_dir/default/perfbench/nabbench.exe" "$@"
