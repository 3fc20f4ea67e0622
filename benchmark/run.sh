#!/usr/bin/env bash
# The repo's benchmark in one command (see README.md beside this file).
#
#   benchmark/run.sh [--seed N] [--quick] [...]      every workload -> results/latest.json
#   benchmark/run.sh single --workload W --seed N --seconds S --trace 0|1
#                                                     one run (BENCHMARK.json's command)
#   benchmark/run.sh compare A.json B.json            judge B against A
#
# Builds the benchmark package in release mode first. Exits non-zero when
# the build fails or any response was incorrect.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

command=suite
case "${1:-}" in
    single | suite | compare | help) command=$1 && shift ;;
esac

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
bin="$CARGO_TARGET_DIR/release/wcoj-benchmark"

case "$command" in
    single | suite) exec "$bin" "$command" --results-dir "$here/results" "$@" ;;
    *) exec "$bin" "$command" "$@" ;;
esac
