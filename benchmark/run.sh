#!/usr/bin/env bash
# Build the benchmark (release) and hand it the arguments. README.md says
# what it measures; in short:
#
#   benchmark/run.sh [--seed N] [--repeats K] [--smoke]     every workload, the ladder, the micro loops, the checks
#   benchmark/run.sh compare OLD.json NEW.json              two results side by side, non-zero exit on a regression
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                                           one workload, one JSON result line (BENCHMARK.json's command)
#
# The build goes to the repo's target/ unless CARGO_TARGET_DIR says otherwise.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/mpio-benchmark" "$@"
