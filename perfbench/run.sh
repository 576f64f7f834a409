#!/usr/bin/env bash
# Build the `swc` release binary and the benchmark from source, then run
# one workload:
#
#   bash perfbench/run.sh --workload datapath|serve-camera|serve-small \
#       --seed N --seconds S --trace 0|1
#
# Run from the repository root. Builds go to $CARGO_TARGET_DIR (default
# .bench_build); sockets, daemon logs and traces to .bench_out. Build
# output goes to stderr, so the last stdout line is the result JSON.
set -euo pipefail

cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"

cargo build --release --offline --quiet --bin swc 1>&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml 1>&2

exec "$CARGO_TARGET_DIR/release/perfbench" \
    --swc "$CARGO_TARGET_DIR/release/swc" "$@"
