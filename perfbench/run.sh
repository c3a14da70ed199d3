#!/usr/bin/env bash
# One run of the served-operation benchmark. From the repository root:
#
#   bash perfbench/run.sh --workload submit-open|day-closed|ingest-replicated \
#       --seed N --seconds S --trace 0|1
#
# Builds mroam-served, mroam-follower and the harness from source into
# $CARGO_TARGET_DIR (default .bench_build), then runs the harness, whose
# last stdout line is the result. Build output goes to stderr.
set -euo pipefail

bench_dir="$(dirname "$0")"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"

cargo build --release --offline --quiet --manifest-path "$bench_dir/../Cargo.toml" \
    -p mroam-serve --bin mroam-served -p mroam-replica --bin mroam-follower >&2
cargo build --release --offline --quiet --manifest-path "$bench_dir/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/perfbench" "$@"
