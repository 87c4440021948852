#!/usr/bin/env bash
# Builds gomq-serve and the benchmark from source, then runs one workload.
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build); span files of traced runs are written to
# $CARGO_TARGET_DIR/perfbench. See perfbench/README.md.
set -euo pipefail
if [ ! -f Cargo.toml ] || [ ! -d crates/engine ]; then
    echo "perfbench: run from the repository root" >&2
    exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
target="$CARGO_TARGET_DIR"
cargo build --release --quiet --offline -p gomq-engine --bin gomq-serve >&2
cargo build --release --quiet --offline --manifest-path perfbench/Cargo.toml >&2
exec "$target/release/perfbench" "$@" \
    --serve-bin "$target/release/gomq-serve" --work-dir "$target/perfbench"
