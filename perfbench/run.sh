#!/usr/bin/env bash
# Builds the benchmark and the `serve` binary from this checkout's
# sources, then runs one benchmark pass. Run from the repository root:
#   bash perfbench/run.sh --workload mpc-sweep --seed 1 --seconds 20 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet \
    --manifest-path perfbench/Cargo.toml -p oic-perfbench -p oic-serve --bins >&2
exec "$CARGO_TARGET_DIR/release/perfbench" --serve-bin "$CARGO_TARGET_DIR/release/serve" "$@"
