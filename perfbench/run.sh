#!/usr/bin/env bash
# Build acs-repro, acs-serve and the benchmark from source, then run one
# benchmark invocation. Arguments go to acs-perfbench, e.g.
#
#   bash perfbench/run.sh --workload paper --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Build output and scratch files go under
# $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --locked --quiet -p acs-repro -p acs-serve >&2
cargo build --release --offline --locked --quiet --manifest-path perfbench/Cargo.toml >&2
ACS_BENCH_COMMIT="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
export ACS_BENCH_COMMIT
exec "$CARGO_TARGET_DIR/release/acs-perfbench" \
    --bin-dir "$CARGO_TARGET_DIR/release" \
    --work-dir "$CARGO_TARGET_DIR/perfbench-work" \
    "$@"
