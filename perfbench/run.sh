#!/usr/bin/env bash
# Build the `repro` binary and the benchmark from source, then run the
# benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload paper_all --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Both builds share one target directory
# (CARGO_TARGET_DIR, default .bench_build) so the benchmark finds `repro`
# next to its own executable.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path Cargo.toml -p rp-bench --bin repro >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" "$@"
