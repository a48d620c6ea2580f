#!/usr/bin/env bash
# Builds the benchmark and the two repository binaries it drives
# (wlcrc-gridrun, tracecheck), then runs one workload:
#
#   bash wlcbench/run.sh --workload grid|gridrun|serve --seed N --seconds S --trace 0|1
#
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build); stores and trace files to its wlcbench-work/.
set -euo pipefail
cd "$(dirname "$0")/.."
target="${CARGO_TARGET_DIR:-.bench_build}"
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet --manifest-path Cargo.toml -p wlcrc_bench --bin wlcrc-gridrun --bin tracecheck >&2
cargo build --release --offline --quiet --manifest-path wlcbench/Cargo.toml >&2
"$target/release/wlcbench" "$@" \
    --gridrun "$target/release/wlcrc-gridrun" \
    --tracecheck "$target/release/tracecheck" \
    --work "$target/wlcbench-work"
