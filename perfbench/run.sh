#!/usr/bin/env bash
# Build the serve CLI and the benchmark from this checkout, then run the
# benchmark. Arguments pass through:
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build); scratch files go to .bench_work.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --bin butterfly >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
# The generator runs under a real-time policy where the system allows it,
# so that its sends keep to their schedule and its receive timestamps are
# taken on time however busy the servers are; it starts the servers under
# the normal policy and returns to it before its CPU-bound checks.
rt=()
if command -v chrt >/dev/null && chrt --fifo 10 true 2>/dev/null; then
    rt=(chrt --fifo 10)
fi
exec ${rt[@]+"${rt[@]}"} "$CARGO_TARGET_DIR/release/perfbench" --butterfly "$CARGO_TARGET_DIR/release/butterfly" "$@"
