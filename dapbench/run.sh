#!/usr/bin/env bash
# Build the `dap` binary and this benchmark from source, then make one run:
#
#   bash dapbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build); run directories and span files to .bench_work.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --quiet --offline --manifest-path Cargo.toml --bin dap >&2
cargo build --release --quiet --offline --manifest-path dapbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/dapbench" --dap "$CARGO_TARGET_DIR/release/dap" "$@"
