#!/usr/bin/env bash
# Builds serverd and the benchmark from source, then runs one benchmark
# workload. Run from the repository root:
#
#   bash servicebench/run.sh --workload hot_reads|cold_solves|write_mix \
#       --seed N --seconds S --trace 0|1
#
# Build output goes to $CARGO_TARGET_DIR (default: target). The last line
# of stdout is the result object; build logs go to stderr.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --manifest-path Cargo.toml -p cqp-server --bin serverd >&2
cargo build --release --offline --quiet --manifest-path servicebench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/servicebench" --serverd "$CARGO_TARGET_DIR/release/serverd" "$@"
