#!/usr/bin/env bash
# Builds the daemon and the benchmark from source, then runs one
# benchmark workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload paper_sim --seed 1 --seconds 12 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build); only the
# benchmark's result lines go to standard output.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
if [ ! -f Cargo.toml ] || [ ! -d crates/server ]; then
    echo "perfbench: $(pwd) is not a RIPQ source checkout" >&2
    exit 1
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
# Only the stream_* workloads run the daemon.
case " $* " in
*" stream_"*)
    cargo build --release --offline --quiet --bin ripq-server >&2
    exec "$CARGO_TARGET_DIR/release/perfbench" --server-bin "$CARGO_TARGET_DIR/release/ripq-server" "$@"
    ;;
esac
exec "$CARGO_TARGET_DIR/release/perfbench" "$@"
