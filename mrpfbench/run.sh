#!/usr/bin/env bash
# Builds the benchmark and the `mrpf` binary it serves from (both from this
# checkout's source), then runs one workload:
#   bash mrpfbench/run.sh --workload grid|signoff|serve-zipf --seed N --seconds S --trace 0|1
# Cargo's output goes to stderr; the last line of stdout is the result.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/mrpfbench" "$@"
