#!/usr/bin/env bash
# Build the `cqa` server binary and the benchmark driver from source,
# then run the driver with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload cold_solves --seed 1 --seconds 20 --trace 0
#
# Run it from (or point it at) a checkout of the repository. Cargo output
# goes to stderr; the last line of stdout is the JSON result.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [[ ! -f Cargo.toml || ! -d crates/cli ]]; then
    echo "perfbench: $root is not a checkout of the repository (no Cargo.toml / crates/cli)" >&2
    exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet -p cqa-cli --bin cqa >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" --cqa "$CARGO_TARGET_DIR/release/cqa" "$@"
