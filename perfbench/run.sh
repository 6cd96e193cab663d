#!/usr/bin/env bash
# Builds the benchmark and the program from source, then runs it:
#
#   bash perfbench/run.sh --workload car-read --seed 1 --seconds 20 --trace 0
#
# Run it from the root of a checkout of the repository; it needs the
# repository's crates and its offline cargo configuration.
set -euo pipefail
if [ ! -f Cargo.toml ] || [ ! -d crates ] || [ ! -f .cargo/config.toml ]; then
    echo "perfbench: run from the root of a full checkout (crates/ and .cargo/ are missing)" >&2
    exit 2
fi
export CARGO_NET_OFFLINE=true
exec cargo run --release --quiet --manifest-path perfbench/Cargo.toml -- "$@"
