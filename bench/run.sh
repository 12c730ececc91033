#!/usr/bin/env bash
# Build the ledger offline, run every workload untraced and traced, and
# leave bench/out/results.json plus one bench/out/trace-<workload>.json each.
# Extra arguments go to `pipedream-ledger run` (e.g. --seed 7 --seconds 4).
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release --offline --manifest-path bench/Cargo.toml
mkdir -p bench/out
exec cargo run --release --offline --quiet --manifest-path bench/Cargo.toml -- \
    run --trace 1 --out bench/out/results.json "$@"
