#!/usr/bin/env bash
# Tier-1 for the benchmark package. It sits outside the workspace, so the
# repository's ci.sh never sees it: formatting, clippy -D warnings, the
# unit tests, and ks-ledger's own test (--check: every workload at 1/20
# size, exact metrics identical between two runs of one seed).
set -euo pipefail
cd "$(dirname "$0")/.."
manifest=benchmark/Cargo.toml

echo "== cargo fmt --check"
cargo fmt --manifest-path "$manifest" -- --check

echo "== cargo clippy -D warnings"
cargo clippy --offline --manifest-path "$manifest" --all-targets -- -D warnings

echo "== cargo test"
cargo test --offline --release -q --manifest-path "$manifest"

echo "== ks-ledger --check"
cargo run --offline --release -q --manifest-path "$manifest" -- --check
