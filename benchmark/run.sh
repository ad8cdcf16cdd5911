#!/usr/bin/env bash
# The one command: build ks-ledger, run the four workloads untraced (one
# process each; the end-to-end numbers), then traced (the per-layer
# numbers), merge everything into one JSON document and print a
# `workload name unit value` line per metric.
#
#   benchmark/run.sh [--out FILE] [--seed N] [--seconds S]
#
# --out defaults to benchmark/out/BENCH.json; a later PR passes
# --out BENCH_<pr>.json to leave its result at the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."

out=benchmark/out/BENCH.json
pass=()
while [ $# -gt 0 ]; do
    case "$1" in
        --out) out="$2"; shift 2 ;;
        --seed | --seconds) pass+=("$1" "$2"); shift 2 ;;
        *) echo "usage: benchmark/run.sh [--out FILE] [--seed N] [--seconds S]" >&2; exit 2 ;;
    esac
done

cargo build --release --offline --manifest-path benchmark/Cargo.toml
mkdir -p "$(dirname "$out")"
"${CARGO_TARGET_DIR:-benchmark/target}/release/ks-ledger" --all --out "$out" ${pass[@]+"${pass[@]}"}
