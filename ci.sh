#!/usr/bin/env bash
# Tier-1 verification: formatting, lints, build, tests, and a clean
# ks-lint bill of health for the three shipped app kernels (linted with
# the geometry the apps actually launch, all severities escalated to
# deny so any diagnostic fails CI).
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy -D warnings"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "== cargo build --release"
cargo build --offline --release
# benchmark/ is its own package outside the workspace and links gpu-pf's
# public API: build it here so an API slip fails in minutes, not in the
# last step.
cargo build --offline --release --manifest-path benchmark/Cargo.toml

# --no-fail-fast: one red crate must not hide every crate after it.
# KS_CI_REPEAT=N runs the suite N times (default 1): tier-1 must be green
# on every run, not most runs, and a flaky test only shows in repeats.
for run in $(seq 1 "${KS_CI_REPEAT:-1}"); do
    echo "== cargo test (run $run of ${KS_CI_REPEAT:-1})"
    cargo test --offline -q --no-fail-fast
    # The parallel iterator's pool contract once more at opt-level 3:
    # order, earliest error, per-participant state, nested and concurrent
    # callers, panics on either side, lazy start, 10 000 back-to-back
    # jobs. The optimized build is the one whose jobs are short enough
    # for a worker to arrive after the last chunk is gone.
    cargo test --offline --release -q --manifest-path vendor/rayon/Cargo.toml
done

# Concurrency stress tests run in release mode: the optimized build
# shrinks the compile window enough to actually exercise the
# single-flight dedup and eviction races (debug timings hide them).
echo "== cargo test --release (cache concurrency stress)"
cargo test --offline --release -q -p ks-core --test concurrency
cargo test --offline --release -q -p ks-tune --test parallel_compile
# The executor's row kernels against the scalar definition in
# ks_ir::eval, every (op, type) lane by lane: the vectorised lane loops
# the benchmark runs only exist at opt-level 3.
echo "== cargo test --release (row kernels == ks_ir::eval)"
cargo test --offline --release -q -p ks-sim --test rows_vs_eval

# Profile one kernel end to end with the JSONL exporter; --selfcheck
# validates the export schema (span nesting, phase sums vs the compile
# span), hits + misses == requests, sim counters == launch reports, the
# async balance, scope roll-up and the seeded-flip integrity counts, and
# exits non-zero on any mismatch.
echo "== ks-prof --kernel template_match --export jsonl --selfcheck"
cargo run --offline --release -q -p ks-apps --bin ks-prof -- \
    --kernel template_match --device c2070 --export jsonl --quick \
    --selfcheck > /dev/null

# Fault-injection tier: every gpu-pf example pipeline must complete
# under a seeded FaultPlan (10% transient compile faults, 5% transient
# device faults, plus a persistent fault pinned to one module's
# specialization defines) with zero panics, and the run must be
# deterministic: same seed => byte-identical stdout (the fault event
# log carries no timestamps).
echo "== fault-injection drill (seeded, deterministic)"
FAULT_OUT_A=$(mktemp) FAULT_OUT_B=$(mktemp)
cargo run --offline --release -q -p ks-apps --example fault_injection -- \
    --seed 77 > "$FAULT_OUT_A" 2> /dev/null
cargo run --offline --release -q -p ks-apps --example fault_injection -- \
    --seed 77 > "$FAULT_OUT_B" 2> /dev/null
diff -u "$FAULT_OUT_A" "$FAULT_OUT_B"
grep -q "pipelines completed: 3/3, panics: 0" "$FAULT_OUT_A"
rm -f "$FAULT_OUT_A" "$FAULT_OUT_B"

# Tiered-execution tier: pipelines in tiered refresh mode must serve
# the first launch on the generic binary without waiting for the
# specialized compile, hot-swap every module to Specialized, cancel
# superseded in-flight promotions, serve a settled module that is
# re-dirtied from the generic binary (never the old specialization),
# and produce byte-identical outputs to blocking mode. The example
# exits non-zero on any violation; the greps pin the summary lines so a
# silently-skipped check also fails.
echo "== tiered-execution drill (generic first, hot-swap on promotion)"
TIERED_OUT=$(mktemp)
cargo run --offline --release -q -p ks-apps --example tiered_execution \
    > "$TIERED_OUT" 2> /dev/null
grep -q "modules specialized: 3/3" "$TIERED_OUT"
grep -q "first launch on generic: 3/3" "$TIERED_OUT"
grep -q "superseded: 1, parity: ok" "$TIERED_OUT"
grep -q "redirty served: generic, parity: ok" "$TIERED_OUT"
rm -f "$TIERED_OUT"

# Persistent-store tier: compile, drop process state (fresh compiler,
# empty in-memory cache), reload byte-identical binaries from the
# content-addressed store; then corrupt a record on purpose and assert
# a graceful, byte-identical recompile (store_errors == 1, no panic).
echo "== persistent-store drill (warm start, corruption recovery)"
STORE_OUT=$(mktemp)
cargo run --offline --release -q -p ks-apps --example persistent_store \
    > "$STORE_OUT" 2> /dev/null
grep -q "warm restart: 0 compiles, 3/3 disk hits, identical: ok" "$STORE_OUT"
grep -q "corruption: recovered 1/1, store errors: 1, identical: ok" "$STORE_OUT"
rm -f "$STORE_OUT"

# Cross-process cold start: run the full table_6_13 suite twice against
# one store directory. The second run is a real process restart and
# must perform zero compiles, serving every specialization from disk
# (asserted in-process on the ks_core.* registry counters).
echo "== table_6_13 cold-start (process restart on a warm store)"
STORE_DIR=$(mktemp -d) BENCH_DIR=$(mktemp -d)
KS_BENCH_DIR="$BENCH_DIR" KS_BENCH_QUICK=1 KS_BENCH_STORE="$STORE_DIR" \
cargo run --offline --release -q -p ks-bench --bin table_6_13 > /dev/null
KS_BENCH_DIR="$BENCH_DIR" KS_BENCH_QUICK=1 KS_BENCH_STORE="$STORE_DIR" \
KS_BENCH_ASSERT_WARM=1 \
cargo run --offline --release -q -p ks-bench --bin table_6_13 \
    | grep -q "warm start verified: 0 compiles"
rm -rf "$STORE_DIR" "$BENCH_DIR"

# The profiler selfcheck's invariants must hold just the same while
# compile faults are being injected and retried: failed attempts never
# enter hits + misses == requests, every ticket still resolves once.
echo "== ks-prof --selfcheck under injected compile faults"
KS_FAULT_SEED=77 KS_FAULT_COMPILE_PPM=100000 \
cargo run --offline --release -q -p ks-apps --bin ks-prof -- \
    --kernel template_match --device c2070 --export jsonl --quick \
    --selfcheck > /dev/null

# Verification tier: translation validation. Every codegen stage and
# optimizer pass must preserve each app kernel's symbolic summary, and
# the specialized (SK) build must equal the generic (RE) build under
# the -D bindings — zero KSV0xx errors allowed (KSV101 budget warnings
# are fine). The mutation smoke then injects seeded IR breakages and
# requires the checker to catch 100% of them.
verify() {
    cargo run --offline --release -q -p ks-apps --bin ks-verify -- "$@"
}
for k in template_match piv backproj; do
    echo "== ks-verify --kernel $k --check all"
    verify --kernel "$k" --check all > /dev/null
    echo "== ks-verify --kernel $k --mutation-smoke"
    verify --kernel "$k" --mutation-smoke > /dev/null
done

# Compile-latency regression gate: fresh per-phase p50/p95 vs the
# checked-in baseline; a phase fails only past 10x AND the 2 ms floor,
# so machine variance cannot flake the build but order-of-magnitude
# blowups do.
echo "== ks-perfgate --check ci/perf-baseline.txt"
cargo run --offline --release -q -p ks-apps --bin ks-perfgate -- \
    --check ci/perf-baseline.txt --iters 5

lint() {
    cargo run --offline --release -q -p ks-analysis --bin ks-lint -- \
        --deny KSA004 --deny KSA005 "$@"
}

echo "== ks-lint crates/apps/src/kernels/piv.cu"
lint crates/apps/src/kernels/piv.cu \
    -D RB=4 -D THREADS=64 -D MASK_W=16 -D MASK_H=16 -D OFFS_W=9 \
    --block 64 --grid 16,21,1 \
    -A imgW=96 -A numOffsets=81 -A masksX=4 -A stepX=16 -A stepY=16 \
    -A marginX=4 -A marginY=4 -A rb=4

echo "== ks-lint crates/apps/src/kernels/template_match.cu"
lint crates/apps/src/kernels/template_match.cu \
    -D TILE_W=16 -D TILE_H=16 -D SHIFT_W=16 -D NUM_TILES=16 \
    -D TEMPL_W=64 -D TEMPL_H=56 -D THREADS=128 \
    --block 128 \
    -A frameW=320 -A numOffsets=256 -A templW=64 -A templH=56 -A tilesX=4 \
    -A tileX0=0 -A tileY0=0 -A tileBase=0 -A invN=0.00027901786 -A denomA=1.0

echo "== ks-lint crates/apps/src/kernels/backproj.cu"
lint crates/apps/src/kernels/backproj.cu \
    -D PPL=8 -D ZB=4 -D VOL_N=32 \
    --block 16,4 \
    -A detU=48 -A detV=48 -A ppl=8 -A zb=4 -A z0=0 \
    -A sid=100.0 -A sdd=150.0 -A halfN=16.0 -A halfU=24.0 -A halfV=24.0

# Telemetry tier: scoped metrics, rolling windows, and the SLO
# watchdog. (1) The Prometheus exposition must carry a # TYPE line per
# family and labeled samples. (2) A live watch run with a tiny JSONL
# sink must overflow without blocking and without losing accounting
# (offered == drained + dropped, dropped > 0) while the two concurrent
# pipelines keep distinct windowed p95s. (3) The seeded drill must fire
# exactly one typed SLO-breach event against the checked-in baseline,
# and a clean run must fire zero.
echo "== ks-prof --export prom (exposition schema)"
PROM_OUT=$(mktemp)
cargo run --offline --release -q -p ks-apps --bin ks-prof -- \
    --kernel template_match --device c2070 --export prom --quick \
    > "$PROM_OUT" 2> /dev/null
grep -q '^# TYPE ks_core_cache_hits counter$' "$PROM_OUT"
grep -q '^# TYPE ks_sim_occupancy gauge$' "$PROM_OUT"
grep -Eq '^ks_core_cache_hits\{kernel="template_match".*\} [0-9]+$' "$PROM_OUT"
rm -f "$PROM_OUT"

echo "== ks-prof watch (sink overflow drill, per-pipeline windows)"
WATCH_OUT=$(mktemp)
cargo run --offline --release -q -p ks-apps --bin ks-prof -- \
    watch --ticks 6 --window 3 --sink-cap 2 > "$WATCH_OUT" 2> /dev/null
grep -q "distinct: ok" "$WATCH_OUT"
grep -Eq "sink offered=[0-9]+ drained=[0-9]+ dropped=[1-9][0-9]* conserved: ok" \
    "$WATCH_OUT"
rm -f "$WATCH_OUT"

echo "== ks-prof watch --drill-breach (watchdog fires exactly once)"
BREACH_OUT=$(mktemp) CLEAN_OUT=$(mktemp)
cargo run --offline --release -q -p ks-apps --bin ks-prof -- \
    watch --ticks 8 --drill-breach --watchdog ci/perf-baseline.txt \
    > "$BREACH_OUT" 2> /dev/null
test "$(grep -c '^SLO breach' "$BREACH_OUT")" = 1
grep -q "watch: slo breaches=1" "$BREACH_OUT"
cargo run --offline --release -q -p ks-apps --bin ks-prof -- \
    watch --ticks 6 --watchdog ci/perf-baseline.txt > "$CLEAN_OUT" 2> /dev/null
grep -q "watch: slo breaches=0 recoveries=0" "$CLEAN_OUT"
rm -f "$BREACH_OUT" "$CLEAN_OUT"

# Integrity tier: silent-data-corruption defense end to end. (1) The
# seeded SDC drill injects one in-flight bit flip into each app
# kernel's specialized variant; every corruption must be caught by the
# generic-binary witness, adjudicated transient by re-execution voting,
# and recovered — final outputs byte-identical to the fault-free pass,
# which itself must report zero violations. Same seed => byte-identical
# stdout. (2) The store-scrub drill rots one record's payload (header
# intact, so only the full-checksum scrub can see it), asserts it is
# quarantined at attach time and recompiled cleanly; the ks-store-scrub
# CLI then finds the repaired store clean, and a separate process
# warm-starts both variants from it.
echo "== sdc drill (seeded flips detected, recovered, byte-identical)"
SDC_OUT_A=$(mktemp) SDC_OUT_B=$(mktemp)
cargo run --offline --release -q -p ks-apps --example sdc_drill -- \
    --seed 77 > "$SDC_OUT_A" 2> /dev/null
cargo run --offline --release -q -p ks-apps --example sdc_drill -- \
    --seed 77 > "$SDC_OUT_B" 2> /dev/null
diff -u "$SDC_OUT_A" "$SDC_OUT_B"
grep -q "clean pass: violations=0 across 3 pipelines" "$SDC_OUT_A"
grep -q "sdc drill: pipelines 3/3, injected 3, detected 3, recovered 3" \
    "$SDC_OUT_A"
grep -q "outputs byte-identical to fault-free run" "$SDC_OUT_A"
rm -f "$SDC_OUT_A" "$SDC_OUT_B"

echo "== store-scrub drill (rotted payload quarantined, warm restart)"
SCRUB_DIR=$(mktemp -d) SCRUB_OUT=$(mktemp)
cargo run --offline --release -q -p ks-apps --example sdc_drill -- \
    --scrub-drill "$SCRUB_DIR" > "$SCRUB_OUT" 2> /dev/null
grep -q "scrub drill: scanned=2 quarantined=1 recompiled store_errors=0" \
    "$SCRUB_OUT"
cargo run --offline --release -q -p ks-store --bin ks-store-scrub -- \
    "$SCRUB_DIR" | grep -q "2 valid, 0 quarantined"
cargo run --offline --release -q -p ks-apps --example sdc_drill -- \
    --warm-start "$SCRUB_DIR" \
    | grep -q "warm start: scanned=2 quarantined=0 disk_hits=2 store_errors=0"
rm -rf "$SCRUB_DIR" "$SCRUB_OUT"

# The benchmark package sits outside the workspace, so nothing above
# compiles it: its own fmt / clippy -D warnings / unit tests, and
# ks-ledger --check (every workload at 1/20 size against the crate API
# it links, exact metrics identical between two runs of one seed).
echo "== benchmark/check.sh"
benchmark/check.sh

echo "== ci.sh: all green"
