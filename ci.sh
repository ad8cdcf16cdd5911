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

# A compiled kernel launches its binary's cached plan (ks-apps'
# launch_binary, gpu-pf's pipeline): ks_sim::launch decodes a plan of
# its own on every call and never hits the timing memo, so it is for
# tests over hand-built IR only.
echo "== no ks_sim::launch in shipped crates or examples"
if perl -0777 -ne 'print "$ARGV\n" if /ks_sim::(launch\b(?![_:])|\*)|use ks_sim::\{[^}]*\blaunch\b(?![_:])/' \
    $(find crates/apps/src crates/bench/src crates/gpu-pf/src examples -name '*.rs') | grep .; then
    echo "the files above call ks_sim::launch; launch the binary's plan" >&2
    exit 1
fi

# Every example is a checked step below: one that no step runs is only
# ever built (by clippy), and its output can rot unnoticed.
echo "== every example is run by a --example step"
for f in examples/*.rs crates/*/examples/*.rs; do
    [ -e "$f" ] || continue
    if ! grep -Eq "^cargo run .*--example $(basename "$f" .rs)( |$)" ci.sh; then
        echo "$f: no ci.sh step runs it (cargo run ... --example)" >&2
        exit 1
    fi
done

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
# Background compiles run on the pool's spawn lane, beside the par_iter
# callers (compile_batch) that share its workers: the async tier's
# resolve-exactly-once and accounting tests at the same opt-level.
echo "== cargo test --release (async compile tier on the shared pool)"
cargo test --offline --release -q -p ks-core --test async_tier
# The executor the benchmark runs, at the opt-level it runs at: the
# vectorised lane loops and the x86-64-v3 copy of the block executor
# only exist there. Its row kernels against the scalar definition in
# ks_ir::eval, every (op, type) lane by lane; the portable copy against
# the x86-64-v3 one (the unit tests); the 55 golden launches; the timing
# memo; the launch cut with the benchmark's chunk sizes (a launch over
# the share threshold split between threads, one under it kept off the
# pool); and the bad-address traps, whose address arithmetic only wraps
# silently (rather than panicking) here. Then
# ks-analysis, whose abstract lanes run through the same SIMT control
# core, with its golden, at that opt-level too. And both constant
# folders — ks-opt's on IR, ks-codegen's on the HIR — against the
# executor built the way the benchmark runs it.
echo "== cargo test --release (the executor at opt-level 3)"
cargo test --offline --release -q -p ks-sim --lib --test rows_vs_eval \
    --test plan_equiv --test timing_memo --test worker_grain --test sub_grain_launch \
    --test bad_address
cargo test --offline --release -q -p ks-analysis
cargo test --offline --release -q -p ks-apps --test constfold_vs_executor
# The same executor with overflow checks and debug assertions on
# (`[profile.checked]`: release opt-level, so the vectorised row kernels
# and the x86-64-v3 copy are the ones that run): a register-bank index or
# an address computed out of range panics instead of wrapping.
echo "== cargo test --profile checked -p ks-sim (overflow-checked executor)"
cargo test --offline --profile checked -q -p ks-sim
# The front end's one constant evaluator, on the same profile: it masks
# and shifts values the kernel source supplies (`#if` at 64 bits, array
# sizes at 32), so an operation that is not written to wrap panics here.
echo "== cargo test --profile checked -p ks-lang (overflow-checked front end)"
cargo test --offline --profile checked -q -p ks-lang
# The record checksum's word loop is only vectorised at opt-level 3:
# its pinned vectors and exhaustive bit-flip test run on that build too,
# and so do ks-core's store round trips (warm starts, corrupt and torn
# records) over the encoder and the lazily decoded module section.
echo "== cargo test --release (ks-store record checksum, ks-core store tier)"
cargo test --offline --release -q -p ks-store
cargo test --offline --release -q -p ks-core --test store

# Profile one kernel end to end with the JSONL exporter; --selfcheck
# validates the export schema (span nesting, phase sums vs the compile
# span), hits + misses == requests, sim counters == launch reports,
# timing memo hits + misses + ineligible == launches, the async balance,
# scope roll-up and the seeded-flip integrity counts, and exits non-zero
# on any mismatch.
echo "== ks-prof --kernel template_match --export jsonl --selfcheck"
cargo run --offline --release -q -p ks-apps --bin ks-prof -- \
    --kernel template_match --device c2070 --export jsonl --quick \
    --selfcheck > /dev/null

# The quickstart's two listings, each printed on its first read from the
# binary's module (a compile prints none): the run-time evaluated kernel
# keeps its loop test, the specialized one (-D LOOP_COUNT=5, unrolled)
# has none. The example asserts its own outputs and exits non-zero on
# a mismatch.
echo "== quickstart (RE listing has setp, SK listing has none)"
QS_OUT=$(mktemp)
cargo run --offline --release -q -p ks-apps --example quickstart \
    > "$QS_OUT" 2> /dev/null
RE_PTX=$(sed -n '/^── run-time evaluated PTX/,/^── specialized PTX/p' "$QS_OUT")
SK_PTX=$(sed -n '/^── specialized PTX/,/^static instructions/p' "$QS_OUT")
grep -q '^\.entry mathTest' <<< "$RE_PTX"
grep -q '^\.entry mathTest' <<< "$SK_PTX"
grep -q 'setp' <<< "$RE_PTX"
if grep -q 'setp' <<< "$SK_PTX"; then
    echo "specialized listing still branches on a loop test" >&2
    exit 1
fi
rm -f "$QS_OUT"

# The OpenCV row filter (constant memory, f32 taps; RE and SK builds of
# five filter sizes, one past the RE build's 32-tap ceiling): the example
# exits non-zero unless every output equals its CPU reference.
echo "== row_filter (every output equals the CPU reference)"
cargo run --offline --release -q -p ks-apps --example row_filter > /dev/null

# Cone-beam backprojection: RE and SK builds over a PPL x ZB sweep, each
# reconstruction against the CPU reference (the example exits non-zero
# past a 1e-3 relative error); the grep pins the sweep's last row and
# the slice printed after it.
echo "== backprojection (every build matches the CPU reference)"
BP_OUT=$(mktemp)
cargo run --offline --release -q -p ks-apps --example backprojection > "$BP_OUT"
test "$(grep -cE '^ +(4|8|16) +(1|2|4) \|' "$BP_OUT")" = 9
grep -q "^central slice" "$BP_OUT"
rm -f "$BP_OUT"

# PIV flow recovery: RE, SK and warp-specialized SK builds on both
# devices; the example exits non-zero unless every displacement vector
# equals the planted flow. The grep pins the six result rows.
echo "== piv (every displacement equals the planted flow)"
PIV_OUT=$(mktemp)
cargo run --offline --release -q -p ks-apps --example piv > "$PIV_OUT"
test "$(grep -c '| 100/100 vectors correct$' "$PIV_OUT")" = 6
rm -f "$PIV_OUT"

# Template matching as a streaming gpu-pf pipeline: every frame must
# locate the template planted at its known offset (the example exits
# non-zero otherwise); the grep pins the run's closing line.
echo "== template_matching (every frame finds the planted template)"
cargo run --offline --release -q -p ks-apps --example template_matching 2> /dev/null \
    | grep -q "^total simulated GPU time"

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
# exits non-zero on any violation (the async balance included); the
# greps pin the summary lines so a silently-skipped check also fails.
# Two runs must print byte-identical stdout: no count that depends on
# timing.
echo "== tiered-execution drill (generic first, hot-swap on promotion)"
TIERED_OUT=$(mktemp) TIERED_OUT_B=$(mktemp)
cargo run --offline --release -q -p ks-apps --example tiered_execution \
    > "$TIERED_OUT" 2> /dev/null
cargo run --offline --release -q -p ks-apps --example tiered_execution \
    > "$TIERED_OUT_B" 2> /dev/null
diff -u "$TIERED_OUT" "$TIERED_OUT_B"
grep -q "modules specialized: 3/3" "$TIERED_OUT"
grep -q "first launch on generic: 3/3" "$TIERED_OUT"
grep -q "superseded: 1, parity: ok" "$TIERED_OUT"
grep -q "redirty served: generic, parity: ok" "$TIERED_OUT"
grep -q "async balance (spawned == completed + failed + cancelled): ok" "$TIERED_OUT"
rm -f "$TIERED_OUT" "$TIERED_OUT_B"

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

# Cross-process cold start: run the whole quick experiment suite twice
# against one store directory. The second run is a real process restart
# and must perform zero compiles, serving every specialization of every
# table from disk (asserted in-process on the ks_core.* registry
# counters).
echo "== ks-bench all --quick, twice on one store (warm restart)"
STORE_DIR=$(mktemp -d) BENCH_DIR=$(mktemp -d)
cargo run --offline --release -q -p ks-bench -- \
    all --quick --store "$STORE_DIR" --out-dir "$BENCH_DIR" > /dev/null
cargo run --offline --release -q -p ks-bench -- \
    all --quick --store "$STORE_DIR" --out-dir "$BENCH_DIR" --assert-warm \
    | grep -q "warm start verified: 0 compiles"

# Every simulated number of every quick table is pinned: the CSVs must
# match crates/bench/golden/quick byte for byte, except the wall-clock
# columns (CPU ms and the speedups over it in Tables 6.10 and 6.12).
echo "== ks-bench all --quick vs the golden tables"
GOLDEN=crates/bench/golden/quick
simulated() {
    case "$(basename "$1")" in
        table_6_10.csv | table_6_12.csv) cut -d, -f1,2,4,5 "$1" ;;
        *) cat "$1" ;;
    esac
}
diff <(ls "$GOLDEN") <(ls "$BENCH_DIR")
for f in "$GOLDEN"/*.csv; do
    diff -u <(simulated "$f") <(simulated "$BENCH_DIR/${f##*/}")
done
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
# requires the opt-step checker to catch 100% of them. First, at the
# opt-level the compiler ships at: the block-by-block opt-step check
# against the whole-function path check on every optimizer step of the
# churn grid (same KSV0xx findings, KSV101 a subset, zero fallbacks).
echo "== cargo test --release -p ks-verify --test blockwise"
cargo test --offline --release -q -p ks-verify --test blockwise
verify() {
    cargo run --offline --release -q -p ks-apps --bin ks-verify -- "$@"
}
for k in template_match piv backproj; do
    echo "== ks-verify --kernel $k --check all"
    verify --kernel "$k" --check all > /dev/null
    echo "== ks-verify --kernel $k --mutation-smoke"
    verify --kernel "$k" --mutation-smoke > /dev/null
done
# The findings' JSONL export: one object per line, each with its six
# fields (ks-apps' verify_export test parses them back).
echo "== ks-verify --kernel piv --check all --export jsonl"
VERIFY_OUT=$(mktemp)
verify --kernel piv --check all --export jsonl > "$VERIFY_OUT"
test -s "$VERIFY_OUT"
if grep -Ev '^\{"code":"KSV[0-9]{3}","severity":"(error|warning)","context":.*,"message":".*"\}$' \
    "$VERIFY_OUT"; then
    echo "the lines above are not findings" >&2
    exit 1
fi
rm -f "$VERIFY_OUT"

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

# Telemetry tier: scoped metrics, rolling windows, and the SDC-rate
# SLO rule (gpu_pf.integrity.violations, budget 0 per window).
# (1) The Prometheus exposition must carry a # TYPE line per family and
# labeled samples. (2) A live watch run with a tiny JSONL sink must
# overflow without blocking and without losing accounting (offered ==
# drained + dropped, dropped > 0) while the two concurrent pipelines
# keep distinct windowed p95s. (3) The drill records one violation at
# tick 4 of 8: exactly one typed SLO-breach event, and one recovery
# once it leaves the 4-tick window at tick 8; a clean run fires zero.
echo "== ks-prof --kernel piv --export text"
TEXT_OUT=$(mktemp)
cargo run --offline --release -q -p ks-apps --bin ks-prof -- \
    --kernel piv --export text --quick > "$TEXT_OUT" 2> /dev/null
grep -q '^kernel profile: piv ' "$TEXT_OUT"
grep -Eq '^  cache: [0-9]+ hits / [0-9]+ misses' "$TEXT_OUT"
grep -q '^  spans:$' "$TEXT_OUT"
rm -f "$TEXT_OUT"

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

echo "== ks-prof watch --drill-breach (SDC rule breaches once, recovers once)"
BREACH_OUT=$(mktemp) CLEAN_OUT=$(mktemp)
cargo run --offline --release -q -p ks-apps --bin ks-prof -- \
    watch --ticks 8 --drill-breach > "$BREACH_OUT" 2> /dev/null
test "$(grep -c '^SLO breach' "$BREACH_OUT")" = 1
grep -q "watch: slo breaches=1" "$BREACH_OUT"
grep -q "watch: slo breaches=1 recoveries=1" "$BREACH_OUT"
cargo run --offline --release -q -p ks-apps --bin ks-prof -- \
    watch --ticks 6 > "$CLEAN_OUT" 2> /dev/null
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
