//! Resilience-layer integration tests: retry waves under a thundering
//! herd, failure quarantine vs. cache capacity, the per-variant circuit
//! breaker, and panic conversion. Fault plans are attached per-compiler
//! ([`Compiler::with_fault_plan`]) so tests stay parallel-safe — nothing
//! here touches the process-wide plan slot.

use ks_core::{Compiler, Defines, ResilienceConfig};
use ks_fault::{FaultKind, FaultPlan, FaultRule, Target};
use ks_sim::DeviceConfig;
use std::sync::{Arc, Barrier};
use std::time::Duration;

const KERNEL: &str = r#"
    #ifndef LOOP_COUNT
    #define LOOP_COUNT loopCount
    #endif
    __global__ void stress(int* in, int* out, int loopCount) {
        int acc = 0;
        const unsigned int offset = blockIdx.x * blockDim.x + threadIdx.x;
        for (int i = 0; i < LOOP_COUNT; i++) {
            acc += *(in + offset + i);
        }
        *(out + offset) = acc;
    }
"#;

fn defines(loop_count: usize) -> Defines {
    Defines::new().def("LOOP_COUNT", loop_count)
}

/// Satellite: N concurrent requests for a key whose leader *errors*
/// (not panics). Exactly one retry wave runs (the leader's), every
/// thread observes the same `Err`, the failure never counts as a hit or
/// a miss, and once the quarantine expires a fresh compile succeeds.
#[test]
fn thundering_herd_under_failure_costs_one_retry_wave() {
    const THREADS: usize = 6;
    // The fault clears after 2 injections: initial attempt + 1 retry.
    // With max_retries = 1 the leader's wave exhausts the fault, so the
    // post-quarantine compile is clean.
    let plan = Arc::new(
        FaultPlan::new(42).rule(
            FaultRule::new(FaultKind::CompileError, Target::Any)
                .persistent()
                .limit(2),
        ),
    );
    let compiler = Arc::new(
        Compiler::new(DeviceConfig::tesla_c1060())
            .with_fault_plan(plan.clone())
            .with_resilience(ResilienceConfig {
                max_retries: 1,
                backoff_base: Duration::ZERO,
                quarantine_ttl: Duration::from_millis(50),
                ..ResilienceConfig::default()
            }),
    );
    let barrier = Arc::new(Barrier::new(THREADS));
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let (c, b) = (compiler.clone(), barrier.clone());
            std::thread::spawn(move || {
                b.wait();
                c.compile(KERNEL, defines(8))
            })
        })
        .collect();
    let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    let msgs: Vec<String> = results
        .iter()
        .map(|r| r.as_ref().unwrap_err().message.clone())
        .collect();
    assert!(
        msgs[0].contains("injected fault: compile-error"),
        "unexpected error: {}",
        msgs[0]
    );
    for m in &msgs[1..] {
        assert_eq!(m, &msgs[0], "followers must observe the leader's error");
    }

    let s = compiler.cache_stats();
    assert_eq!(s.retries, 1, "exactly one retry wave: {s}");
    assert_eq!(s.failures, THREADS as u64, "every caller counts: {s}");
    assert_eq!(s.hits + s.misses, 0, "failures are not hits or misses: {s}");
    assert_eq!(plan.injected_count(), 2);

    // Inside the quarantine window the key fast-fails with the recorded
    // error — no fresh compile attempt, so no new injections.
    let err = compiler.compile(KERNEL, defines(8)).unwrap_err();
    assert_eq!(err.message, msgs[0]);
    let s = compiler.cache_stats();
    assert!(s.quarantined >= 1, "fast-fail must count: {s}");
    assert_eq!(plan.injected_count(), 2, "quarantine must not re-attempt");

    // After expiry the fresh compile runs — the fault is exhausted, so
    // it succeeds and the key caches normally.
    std::thread::sleep(Duration::from_millis(60));
    compiler.compile(KERNEL, defines(8)).unwrap();
    let s = compiler.cache_stats();
    assert_eq!(s.misses, 1, "post-quarantine compile is a fresh miss: {s}");
    compiler.compile(KERNEL, defines(8)).unwrap();
    assert_eq!(compiler.cache_stats().hits, 1);
}

/// Satellite: quarantined failures must not occupy LRU capacity or ever
/// be served as hits. With capacity 1, a failed key and a cached good
/// key coexist; the good key stays resident and no eviction happens.
#[test]
fn quarantined_failures_do_not_occupy_cache_capacity() {
    let plan = Arc::new(
        FaultPlan::new(7).rule(
            // Only LOOP_COUNT=13 compiles fail; everything else is clean.
            FaultRule::new(
                FaultKind::CompileError,
                Target::Define("LOOP_COUNT=13".into()),
            )
            .persistent(),
        ),
    );
    let compiler = Compiler::new(DeviceConfig::tesla_c1060())
        .with_cache_capacity(1)
        .with_fault_plan(plan)
        .with_resilience(ResilienceConfig {
            quarantine_ttl: Duration::from_secs(60),
            ..ResilienceConfig::default()
        });

    assert!(compiler.compile(KERNEL, defines(13)).is_err());
    compiler.compile(KERNEL, defines(1)).unwrap();
    // The good key still fits (the failure holds no capacity) and is
    // served as a hit; the quarantined key fast-fails, never a hit.
    compiler.compile(KERNEL, defines(1)).unwrap();
    assert!(compiler.compile(KERNEL, defines(13)).is_err());
    let s = compiler.cache_stats();
    assert_eq!(s.evictions, 0, "failed entry must not evict: {s}");
    assert_eq!((s.hits, s.misses), (1, 1), "stats: {s}");
    assert_eq!(s.failures, 2, "stats: {s}");
    assert_eq!(s.quarantined, 1, "second bad call fast-fails: {s}");
    assert_eq!(s.hits + s.misses, 2, "requests invariant: {s}");
}

/// K consecutive failures trip the key's breaker; while open, callers
/// fast-fail with a breaker error; after the cooldown the half-open
/// probe re-attempts and a persistent fault re-trips it.
#[test]
fn circuit_breaker_trips_and_retrips_on_half_open_probe() {
    let plan = Arc::new(
        FaultPlan::new(3).rule(
            FaultRule::new(
                FaultKind::CompileError,
                Target::Define("LOOP_COUNT=2".into()),
            )
            .persistent(),
        ),
    );
    let compiler = Compiler::new(DeviceConfig::tesla_c1060())
        .with_fault_plan(plan)
        .with_resilience(ResilienceConfig {
            breaker_threshold: 3,
            breaker_cooldown: Duration::from_millis(50),
            quarantine_ttl: Duration::ZERO,
            ..ResilienceConfig::default()
        });

    // Zero quarantine: every call re-attempts and the consecutive count
    // climbs to the threshold.
    for _ in 0..3 {
        assert!(compiler.compile(KERNEL, defines(2)).is_err());
    }
    let s = compiler.cache_stats();
    assert_eq!(s.breaker_opens, 1, "threshold reached: {s}");

    // Open: fast-fail with the breaker error, no compile attempt.
    let err = compiler.compile(KERNEL, defines(2)).unwrap_err();
    assert!(
        err.message
            .contains("circuit breaker open (3 consecutive failures)"),
        "got: {}",
        err.message
    );
    let s = compiler.cache_stats();
    assert_eq!(s.quarantined, 1, "breaker fast-fail counts: {s}");

    // Cooldown elapses; the half-open probe runs a real attempt, the
    // persistent fault fails it again, and the breaker re-trips.
    std::thread::sleep(Duration::from_millis(60));
    assert!(compiler.compile(KERNEL, defines(2)).is_err());
    let s = compiler.cache_stats();
    assert_eq!(s.breaker_opens, 2, "half-open probe re-trips: {s}");

    // A different specialization of the same source is a different key:
    // its breaker is independent and it compiles fine.
    compiler.compile(KERNEL, defines(4)).unwrap();
}

/// `catch_panics` converts an injected compile panic into a retryable
/// `CompileError`; with one retry the compile still succeeds.
#[test]
fn catch_panics_converts_leader_panic_into_retryable_error() {
    let plan = Arc::new(
        FaultPlan::new(9).rule(FaultRule::new(FaultKind::CompilePanic, Target::Any).limit(1)),
    );
    let compiler = Compiler::new(DeviceConfig::tesla_c1060())
        .with_fault_plan(plan)
        .with_resilience(ResilienceConfig {
            max_retries: 1,
            backoff_base: Duration::ZERO,
            catch_panics: true,
            ..ResilienceConfig::default()
        });
    compiler.compile(KERNEL, defines(5)).unwrap();
    let s = compiler.cache_stats();
    assert_eq!((s.retries, s.misses, s.failures), (1, 1, 0), "stats: {s}");
}

/// Backoff is deterministic in (jitter_seed, key, attempt), grows
/// exponentially from the base, respects the cap, and jitters within
/// [0.5, 1.5) of the nominal delay.
#[test]
fn backoff_is_deterministic_bounded_and_jittered() {
    let cfg = ResilienceConfig {
        max_retries: 8,
        backoff_base: Duration::from_millis(4),
        backoff_cap: Duration::from_millis(20),
        ..ResilienceConfig::default()
    };
    for attempt in 1..=8u32 {
        let d = cfg.backoff(0xABCD, attempt);
        assert_eq!(d, cfg.backoff(0xABCD, attempt), "deterministic");
        let nominal = (4u64 << (attempt - 1)).min(20) as f64;
        let ms = d.as_secs_f64() * 1e3;
        assert!(
            ms >= nominal * 0.5 && ms < nominal * 1.5,
            "attempt {attempt}: {ms}ms outside [{}, {})",
            nominal * 0.5,
            nominal * 1.5
        );
    }
    // Different keys see different jitter (the herd decorrelates).
    assert_ne!(cfg.backoff(1, 1), cfg.backoff(2, 1));
}

/// Same seed, same call sequence: two independent plans produce
/// byte-identical event logs (the determinism the CI drill diffs).
#[test]
fn same_seed_plans_replay_identical_event_logs() {
    let mk = || {
        Arc::new(
            FaultPlan::new(1234)
                .rule(FaultRule::new(FaultKind::CompileError, Target::Any).rate_ppm(400_000)),
        )
    };
    let (plan_a, plan_b) = (mk(), mk());
    for plan in [&plan_a, &plan_b] {
        let compiler = Compiler::new(DeviceConfig::tesla_c1060())
            .with_fault_plan(plan.clone())
            .with_resilience(ResilienceConfig {
                max_retries: 4,
                backoff_base: Duration::ZERO,
                ..ResilienceConfig::default()
            });
        for i in 0..6 {
            compiler.compile(KERNEL, defines(i + 1)).unwrap();
        }
    }
    assert_eq!(plan_a.event_log(), plan_b.event_log());
    assert!(
        plan_a.injected_count() > 0,
        "seed 1234 must inject something"
    );
}

/// A `Target::Kernel` rule matches a compile by the kernel its source
/// defines, as the launches are named, and not by one in a comment
/// ahead of it.
#[test]
fn kernel_target_names_the_real_kernel_not_a_commented_one() {
    let source = format!("// __global__ void old(int* in, int* out, int loopCount);\n{KERNEL}");
    let failing = |kernel: &str| {
        let rule = FaultRule::new(FaultKind::CompileError, Target::Kernel(kernel.into()));
        Compiler::new(DeviceConfig::tesla_c1060())
            .with_fault_plan(Arc::new(FaultPlan::new(3).rule(rule.persistent())))
    };
    assert!(
        failing("stress").compile(&source, defines(4)).is_err(),
        "a rule on the kernel the source defines fires at its compile"
    );
    assert!(
        failing("old").compile(&source, defines(4)).is_ok(),
        "a kernel named only in a comment is not the source's"
    );
}
