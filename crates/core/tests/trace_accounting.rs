//! Metric-accounting invariants under concurrency: the registry
//! counters ks-core publishes must stay consistent with each other
//! (`hits + misses == compile requests`), whatever mix of thundering
//! herds, distinct keys, and repeats the callers produce. A compiler's
//! own `CacheStats` are its cells under those counters, so they agree
//! with the registry by construction; what is checked here is that each
//! event is counted, once, in the right place.
//!
//! These tests share the process-wide registry, so each works on
//! before/after deltas and they are serialized by a file-local lock.

use ks_core::{Compiler, Defines};
use ks_sim::DeviceConfig;
use std::sync::{Arc, Mutex};

static TEST_LOCK: Mutex<()> = Mutex::new(());

const SRC: &str = r#"
    #ifndef GAIN
    #define GAIN gain
    #endif
    __global__ void amp(float* x, int gain, int n) {
        int i = (int)(blockIdx.x * blockDim.x + threadIdx.x);
        if (i < n) { x[i] = x[i] * (float)GAIN; }
    }
"#;

struct CacheDelta {
    hits: u64,
    misses: u64,
    dedup_waits: u64,
    requests: u64,
}

fn registry_cache_counters() -> (u64, u64, u64, u64) {
    let r = ks_trace::registry();
    (
        r.counter_value(ks_trace::names::CACHE_HITS),
        r.counter_value(ks_trace::names::CACHE_MISSES),
        r.counter_value(ks_trace::names::CACHE_DEDUP_WAITS),
        r.counter_value(ks_trace::names::COMPILE_REQUESTS),
    )
}

/// Run `f` and return the registry-counter delta it produced.
fn delta(f: impl FnOnce()) -> CacheDelta {
    let before = registry_cache_counters();
    f();
    let after = registry_cache_counters();
    CacheDelta {
        hits: after.0 - before.0,
        misses: after.1 - before.1,
        dedup_waits: after.2 - before.2,
        requests: after.3 - before.3,
    }
}

#[test]
fn thundering_herd_accounts_every_request() {
    let _guard = TEST_LOCK.lock().unwrap();
    let compiler = Arc::new(Compiler::new(DeviceConfig::tesla_c1060()));
    let threads = 8;
    let d = delta(|| {
        std::thread::scope(|s| {
            for _ in 0..threads {
                let c = compiler.clone();
                s.spawn(move || {
                    c.compile(SRC, Defines::new().def("GAIN", 3)).unwrap();
                });
            }
        });
    });
    // One key, N concurrent callers: exactly one miss, the rest hits.
    assert_eq!(d.misses, 1, "single-flight must compile once");
    assert_eq!(d.hits, threads - 1);
    assert_eq!(d.hits + d.misses, d.requests, "every request accounted");
    // Followers are also counted as dedup waits (racy Claim::Hit path
    // aside, at least one thread must have blocked on the leader... but
    // a fast leader can finish before any follower arrives, so only the
    // upper bound is deterministic).
    assert!(d.dedup_waits < threads);
}

#[test]
fn distinct_keys_all_miss() {
    let _guard = TEST_LOCK.lock().unwrap();
    let compiler = Arc::new(Compiler::new(DeviceConfig::tesla_c1060()));
    let n = 6u64;
    let d = delta(|| {
        std::thread::scope(|s| {
            for g in 0..n {
                let c = compiler.clone();
                s.spawn(move || {
                    c.compile(SRC, Defines::new().def("GAIN", g)).unwrap();
                });
            }
        });
    });
    assert_eq!(d.misses, n);
    assert_eq!(d.hits, 0);
    assert_eq!(d.requests, n);
}

#[test]
fn mixed_workload_invariant_holds() {
    let _guard = TEST_LOCK.lock().unwrap();
    let compiler = Arc::new(Compiler::new(DeviceConfig::tesla_c2070()));
    let threads = 8u64;
    let per_thread = 6u64;
    let d = delta(|| {
        std::thread::scope(|s| {
            for t in 0..threads {
                let c = compiler.clone();
                s.spawn(move || {
                    for i in 0..per_thread {
                        // 3 distinct keys, revisited by every thread.
                        let gain = (t + i) % 3;
                        c.compile(SRC, Defines::new().def("GAIN", gain)).unwrap();
                    }
                });
            }
        });
    });
    assert_eq!(d.requests, threads * per_thread);
    assert_eq!(d.hits + d.misses, d.requests);
    assert_eq!(d.misses, 3, "one compile per distinct key");
}

/// The resilience counters are exact under injected faults: every
/// failure, quarantine fast-fail, retry and breaker trip is counted
/// once, and failed calls never leak into `hits + misses == requests`.
#[test]
fn failures_keep_exact_registry_parity() {
    use ks_fault::{FaultKind, FaultPlan, FaultRule, Target};
    let _guard = TEST_LOCK.lock().unwrap();
    let plan = Arc::new(FaultPlan::new(21).rule(
        FaultRule::new(FaultKind::CompileError, Target::Define("GAIN=99".into())).persistent(),
    ));
    let compiler = Compiler::new(DeviceConfig::tesla_c1060())
        .with_fault_plan(plan)
        .with_resilience(ks_core::ResilienceConfig {
            max_retries: 2,
            backoff_base: std::time::Duration::ZERO,
            quarantine_ttl: std::time::Duration::from_secs(60),
            breaker_threshold: 1,
            ..ks_core::ResilienceConfig::default()
        });
    let reg = ks_trace::registry();
    let resilience_counters = || {
        [
            reg.counter_value(ks_trace::names::CACHE_FAILURES),
            reg.counter_value(ks_trace::names::CACHE_QUARANTINED),
            reg.counter_value(ks_trace::names::COMPILE_RETRIES),
            reg.counter_value(ks_trace::names::BREAKER_OPEN),
        ]
    };
    let before = resilience_counters();
    let d = delta(|| {
        assert!(compiler
            .compile(SRC, Defines::new().def("GAIN", 99))
            .is_err());
        assert!(compiler
            .compile(SRC, Defines::new().def("GAIN", 99))
            .is_err());
        compiler
            .compile(SRC, Defines::new().def("GAIN", 1))
            .unwrap();
    });
    let after = resilience_counters();
    let stats = compiler.cache_stats();
    // What the exports show is what happened: one real failure + one
    // fast-fail, one quarantine hit, one retry wave of two, one trip.
    assert_eq!(
        [0, 1, 2, 3].map(|i| after[i] - before[i]),
        [2, 1, 2, 1],
        "{stats}"
    );
    assert_eq!(
        stats.failures, 2,
        "one real failure + one fast-fail: {stats}"
    );
    assert_eq!(stats.quarantined, 1, "second call fast-fails: {stats}");
    assert_eq!(stats.retries, 2, "one retry wave of two: {stats}");
    assert_eq!(stats.breaker_opens, 1, "threshold 1 trips once: {stats}");
    // The failed calls never enter the request invariant.
    assert_eq!(d.requests, 1, "only the successful compile is a request");
    assert_eq!(d.hits + d.misses, d.requests);
}

#[test]
fn evictions_reach_the_registry() {
    let _guard = TEST_LOCK.lock().unwrap();
    let compiler = Compiler::new(DeviceConfig::tesla_c1060()).with_cache_capacity(2);
    let before = ks_trace::registry().counter_value(ks_trace::names::CACHE_EVICTIONS);
    for g in 0..5 {
        compiler
            .compile(SRC, Defines::new().def("GAIN", g))
            .unwrap();
    }
    let evicted = ks_trace::registry().counter_value(ks_trace::names::CACHE_EVICTIONS) - before;
    assert_eq!(evicted, 3, "capacity 2, 5 inserts");
}

/// Two compilers publishing under one label: each keeps its own
/// `CacheStats` (its cells), the labeled registry counter is their exact
/// sum, and the cells add nothing to the registry's name space.
#[test]
fn two_compilers_on_one_label_keep_separate_cells_and_one_aggregate() {
    let _guard = TEST_LOCK.lock().unwrap();
    let labels = [("service", "cells-test")];
    let a = Compiler::new(DeviceConfig::tesla_c1060()).with_metric_labels(&labels);
    let names_before = ks_trace::registry().snapshot().counters.len();
    let b = Compiler::new(DeviceConfig::tesla_c1060()).with_metric_labels(&labels);
    assert_eq!(
        ks_trace::registry().snapshot().counters.len(),
        names_before,
        "a second compiler on the label registers nothing"
    );
    for g in 0..3 {
        a.compile(SRC, Defines::new().def("GAIN", g)).unwrap();
    }
    a.compile(SRC, Defines::new().def("GAIN", 0)).unwrap();
    b.compile(SRC, Defines::new().def("GAIN", 0)).unwrap();
    let (sa, sb) = (a.cache_stats(), b.cache_stats());
    assert_eq!((sa.hits, sa.misses), (1, 3));
    assert_eq!((sb.hits, sb.misses), (0, 1));
    let reg = ks_trace::registry();
    let labeled = |base: &str| reg.counter_value(&format!("{base}{{service=cells-test}}"));
    assert_eq!(labeled(ks_trace::names::CACHE_MISSES), 4);
    assert_eq!(labeled(ks_trace::names::CACHE_HITS), 1);
    assert_eq!(labeled(ks_trace::names::COMPILE_REQUESTS), 5);
}
