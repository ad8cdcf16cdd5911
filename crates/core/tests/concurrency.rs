//! Multi-thread stress tests for the sharded, single-flight compile
//! service. These are the load-bearing properties behind §4.3's
//! amortization argument: a thundering herd on one key costs exactly one
//! compilation, distinct keys never serialize into a deadlock, stats stay
//! exact under arbitrary interleavings, and a bounded cache respects its
//! capacity. Run in release mode by `ci.sh` (fixed thread counts and
//! define sets — no nondeterministic inputs).

use ks_core::{CacheStats, Compiler, Defines};
use ks_sim::DeviceConfig;
use std::sync::{Arc, Barrier};

/// Appendix-B-style kernel; LOOP_COUNT is the specialization knob. A
/// largish unrolled loop makes each compile slow enough that concurrent
/// requests genuinely overlap.
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

#[test]
fn same_key_thundering_herd_costs_one_compile() {
    const THREADS: usize = 8;
    let compiler = Arc::new(Compiler::new(DeviceConfig::tesla_c1060()));
    let barrier = Arc::new(Barrier::new(THREADS));
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let (c, b) = (compiler.clone(), barrier.clone());
            std::thread::spawn(move || {
                b.wait();
                c.compile(KERNEL, defines(64)).unwrap()
            })
        })
        .collect();
    let bins: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    // Everyone received the *same* binary, not byte-identical copies.
    for b in &bins[1..] {
        assert!(Arc::ptr_eq(&bins[0], b), "duplicate compilation escaped");
    }
    let s = compiler.cache_stats();
    assert_eq!(s.misses, 1, "exactly one miss, got {s}");
    assert_eq!(
        s.hits,
        (THREADS - 1) as u64,
        "dedup must count as hits: {s}"
    );
    assert_eq!(s.hits + s.misses, THREADS as u64);
    assert_eq!(s.evictions, 0);
    // Followers that blocked on the leader are itemized (how many of the
    // 7 raced in before the leader finished is scheduling-dependent).
    assert!(s.dedup_waits <= (THREADS - 1) as u64);
}

#[test]
fn distinct_keys_compile_in_parallel_without_deadlock() {
    const THREADS: usize = 8;
    let compiler = Arc::new(Compiler::new(DeviceConfig::tesla_c1060()));
    let barrier = Arc::new(Barrier::new(THREADS));
    let handles: Vec<_> = (0..THREADS)
        .map(|i| {
            let (c, b) = (compiler.clone(), barrier.clone());
            std::thread::spawn(move || {
                b.wait();
                c.compile(KERNEL, defines(i + 1)).unwrap()
            })
        })
        .collect();
    let bins: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    for (i, b) in bins.iter().enumerate() {
        for other in &bins[i + 1..] {
            assert!(!Arc::ptr_eq(b, other), "distinct keys shared a binary");
        }
    }
    let s = compiler.cache_stats();
    assert_eq!(s.misses, THREADS as u64, "{s}");
    assert_eq!(s.hits, 0, "{s}");
    assert_eq!(s.dedup_waits, 0, "{s}");
}

#[test]
fn accounting_is_exact_under_mixed_interleavings() {
    const THREADS: usize = 8;
    const ITERS: usize = 16;
    const KEYS: usize = 4;
    let compiler = Arc::new(Compiler::new(DeviceConfig::tesla_c1060()));
    let barrier = Arc::new(Barrier::new(THREADS));
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let (c, b) = (compiler.clone(), barrier.clone());
            std::thread::spawn(move || {
                b.wait();
                for i in 0..ITERS {
                    // Every thread cycles through the keys, phase-shifted.
                    let k = (t + i) % KEYS;
                    c.compile(KERNEL, defines(k + 1)).unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let s = compiler.cache_stats();
    let calls = (THREADS * ITERS) as u64;
    // The invariant the seed's split-lock stats could not guarantee:
    // every successful call is exactly one hit or one miss.
    assert_eq!(s.hits + s.misses, calls, "{s}");
    // Single-flight + unbounded cache: one miss per distinct key, ever.
    assert_eq!(s.misses, KEYS as u64, "{s}");
    assert_eq!(compiler.cache_len(), KEYS);
}

#[test]
fn batch_api_dedupes_against_itself() {
    let compiler = Compiler::new(DeviceConfig::tesla_c1060());
    // 32 jobs over 4 distinct keys, shuffled together.
    let jobs: Vec<(&str, Defines)> = (0..32).map(|i| (KERNEL, defines(i % 4 + 1))).collect();
    let results = compiler.compile_batch(&jobs);
    assert_eq!(results.len(), 32);
    for (i, r) in results.iter().enumerate() {
        let r = r.as_ref().unwrap();
        // Order preserved: result i is the binary for key i % 4.
        assert!(Arc::ptr_eq(r, results[i % 4].as_ref().unwrap()));
    }
    let s = compiler.cache_stats();
    assert_eq!(s.misses, 4, "batch must dedup duplicate jobs: {s}");
    assert_eq!(s.hits + s.misses, 32, "{s}");
}

/// A configuration sweep's pattern: precompile the whole define grid,
/// then walk it again from parallel callers. The walk is all hits.
#[test]
fn parallel_walk_of_a_precompiled_grid_never_recompiles() {
    use rayon::prelude::*;
    let compiler = Compiler::new(DeviceConfig::tesla_c1060());
    let jobs: Vec<(&str, Defines)> = (1..=64).map(|n| (KERNEL, defines(n))).collect();
    compiler.precompile(&jobs).unwrap();
    jobs.par_iter().for_each(|(source, d)| {
        let bin = compiler.compile(source, d).unwrap();
        assert!(bin.metrics.summary().contains("preproc"));
    });
    let s = compiler.cache_stats();
    assert_eq!(s.misses, 64, "one compile per grid point: {s}");
    assert_eq!(s.hits + s.misses, 128, "{s}");
}

#[test]
fn bounded_cache_respects_capacity_under_concurrency() {
    const CAPACITY: usize = 4;
    const THREADS: usize = 8;
    const KEYS: usize = 16;
    let compiler =
        Arc::new(Compiler::new(DeviceConfig::tesla_c1060()).with_cache_capacity(CAPACITY));
    let barrier = Arc::new(Barrier::new(THREADS));
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let (c, b) = (compiler.clone(), barrier.clone());
            std::thread::spawn(move || {
                b.wait();
                for i in 0..KEYS {
                    let k = (t * 3 + i) % KEYS;
                    c.compile(KERNEL, defines(k + 1)).unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let s = compiler.cache_stats();
    assert!(
        compiler.cache_len() <= CAPACITY,
        "capacity exceeded: {} > {CAPACITY}",
        compiler.cache_len()
    );
    assert_eq!(s.hits + s.misses, (THREADS * KEYS) as u64, "{s}");
    // Eviction accounting balances: everything ever inserted is either
    // still resident or was counted out.
    assert_eq!(s.misses, s.evictions + compiler.cache_len() as u64, "{s}");
    assert!(s.evictions > 0, "churn over {KEYS} keys must evict: {s}");

    // An evicted key recompiles: one more miss, and the books still close.
    let before = compiler.cache_stats();
    let resident: u64 = compiler.cache_len() as u64;
    for k in 0..KEYS {
        compiler.compile(KERNEL, defines(k + 1)).unwrap();
    }
    let after = compiler.cache_stats();
    assert_eq!(
        after.hits + after.misses,
        before.hits + before.misses + KEYS as u64
    );
    assert!(
        after.misses >= before.misses + (KEYS as u64 - resident),
        "evicted keys must re-miss: {after}"
    );
}

#[test]
fn stats_snapshot_is_default_before_any_compile() {
    let compiler = Compiler::new(DeviceConfig::tesla_c1060());
    assert_eq!(compiler.cache_stats(), CacheStats::default());
    assert_eq!(compiler.cache_len(), 0);
}

/// A disk hit decodes its module IR on first access, through a
/// `OnceLock`: threads racing the first deref or `plan()` of one freshly
/// loaded binary all see one decoded module, at one address.
#[test]
fn racing_first_reads_of_a_loaded_module_share_one_decode() {
    const THREADS: usize = 8;
    let dir = std::env::temp_dir().join(format!("ks-core-lazy-race-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store_compiler = || {
        Compiler::new(DeviceConfig::tesla_c1060())
            .with_store(&dir)
            .unwrap()
    };
    let compiled = store_compiler().compile(KERNEL, defines(16)).unwrap();
    for round in 0..4 {
        let warm = store_compiler();
        let bin = warm.compile(KERNEL, defines(16)).unwrap();
        assert_eq!(warm.cache_stats().disk_hits, 1, "round {round}");
        let barrier = Arc::new(Barrier::new(THREADS));
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let (bin, b) = (bin.clone(), barrier.clone());
                std::thread::spawn(move || {
                    b.wait();
                    // Half the threads deref first, half go through plan().
                    if t % 2 == 1 {
                        assert!(bin.plan("stress").unwrap().is_some());
                    }
                    let module: &ks_ir::Module = &bin.module;
                    let plan = bin.plan("stress").unwrap().unwrap();
                    (
                        module as *const ks_ir::Module as usize,
                        plan as *const ks_sim::LaunchPlan as usize,
                    )
                })
            })
            .collect();
        let seen: Vec<(usize, usize)> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        let module = bin.module.get().unwrap() as *const ks_ir::Module as usize;
        assert!(
            seen.iter().all(|&s| s == (module, seen[0].1)),
            "round {round}: one decode, one plan: {seen:?}"
        );
        assert_eq!(*bin.module, *compiled.module);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
