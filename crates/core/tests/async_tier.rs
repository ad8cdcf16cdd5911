//! Background compile tier tests: ticket/blocking dedup through the
//! single-flight cache, deterministic cancellation, worker-site fault
//! injection, and exact `spawned == completed + failed + cancelled`
//! accounting with registry parity.
//!
//! These tests share the process-wide registry and worker pool, so the
//! parity tests serialize on a file-local lock and work on deltas.

use ks_core::{Compiler, Defines};
use ks_fault::{FaultKind, FaultPlan, FaultRule, Target};
use ks_sim::DeviceConfig;
use std::sync::{Arc, Mutex};

static TEST_LOCK: Mutex<()> = Mutex::new(());

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

fn async_registry_counters() -> (u64, u64, u64, u64) {
    let r = ks_trace::registry();
    (
        r.counter_value(ks_trace::names::ASYNC_SPAWNED),
        r.counter_value(ks_trace::names::ASYNC_COMPLETED),
        r.counter_value(ks_trace::names::ASYNC_FAILED),
        r.counter_value(ks_trace::names::ASYNC_CANCELLED),
    )
}

#[test]
fn n_tickets_for_one_key_cost_one_compile() {
    let _guard = TEST_LOCK.lock().unwrap();
    const TICKETS: usize = 8;
    let compiler = Arc::new(Compiler::new(DeviceConfig::tesla_c1060()));
    let tickets: Vec<_> = (0..TICKETS)
        .map(|_| compiler.spawn_compile(KERNEL, defines(32)))
        .collect();
    let bins: Vec<_> = tickets.iter().map(|t| t.wait().unwrap()).collect();
    for b in &bins[1..] {
        assert!(Arc::ptr_eq(&bins[0], b), "duplicate compilation escaped");
    }
    let s = compiler.cache_stats();
    assert_eq!(s.misses, 1, "single-flight must compile once: {s}");
    assert_eq!(s.hits + s.misses, TICKETS as u64, "{s}");
    let a = compiler.async_stats();
    assert_eq!(a.spawned, TICKETS as u64, "{a}");
    assert_eq!(a.completed, TICKETS as u64, "{a}");
    assert_eq!(a.failed + a.cancelled, 0, "{a}");
}

#[test]
fn ticket_and_blocking_compile_share_one_flight() {
    let _guard = TEST_LOCK.lock().unwrap();
    let compiler = Arc::new(Compiler::new(DeviceConfig::tesla_c1060()));
    let ticket = compiler.spawn_compile(KERNEL, defines(48));
    // Blocking call for the same canonical key: leads, follows, or hits
    // depending on scheduling — in every case one miss total.
    let blocking = compiler.compile(KERNEL, defines(48)).unwrap();
    let via_ticket = ticket.wait().unwrap();
    assert!(
        Arc::ptr_eq(&blocking, &via_ticket),
        "ticket and blocking path must share the binary"
    );
    let s = compiler.cache_stats();
    assert_eq!(s.misses, 1, "exactly one compile for the shared key: {s}");
    assert_eq!(s.hits, 1, "the other path must be a hit/dedup-join: {s}");
    assert_eq!(ticket.key(), {
        // The public contract: same inputs → same canonical key, so a
        // second spawn reports the same key.
        compiler.spawn_compile(KERNEL, defines(48)).key()
    });
}

#[test]
fn cancel_resolves_immediately_and_is_idempotent() {
    let _guard = TEST_LOCK.lock().unwrap();
    let compiler = Arc::new(Compiler::new(DeviceConfig::tesla_c1060()));
    let ticket = compiler.spawn_compile(KERNEL, defines(64));
    let first = ticket.cancel();
    // Whether or not a worker won the race, the ticket is resolved now.
    assert!(ticket.is_done());
    let second = ticket.cancel();
    assert!(!second, "second cancel must report too-late");
    if first {
        let err = ticket.wait().expect_err("cancelled ticket resolves Err");
        assert!(err.message.contains("cancelled"), "{err}");
        let a = compiler.async_stats();
        assert_eq!((a.cancelled, a.completed, a.failed), (1, 0, 0), "{a}");
    }
    // A later compile of the same key succeeds regardless.
    compiler.compile(KERNEL, defines(64)).unwrap();
}

#[test]
fn worker_fault_point_fails_ticket_without_touching_compile_site() {
    let _guard = TEST_LOCK.lock().unwrap();
    let plan = Arc::new(
        FaultPlan::new(11).rule(
            FaultRule::new(
                FaultKind::WorkerDrop,
                Target::Define("-D LOOP_COUNT=80".into()),
            )
            .persistent(),
        ),
    );
    let compiler =
        Arc::new(Compiler::new(DeviceConfig::tesla_c1060()).with_fault_plan(plan.clone()));
    let err = compiler
        .spawn_compile(KERNEL, defines(80))
        .wait()
        .expect_err("worker drop must fail the ticket");
    assert!(err.message.contains("worker-drop"), "{err}");
    let a = compiler.async_stats();
    assert_eq!((a.spawned, a.failed), (1, 1), "{a}");
    // The cache never saw the job: no miss, no failure recorded there.
    let s = compiler.cache_stats();
    assert_eq!(s.misses + s.failures, 0, "{s}");
    // The blocking path is immune to worker-site rules.
    compiler.compile(KERNEL, defines(80)).unwrap();
    assert!(
        plan.event_log().contains("site=worker"),
        "{}",
        plan.event_log()
    );
}

#[test]
fn failed_compiles_resolve_tickets_with_the_compile_error() {
    let _guard = TEST_LOCK.lock().unwrap();
    let plan = Arc::new(
        FaultPlan::new(5).rule(
            FaultRule::new(
                FaultKind::CompileError,
                Target::Define("-D LOOP_COUNT=96".into()),
            )
            .persistent(),
        ),
    );
    let compiler = Arc::new(Compiler::new(DeviceConfig::tesla_c1060()).with_fault_plan(plan));
    let err = compiler
        .spawn_compile(KERNEL, defines(96))
        .wait()
        .expect_err("injected compile fault must surface");
    assert!(err.message.contains("injected fault"), "{err}");
    let a = compiler.async_stats();
    assert_eq!((a.spawned, a.failed), (1, 1), "{a}");
    // This one *did* go through the cache: the failure is accounted.
    assert_eq!(compiler.cache_stats().failures, 1);
}

#[test]
fn async_accounting_matches_registry_deltas() {
    let _guard = TEST_LOCK.lock().unwrap();
    let before = async_registry_counters();
    let compiler = Arc::new(Compiler::new(DeviceConfig::tesla_c1060()));
    // A mix: 6 tickets over 3 keys (all complete), plus one cancelled.
    let tickets: Vec<_> = (0..6)
        .map(|i| compiler.spawn_compile(KERNEL, defines(100 + i % 3)))
        .collect();
    let doomed = compiler.spawn_compile(KERNEL, defines(999));
    let cancelled = doomed.cancel();
    for t in &tickets {
        t.wait().unwrap();
    }
    // Wait for the doomed ticket too (resolved either way).
    let _ = doomed.wait();
    let a = compiler.async_stats();
    assert_eq!(a.spawned, 7, "{a}");
    assert_eq!(
        a.spawned,
        a.completed + a.failed + a.cancelled,
        "async accounting must balance: {a}"
    );
    assert_eq!(a.cancelled, u64::from(cancelled), "{a}");
    let after = async_registry_counters();
    assert_eq!(after.0 - before.0, a.spawned, "registry spawned parity");
    assert_eq!(after.1 - before.1, a.completed, "registry completed parity");
    assert_eq!(after.2 - before.2, a.failed, "registry failed parity");
    assert_eq!(after.3 - before.3, a.cancelled, "registry cancelled parity");
    // Cache invariant still holds for the async traffic that reached it.
    let s = compiler.cache_stats();
    assert_eq!(s.hits + s.misses, a.completed, "{s} vs {a}");
}

#[test]
fn dropping_the_compiler_resolves_outstanding_tickets() {
    let _guard = TEST_LOCK.lock().unwrap();
    let compiler = Arc::new(Compiler::new(DeviceConfig::tesla_c1060()));
    // Queue a burst, then drop our handle immediately. Workers that
    // dequeue after the drop resolve the ticket with an error; workers
    // that raced ahead complete normally. Either way every ticket
    // resolves and accounting balances.
    let tickets: Vec<_> = (0..4)
        .map(|i| compiler.spawn_compile(KERNEL, defines(200 + i)))
        .collect();
    drop(compiler);
    let mut resolved = 0u64;
    for t in &tickets {
        match t.wait() {
            Ok(_) => resolved += 1,
            Err(e) => {
                assert!(e.message.contains("compiler dropped"), "{e}");
                resolved += 1;
            }
        }
    }
    assert_eq!(resolved, 4, "every ticket must resolve, never hang");
}

#[test]
fn tickets_and_a_foreground_batch_over_overlapping_keys() {
    let _guard = TEST_LOCK.lock().unwrap();
    let r = ks_trace::registry();
    let misses_before = r.counter_value(ks_trace::names::CACHE_MISSES);
    let before = async_registry_counters();
    let compiler = Arc::new(Compiler::new(DeviceConfig::tesla_c1060()));
    // Tickets for 12 keys, then — while they are queued or compiling on
    // the pool's spawn lane — a `par_iter` batch over 12 keys, half of
    // them the tickets' own: the two lanes share the pool's workers.
    let tickets: Vec<_> = (10..22)
        .map(|n| compiler.spawn_compile(KERNEL, defines(n)))
        .collect();
    let jobs: Vec<(&str, Defines)> = (16..28).map(|n| (KERNEL, defines(n))).collect();
    let batch = compiler.compile_batch(&jobs);
    assert!(batch.iter().all(Result::is_ok));
    for t in &tickets {
        t.wait().unwrap();
    }
    let s = compiler.cache_stats();
    assert_eq!(s.misses, 18, "every distinct key compiles once: {s}");
    assert_eq!(s.hits + s.misses, 24, "{s}");
    let a = compiler.async_stats();
    assert_eq!((a.spawned, a.completed), (12, 12), "{a}");
    assert_eq!(a.spawned, a.completed + a.failed + a.cancelled, "{a}");
    let after = async_registry_counters();
    assert_eq!(after.0 - before.0, a.spawned, "registry spawned parity");
    assert_eq!(after.1 - before.1, a.completed, "registry completed parity");
    assert_eq!(after.2 - before.2, a.failed, "registry failed parity");
    assert_eq!(after.3 - before.3, a.cancelled, "registry cancelled parity");
    assert_eq!(
        r.counter_value(ks_trace::names::CACHE_MISSES) - misses_before,
        s.misses,
        "registry miss parity"
    );
}
