//! Persistent artifact store integration: warm starts across compiler
//! instances (the process-restart analogue), same-key write races,
//! corrupt/torn record degradation, ticket resolution from disk, and
//! worker-panic containment.

use ks_core::{Compiler, Defines};
use ks_sim::DeviceConfig;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const KERNEL: &str = r#"
    #ifndef LOOP_COUNT
    #define LOOP_COUNT loopCount
    #endif
    __global__ void k(int* in, int* out, int loopCount) {
        int acc = 0;
        const unsigned int offset = blockIdx.x * blockDim.x + threadIdx.x;
        for (int i = 0; i < LOOP_COUNT; i++) {
            acc += *(in + offset + i);
        }
        *(out + offset) = acc;
    }
"#;

/// A fresh per-test store directory (removed up front so reruns start
/// cold; tests clean up on success).
fn tmpdir(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("ks-core-store-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    p
}

fn record_files(root: &Path) -> Vec<PathBuf> {
    let mut found = Vec::new();
    let Ok(entries) = std::fs::read_dir(root) else {
        return found;
    };
    for e in entries.flatten() {
        let path = e.path();
        if path.is_dir() {
            found.extend(record_files(&path));
        } else if path.extension().is_some_and(|x| x == "ksb") {
            found.push(path);
        }
    }
    found
}

fn compiler_with_store(dir: &Path) -> Compiler {
    Compiler::new(DeviceConfig::tesla_c1060())
        .with_store(dir)
        .expect("open store")
}

#[test]
fn warm_start_serves_every_variant_from_disk_with_zero_compiles() {
    let dir = tmpdir("warm");
    let variants: Vec<Defines> = (1..=4)
        .map(|i| Defines::new().def("LOOP_COUNT", i))
        .collect();

    // Cold pass: everything compiles and writes through.
    let cold = compiler_with_store(&dir);
    let mut listings = Vec::new();
    for d in &variants {
        listings.push(cold.compile(KERNEL, d).unwrap().ptx.to_string());
    }
    let s = cold.cache_stats();
    assert_eq!(s.misses, 4);
    assert_eq!(s.disk_misses, 4, "every leader probed an empty store: {s}");
    assert_eq!(s.disk_hits, 0);
    assert_eq!(s.store_errors, 0);
    assert_eq!(record_files(&dir).len(), 4);

    // Warm start: a fresh compiler (process-restart analogue) on the
    // same directory serves everything from disk — zero compiles,
    // byte-identical listings.
    let warm = compiler_with_store(&dir);
    for (d, expected) in variants.iter().zip(&listings) {
        let bin = warm.compile(KERNEL, d).unwrap();
        assert_eq!(&*bin.ptx, expected, "reloaded listing must be identical");
    }
    let s = warm.cache_stats();
    assert_eq!(s.misses, 0, "warm start must not compile: {s}");
    assert_eq!(s.hits, 4);
    assert_eq!(s.disk_hits, 4);
    assert_eq!(s.disk_misses, 0);
    assert_eq!(s.total_compile_micros, 0, "no compile time was paid: {s}");
    // Re-touching a variant is now a pure memory hit.
    warm.compile(KERNEL, &variants[0]).unwrap();
    let s = warm.cache_stats();
    assert_eq!((s.hits, s.disk_hits), (5, 4));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn same_key_race_across_compilers_writes_exactly_one_record() {
    let dir = tmpdir("race");
    let a = Arc::new(compiler_with_store(&dir));
    let b = Arc::new(compiler_with_store(&dir));
    let d = Defines::new().def("LOOP_COUNT", 7);
    let spawn = |c: &Arc<Compiler>| {
        let c = c.clone();
        let d = d.clone();
        std::thread::spawn(move || c.compile(KERNEL, &d).map(|bin| bin.ptx.to_string()))
    };
    let (ta, tb) = (spawn(&a), spawn(&b));
    let pa = ta.join().unwrap().unwrap();
    let pb = tb.join().unwrap().unwrap();
    assert_eq!(pa, pb);
    assert_eq!(
        record_files(&dir).len(),
        1,
        "one key must publish exactly one record"
    );
    // Neither side may have seen a torn or conflicting write.
    assert_eq!(a.cache_stats().store_errors, 0);
    assert_eq!(b.cache_stats().store_errors, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_record_degrades_to_byte_identical_recompile() {
    let dir = tmpdir("corrupt");
    let d = Defines::new().def("LOOP_COUNT", 3);
    let expected = compiler_with_store(&dir)
        .compile(KERNEL, &d)
        .unwrap()
        .ptx
        .to_string();
    let files = record_files(&dir);
    assert_eq!(files.len(), 1);

    // Flip one payload byte: the checksum must reject the record and the
    // compiler must quietly recompile — never panic, never fail.
    let mut bytes = std::fs::read(&files[0]).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x5A;
    std::fs::write(&files[0], &bytes).unwrap();

    let c = compiler_with_store(&dir);
    let bin = c.compile(KERNEL, &d).unwrap();
    assert_eq!(*bin.ptx, expected, "recompiled output must be identical");
    let s = c.cache_stats();
    assert_eq!(s.store_errors, 1, "{s}");
    assert_eq!(s.misses, 1);
    assert_eq!(s.disk_hits, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_records_degrade_to_recompile() {
    // A torn write can cut anywhere: mid-header (8 bytes keeps only the
    // magic + half the version) or mid-payload.
    for (tag, keep_fraction) in [("header", 0.0), ("payload", 0.5)] {
        let dir = tmpdir(&format!("torn-{tag}"));
        let d = Defines::new().def("LOOP_COUNT", 5);
        compiler_with_store(&dir).compile(KERNEL, &d).unwrap();
        let files = record_files(&dir);
        assert_eq!(files.len(), 1);
        let bytes = std::fs::read(&files[0]).unwrap();
        let keep = if keep_fraction == 0.0 {
            8
        } else {
            (bytes.len() as f64 * keep_fraction) as usize
        };
        std::fs::write(&files[0], &bytes[..keep]).unwrap();

        let c = compiler_with_store(&dir);
        let bin = c.compile(KERNEL, &d);
        assert!(bin.is_ok(), "torn {tag} record must not fail the compile");
        let s = c.cache_stats();
        assert_eq!(s.store_errors, 1, "torn {tag}: {s}");
        assert_eq!(s.misses, 1, "torn {tag}: {s}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn tickets_resolve_from_disk_without_a_worker_slot() {
    let dir = tmpdir("async-disk");
    let d = Defines::new().def("LOOP_COUNT", 9);
    compiler_with_store(&dir).compile(KERNEL, &d).unwrap();

    let warm = Arc::new(compiler_with_store(&dir));
    let ticket = warm.spawn_compile(KERNEL, &d);
    // Resolved synchronously at spawn time: the disk hit never touched
    // the worker queue.
    assert!(
        ticket.is_done(),
        "disk hit must resolve the ticket at spawn"
    );
    assert!(ticket.wait().is_ok());
    let s = warm.cache_stats();
    assert_eq!((s.hits, s.disk_hits, s.misses), (1, 1, 0), "{s}");
    let a = warm.async_stats();
    assert_eq!((a.spawned, a.completed), (1, 1));
    assert_eq!(a.spawned, a.completed + a.failed + a.cancelled);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn worker_panic_fails_the_ticket_and_spares_the_pool() {
    let plan = Arc::new(
        ks_fault::FaultPlan::new(7).rule(
            ks_fault::FaultRule::new(ks_fault::FaultKind::CompilePanic, ks_fault::Target::Any)
                .persistent(),
        ),
    );
    let c = Arc::new(Compiler::new(DeviceConfig::tesla_c1060()).with_fault_plan(plan));
    let ticket = c.spawn_compile(KERNEL, Defines::new().def("LOOP_COUNT", 2));
    let err = ticket.wait().expect_err("injected panic must fail the job");
    assert!(err.message.contains("panic"), "{err}");
    let a = c.async_stats();
    assert_eq!(a.failed, 1, "{a}");
    assert_eq!(a.spawned, a.completed + a.failed + a.cancelled);
    // The pool worker survived the unwind: a clean compiler's job on the
    // same process-wide pool still completes.
    let clean = Arc::new(Compiler::new(DeviceConfig::tesla_c1060()));
    let t2 = clean.spawn_compile(KERNEL, Defines::new().def("LOOP_COUNT", 2));
    assert!(t2.wait().is_ok(), "pool must keep working after a panic");
}

#[test]
fn attach_time_scrub_quarantines_rot_and_warm_start_recompiles_cleanly() {
    let dir = tmpdir("scrub-attach");
    let rotted = Defines::new().def("LOOP_COUNT", 2);
    let intact = Defines::new().def("LOOP_COUNT", 5);
    let first = compiler_with_store(&dir);
    let expected_ptx = first.compile(KERNEL, &rotted).unwrap().ptx.to_string();
    first.compile(KERNEL, &intact).unwrap();
    let rotted_path = first
        .store_path()
        .map(|root| {
            let hex = first.cache_key(KERNEL, &rotted).to_hex();
            root.join(&hex[..2]).join(format!("{hex}.ksb"))
        })
        .unwrap();
    drop(first);

    // Header-intact payload rot: flip one bit past the 40-byte header.
    let mut bytes = std::fs::read(&rotted_path).unwrap();
    bytes[60] ^= 0x04;
    std::fs::write(&rotted_path, &bytes).unwrap();

    // "Restart": a fresh compiler attaches with a scrub. The rotted
    // record is quarantined before the store goes live.
    let (c, report) = Compiler::new(DeviceConfig::tesla_c1060())
        .with_store_scrubbed(&dir)
        .expect("open + scrub store");
    assert_eq!(report.scanned, 2);
    assert_eq!(report.valid, 1);
    assert_eq!(report.quarantined.len(), 1);
    assert!(matches!(
        report.quarantined[0].1,
        ks_core::StoreError::ChecksumMismatch { .. }
    ));
    assert!(!rotted_path.exists(), "rot moved out of the fan-out");
    assert!(dir.join("quarantine").is_dir());

    // Warm start after the scrub: the intact variant loads from disk,
    // the quarantined one recompiles byte-identically — and crucially
    // with *zero* store errors, because the bad record was already out
    // of the way.
    let bin = c.compile(KERNEL, &rotted).unwrap();
    assert_eq!(*bin.ptx, expected_ptx);
    c.compile(KERNEL, &intact).unwrap();
    let s = c.cache_stats();
    assert_eq!(s.store_errors, 0, "{s}");
    assert_eq!(s.disk_hits, 1, "{s}");
    assert_eq!(s.misses, 1, "{s}");

    // An on-demand re-scrub of the now-clean store finds nothing.
    let again = c.scrub_store().unwrap().unwrap();
    assert_eq!(again.quarantined.len(), 0);
    assert_eq!(again.scanned, 2, "recompile republished the record");
    let _ = std::fs::remove_dir_all(&dir);
}
