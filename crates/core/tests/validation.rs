//! End-to-end translation validation through the `Compiler`: a compiler
//! carrying a `ValidationConfig` verifies every HIR transform and IR pass
//! during `compile`, attaches findings to the `Binary`, publishes
//! registry counters, and `validate_specialization` checks RE→SK
//! equivalence through the same cached pipeline.

use ks_core::{Compiler, Defines, ValidationConfig};
use ks_sim::DeviceConfig;
use std::sync::Mutex;

static TEST_LOCK: Mutex<()> = Mutex::new(());

const SRC: &str = r#"
    #ifndef GAIN
    #define GAIN gain
    #endif
    #ifndef N
    #define N n
    #endif
    __global__ void amp(float* x, int gain, int n) {
        int i = (int)(blockIdx.x * blockDim.x + threadIdx.x);
        if (i < N) { x[i] = x[i] * (float)GAIN; }
    }
"#;

#[test]
fn validated_compile_is_clean_and_counts_checks() {
    let _guard = TEST_LOCK.lock().unwrap();
    let compiler =
        Compiler::new(DeviceConfig::tesla_c1060()).with_validation(ValidationConfig::default());
    let reg = ks_trace::registry();
    let before = reg.counter_value(ks_trace::names::VERIFY_CHECKS);
    let diffs_before = reg.counter_value(ks_trace::names::VERIFY_DIFFS);
    let bin = compiler
        .compile(SRC, Defines::new().def("GAIN", 3).def("N", 1024))
        .unwrap();
    assert!(
        !bin.verification.iter().any(|f| f.is_error()),
        "clean kernel must produce no error findings: {:?}",
        bin.verification
    );
    let checks = reg.counter_value(ks_trace::names::VERIFY_CHECKS) - before;
    assert!(checks > 0, "validation must have run comparisons");
    assert_eq!(
        reg.counter_value(ks_trace::names::VERIFY_DIFFS) - diffs_before,
        0
    );
    // Verification time is split out of the opt phase, never negative.
    assert!(bin.metrics.opt + bin.metrics.verify <= bin.metrics.total);
}

#[test]
fn unvalidated_compile_attaches_nothing() {
    let _guard = TEST_LOCK.lock().unwrap();
    let compiler = Compiler::new(DeviceConfig::tesla_c1060());
    let bin = compiler.compile(SRC, Defines::new()).unwrap();
    assert!(bin.verification.is_empty());
    assert_eq!(bin.metrics.verify, std::time::Duration::ZERO);
}

#[test]
fn specialization_equivalence_via_compiler() {
    let _guard = TEST_LOCK.lock().unwrap();
    let compiler =
        Compiler::new(DeviceConfig::tesla_c1060()).with_validation(ValidationConfig::default());
    let report = compiler
        .validate_specialization(SRC, &Defines::new().def("GAIN", 3).def("N", 1024))
        .unwrap();
    assert!(report.checks > 0);
    assert!(
        report.is_clean(),
        "RE and SK must agree: {:?}",
        report.findings
    );
}

#[test]
fn validation_config_participates_in_cache_key() {
    let _guard = TEST_LOCK.lock().unwrap();
    // Same compiler, same key → hit; validation config is part of the
    // compiler, so its cache is internally consistent by construction.
    // What must hold: two compiles of the same source+defines on a
    // validated compiler produce one miss.
    let compiler =
        Compiler::new(DeviceConfig::tesla_c1060()).with_validation(ValidationConfig::default());
    compiler.compile(SRC, Defines::new().def("N", 64)).unwrap();
    compiler.compile(SRC, Defines::new().def("N", 64)).unwrap();
    let stats = compiler.cache_stats();
    assert_eq!(stats.misses, 1);
    assert_eq!(stats.hits, 1);
}

#[test]
fn passes_are_validated_when_no_codegen_stage_is_observed() {
    let _guard = TEST_LOCK.lock().unwrap();
    // A "-O0" frontend reports no HIR stage at all, so no chain exists
    // when the optimizer starts: each function's chain must begin at
    // its lowered form and still cover every IR pass.
    let options = ks_codegen::CodegenOptions {
        optimize: false,
        ..Default::default()
    };
    let compiler = Compiler::with_options(DeviceConfig::tesla_c1060(), options)
        .with_validation(ValidationConfig::default());
    let reg = ks_trace::registry();
    let before = reg.counter_value(ks_trace::names::VERIFY_CHECKS);
    let bin = compiler
        .compile(SRC, Defines::new().def("GAIN", 3).def("N", 1024))
        .unwrap();
    assert!(bin.verification.is_empty(), "{:?}", bin.verification);
    let checks = reg.counter_value(ks_trace::names::VERIFY_CHECKS) - before;
    let envs = ks_verify::default_envs().len() as u64;
    assert!(checks >= envs, "some pass must have been checked");
    assert_eq!(checks % envs, 0, "one check per env per pass: {checks}");
}
