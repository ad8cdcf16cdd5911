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
    let compiler = Compiler::with_passes(
        DeviceConfig::tesla_c1060(),
        options.clone(),
        ks_opt::OptConfig::default(),
    )
    .with_validation(ValidationConfig::default());
    let reg = ks_trace::registry();
    let before = reg.counter_value(ks_trace::names::VERIFY_CHECKS);
    let fallbacks_before = reg.counter_value(ks_trace::names::VERIFY_BLOCK_FALLBACKS);
    let defines = Defines::new().def("GAIN", 3).def("N", 1024);
    let bin = compiler.compile(SRC, &defines).unwrap();
    assert!(bin.verification.is_empty(), "{:?}", bin.verification);
    let checks = reg.counter_value(ks_trace::names::VERIFY_CHECKS) - before;
    let fallbacks = reg.counter_value(ks_trace::names::VERIFY_BLOCK_FALLBACKS) - fallbacks_before;
    // The pass steps the compile applied, counted on the same input.
    let mut all = vec![("__CUDA_ARCH__".to_string(), "130".to_string())];
    all.extend(defines.items().iter().cloned());
    let prog = ks_lang::frontend(SRC, &all).unwrap();
    let mut lowered = ks_codegen::compile(&prog, &options).unwrap();
    let mut steps = 0;
    for f in &mut lowered.functions {
        ks_opt::optimize_with_observer(f, &Default::default(), &mut |_, _| steps += 1);
    }
    assert!(steps > 0, "some pass must have been checked");
    // One check per step, plus the path check's environments for each
    // step whose block check fell back.
    let envs = ks_verify::default_envs().len() as u64;
    assert_eq!(checks, steps + envs * fallbacks, "{fallbacks} fallbacks");
}

/// A program the lowering rejects fails with one message whether the
/// compile is checked or not: the checked compile fails on the baseline
/// lowering, the plain one on its only lowering.
#[test]
fn an_unlowerable_program_fails_alike_with_and_without_validation() {
    let _guard = TEST_LOCK.lock().unwrap();
    let src = r#"
        __constant__ float lo[0x20000000];
        __constant__ float hi[0x20000000];
        __global__ void k(float* o) { o[0] = lo[0] + hi[0]; }
    "#;
    let plain = Compiler::new(DeviceConfig::tesla_c1060());
    let checked =
        Compiler::new(DeviceConfig::tesla_c1060()).with_validation(ValidationConfig::default());
    let message = |c: &Compiler| c.compile(src, Defines::new()).unwrap_err().message;
    let plain = message(&plain);
    assert!(
        plain.contains("arrays exceed the 4 GiB address space"),
        "{plain}"
    );
    assert_eq!(message(&checked), plain);
}
