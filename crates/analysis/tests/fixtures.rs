//! End-to-end lint tests: fixture kernels go through the real compile
//! pipeline (preprocess → parse → sema → codegen → opt → verify) and the
//! analysis suite must flag exactly the seeded defect.

use ks_analysis::{analyze_module, AnalysisConfig, LintCode, ParamValue};
use ks_ir::Module;
use ks_sim::device::DeviceConfig;

fn compile(source: &str, defines: &[(&str, &str)]) -> Module {
    let defines: Vec<(String, String)> = std::iter::once(("__CUDA_ARCH__", "200"))
        .chain(defines.iter().copied())
        .map(|(n, v)| (n.to_string(), v.to_string()))
        .collect();
    let program = ks_lang::frontend(source, &defines).expect("frontend");
    let mut module =
        ks_codegen::compile(&program, &ks_codegen::CodegenOptions::default()).expect("codegen");
    ks_opt::optimize_module_with(&mut module, &ks_opt::OptConfig::default());
    let errs = ks_ir::verify_module(&module);
    assert!(errs.is_empty(), "verify: {errs:?}");
    module
}

fn geometry(block_x: u32) -> AnalysisConfig {
    AnalysisConfig {
        block_dim: Some((block_x, 1, 1)),
        ..Default::default()
    }
}

fn codes(m: &Module, cfg: &AnalysisConfig) -> Vec<LintCode> {
    let dev = DeviceConfig::tesla_c2070();
    let r = analyze_module(m, &dev, cfg);
    r.diagnostics.iter().map(|d| d.code).collect()
}

#[test]
fn seeded_shared_race_is_denied() {
    let m = compile(include_str!("fixtures/shared_race.cu"), &[]);
    let cfg = geometry(64);
    let r = analyze_module(&m, &DeviceConfig::tesla_c2070(), &cfg);
    assert!(
        r.diagnostics.iter().any(|d| d.code == LintCode::SharedRace),
        "expected KSA001, got:\n{}",
        r.render()
    );
    assert!(r.has_denials());
}

#[test]
fn seeded_divergent_barrier_is_denied() {
    let m = compile(include_str!("fixtures/divergent_barrier.cu"), &[]);
    let r = analyze_module(&m, &DeviceConfig::tesla_c2070(), &geometry(64));
    assert!(
        r.diagnostics
            .iter()
            .any(|d| d.code == LintCode::BarrierDivergence),
        "expected KSA002, got:\n{}",
        r.render()
    );
    assert!(r.has_denials());
    // The purely static path (no geometry) finds it too.
    let r = analyze_module(&m, &DeviceConfig::tesla_c2070(), &AnalysisConfig::default());
    assert!(r
        .diagnostics
        .iter()
        .any(|d| d.code == LintCode::BarrierDivergence));
}

#[test]
fn seeded_out_of_bounds_shared_store_is_denied() {
    let m = compile(include_str!("fixtures/oob_shared.cu"), &[]);
    let r = analyze_module(&m, &DeviceConfig::tesla_c2070(), &geometry(32));
    assert!(
        r.diagnostics
            .iter()
            .any(|d| d.code == LintCode::OutOfBounds),
        "expected KSA003, got:\n{}",
        r.render()
    );
    assert!(r.has_denials());
}

#[test]
fn bank_conflicts_and_uncoalesced_access_warn() {
    let m = compile(include_str!("fixtures/bank_stride.cu"), &[]);
    let got = codes(&m, &geometry(32));
    assert!(
        got.contains(&LintCode::BankConflict),
        "expected KSA004 in {got:?}"
    );
    assert!(
        got.contains(&LintCode::Uncoalesced),
        "expected KSA005 in {got:?}"
    );
    // Performance lints alone must not fail the build by default.
    let r = analyze_module(&m, &DeviceConfig::tesla_c2070(), &geometry(32));
    assert!(!r.has_denials(), "{}", r.render());
}

#[test]
fn clean_kernel_is_clean_and_re_needs_an_assumption() {
    let dev = DeviceConfig::tesla_c2070();
    // SK: the trip count is compiled in; the executor proves the kernel.
    let sk = compile(include_str!("fixtures/clean.cu"), &[("N", "128")]);
    let r = analyze_module(&sk, &dev, &geometry(64));
    assert!(r.diagnostics.is_empty(), "{}", r.render());
    assert!(r.inconclusive.is_empty(), "{:?}", r.inconclusive);
    assert!(r.proven_bounds > 0);

    // RE: the bound is a run-time parameter — the first data-dependent
    // branch stops the executor (no false positives, but no proof).
    let re = compile(include_str!("fixtures/clean.cu"), &[]);
    let r = analyze_module(&re, &dev, &geometry(64));
    assert!(r.diagnostics.is_empty(), "{}", r.render());
    assert_eq!(r.inconclusive.len(), 1, "{:?}", r.inconclusive);

    // An explicit assumption restores SK-grade analyzability.
    let mut cfg = geometry(64);
    cfg.param_assumptions
        .push(("n".into(), ParamValue::Int(128)));
    let r = analyze_module(&re, &dev, &cfg);
    assert!(r.diagnostics.is_empty(), "{}", r.render());
    assert!(r.inconclusive.is_empty(), "{:?}", r.inconclusive);
}
