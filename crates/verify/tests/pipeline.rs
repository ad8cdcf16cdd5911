//! End-to-end translation validation over the real pipeline: every
//! ks-codegen HIR stage and every ks-opt IR pass must preserve the summary
//! of every kernel, and each specialized (SK) build must match the generic
//! (RE) build under its define bindings.

use ks_codegen::CodegenOptions;
use ks_ir::Module;
use ks_verify::{check_specialization, Limits, VerifyReport};

const TEMPLATE_MATCH: &str = include_str!("../../apps/src/kernels/template_match.cu");
const PIV: &str = include_str!("../../apps/src/kernels/piv.cu");
const BACKPROJ: &str = include_str!("../../apps/src/kernels/backproj.cu");

fn defs(pairs: &[(&str, &str)]) -> Vec<(String, String)> {
    pairs
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

fn lower(source: &str, defines: &[(String, String)]) -> Module {
    let prog = ks_lang::frontend(source, defines).expect("frontend");
    ks_codegen::compile(&prog, &CodegenOptions::default()).expect("codegen")
}

/// Every HIR stage and every applied IR pass of one compile, checked.
fn validate_pipeline(source: &str, defines: &[(String, String)]) -> VerifyReport {
    let prog = ks_lang::frontend(source, defines).expect("frontend");
    let limits = Limits::default();
    let (mut module, mut report, _) =
        ks_verify::codegen_checked(&prog, &CodegenOptions::default(), limits).expect("codegen");
    let (passes, _) =
        ks_verify::optimize_checked(&mut module, &Default::default(), limits, &mut |_, _, _| {});
    report.merge(passes);
    report
}

fn assert_clean(name: &str, report: &VerifyReport) {
    let errors: Vec<_> = report.findings.iter().filter(|f| f.is_error()).collect();
    assert!(
        errors.is_empty(),
        "{name}: {} verification errors (of {} checks):\n{}",
        errors.len(),
        report.checks,
        errors
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(report.checks > 0, "{name}: no checks ran");
}

#[test]
fn pipeline_clean_small_kernel() {
    let src = r#"
__global__ void axpy(float* y, const float* x, float a, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {
        y[i] = a * x[i] + y[i];
    }
}
"#;
    let report = validate_pipeline(src, &[]);
    assert_clean("axpy", &report);
}

#[test]
fn pipeline_clean_template_match_sk() {
    let defines = defs(&[
        ("TILE_W", "16"),
        ("TILE_H", "16"),
        ("SHIFT_W", "16"),
        ("NUM_TILES", "16"),
        ("TEMPL_W", "64"),
        ("TEMPL_H", "56"),
        ("THREADS", "128"),
    ]);
    let report = validate_pipeline(TEMPLATE_MATCH, &defines);
    assert_clean("template_match sk", &report);
}

#[test]
fn pipeline_clean_piv_sk() {
    let defines = defs(&[
        ("RB", "4"),
        ("THREADS", "64"),
        ("MASK_W", "16"),
        ("MASK_H", "16"),
        ("OFFS_W", "9"),
    ]);
    let report = validate_pipeline(PIV, &defines);
    assert_clean("piv sk", &report);
}

#[test]
fn pipeline_clean_backproj_sk() {
    let defines = defs(&[("PPL", "8"), ("ZB", "4"), ("VOL_N", "32")]);
    let report = validate_pipeline(BACKPROJ, &defines);
    assert_clean("backproj sk", &report);
}

#[test]
fn pipeline_clean_apps_re() {
    for (name, src) in [
        ("template_match re", TEMPLATE_MATCH),
        ("piv re", PIV),
        ("backproj re", BACKPROJ),
    ] {
        let report = validate_pipeline(src, &[]);
        assert_clean(name, &report);
    }
}

#[test]
fn specialization_equivalence_small_kernel() {
    let src = r#"
#ifndef N
#define N n
#endif
#ifndef THREADS
#define THREADS (int)blockDim.x
#endif
__global__ void scale(float* y, float a, int n) {
    int i = blockIdx.x * THREADS + threadIdx.x;
    for (int j = 0; j < 4; j++) {
        if (i * 4 + j < N) {
            y[i * 4 + j] = a * y[i * 4 + j];
        }
    }
}
"#;
    let re = lower(src, &[]);
    let defines = defs(&[("N", "256"), ("THREADS", "64")]);
    let sk = lower(src, &defines);
    let report = check_specialization(&re, &sk, src, &defines, Limits::default());
    assert_clean("scale spec", &report);
}

#[test]
fn specialization_diff_is_caught() {
    // RE reads parameter `n`; "SK" is compiled from a genuinely different
    // source (off-by-one bound) — the checker must flag it.
    let re_src = r#"
#ifndef N
#define N n
#endif
__global__ void k(float* y, int n) {
    int i = (int)threadIdx.x;
    if (i < N) { y[i] = 1.0f; }
}
"#;
    let sk_src = r#"
__global__ void k(float* y, int n) {
    int i = (int)threadIdx.x;
    if (i < 257) { y[i] = 1.0f; }
}
"#;
    let re = lower(re_src, &[]);
    let sk = lower(sk_src, &[]);
    let defines = defs(&[("N", "256")]);
    let report = check_specialization(&re, &sk, re_src, &defines, Limits::default());
    assert!(
        report.findings.iter().any(|f| f.code == "KSV002"),
        "expected a KSV002 spec diff, got: {:?}",
        report.findings
    );
}

#[test]
fn specialization_equivalence_apps() {
    for (name, src, defines) in [
        (
            "template_match",
            TEMPLATE_MATCH,
            defs(&[
                ("TILE_W", "16"),
                ("TILE_H", "16"),
                ("SHIFT_W", "16"),
                ("NUM_TILES", "16"),
                ("TEMPL_W", "64"),
                ("TEMPL_H", "56"),
                ("THREADS", "128"),
            ]),
        ),
        (
            "piv",
            PIV,
            defs(&[
                ("RB", "4"),
                ("THREADS", "64"),
                ("MASK_W", "16"),
                ("MASK_H", "16"),
                ("OFFS_W", "9"),
            ]),
        ),
        (
            "backproj",
            BACKPROJ,
            defs(&[("PPL", "8"), ("ZB", "4"), ("VOL_N", "32")]),
        ),
    ] {
        let re = lower(src, &[]);
        let sk = lower(src, &defines);
        let report = check_specialization(&re, &sk, src, &defines, Limits::default());
        assert_clean(&format!("{name} spec"), &report);
    }
}
