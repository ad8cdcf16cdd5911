//! The block check against the path check on real traffic: every applied
//! optimizer pass step of the three app kernels — the generic (RE) build
//! and the 64 specializations of the ledger's `churn` grid (the variants
//! of `crates/core/tests/golden/compile_golden.txt`), compiled as for a
//! Tesla C1060 — goes through `check_opt_step` and through
//! `check_function_pair` under `default_envs()` on the same pair.
//!
//! The opt-step checker may only report what the path check reports:
//! its KSV0xx findings are the path check's, its KSV101 findings a
//! subset, and a step it accepts without falling back is one the path
//! check finds Equal or inconclusive, never a miscompile. On this
//! traffic it never falls back.

#[path = "../../../tests/support/churn_grid.rs"]
mod churn_grid;

use ks_ir::Module;
use ks_verify::{check_function_pair, check_opt_step, default_envs, Finding, Limits};

type Defines = Vec<(String, String)>;

/// The RE builds, then the churn grid's `-D` sets in the ledger's order.
fn traffic() -> Vec<(&'static str, &'static str, Defines)> {
    let generic = churn_grid::APPS.map(|(app, source)| (app, source, vec![]));
    let grid = churn_grid::grid().into_iter();
    let out: Vec<_> = generic
        .into_iter()
        .chain(grid.map(|b| (b.app, b.source, b.define_strings())))
        .collect();
    assert_eq!(out.len(), 3 + 64);
    out
}

fn lowered(source: &str, defines: &[(String, String)]) -> Module {
    // The compiler predefines the device's architecture first.
    let mut all = vec![("__CUDA_ARCH__".to_string(), "130".to_string())];
    all.extend(defines.iter().cloned());
    let prog = ks_lang::frontend(source, &all).expect("frontend");
    ks_codegen::compile(&prog, &Default::default()).expect("codegen")
}

fn of_code(findings: &[Finding], warning: bool) -> Vec<&Finding> {
    findings
        .iter()
        .filter(|f| f.is_error() != warning)
        .collect()
}

#[test]
fn the_block_check_reports_only_what_the_path_check_reports() {
    let envs = default_envs();
    let limits = Limits::default();
    let (mut steps, mut fallbacks, mut path_warnings) = (0, 0, 0);
    for (app, source, defines) in traffic() {
        let m = lowered(source, &defines);
        let ctx = Module {
            functions: vec![],
            consts: m.consts.clone(),
            textures: m.textures.clone(),
        };
        for f in &m.functions {
            let mut f = f.clone();
            let mut before = f.clone();
            ks_opt::optimize_with_observer(&mut f, &Default::default(), &mut |pass, after| {
                let context = format!("opt.{pass}");
                let at = format!("{app} {defines:?} {}: step {steps} {context}", after.name);
                let new = check_opt_step(&before, after, &ctx, limits, &context);
                let path = check_function_pair(&before, &ctx, after, &ctx, &envs, limits, &context);
                assert_eq!(
                    of_code(&new.findings, false),
                    of_code(&path.findings, false),
                    "{at}: KSV0xx findings"
                );
                for w in of_code(&new.findings, true) {
                    assert!(path.findings.contains(w), "{at}: {w} not in the path check");
                }
                if new.block_fallbacks == 0 {
                    assert!(new.findings.is_empty(), "{at}: {:?}", new.findings);
                    assert!(path.is_clean(), "{at}: accepted, path check: {path:?}");
                }
                steps += 1;
                fallbacks += new.block_fallbacks;
                path_warnings += path.warning_count();
                before.clone_from(after);
            });
        }
    }
    assert!(steps > 1000, "want real traffic, got {steps} steps");
    assert!(
        path_warnings > 0,
        "the path check comes back inconclusive on some of these steps"
    );
    assert_eq!(fallbacks, 0, "opt steps that fell back to the path check");
}
