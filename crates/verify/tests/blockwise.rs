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

use ks_ir::Module;
use ks_verify::{check_function_pair, check_opt_step, default_envs, Finding, Limits};

const TEMPLATE_MATCH: &str = include_str!("../../apps/src/kernels/template_match.cu");
const PIV: &str = include_str!("../../apps/src/kernels/piv.cu");
const BACKPROJ: &str = include_str!("../../apps/src/kernels/backproj.cu");

type Defines = Vec<(String, String)>;

fn defs(pairs: &[(&str, u32)]) -> Defines {
    pairs
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

/// The RE builds, then the churn grid's `-D` sets in the ledger's order.
fn traffic() -> Vec<(&'static str, &'static str, Defines)> {
    let mut out = vec![
        ("tm", TEMPLATE_MATCH, vec![]),
        ("piv", PIV, vec![]),
        ("bp", BACKPROJ, vec![]),
    ];
    let mut tm = |templ: (u32, u32), tile: (u32, u32), threads: u32| {
        let tiles = (templ.0 / tile.0) * (templ.1 / tile.1);
        out.push((
            "tm",
            TEMPLATE_MATCH,
            defs(&[
                ("TILE_W", tile.0),
                ("TILE_H", tile.1),
                ("SHIFT_W", 8),
                ("NUM_TILES", tiles),
                ("TEMPL_W", templ.0),
                ("TEMPL_H", templ.1),
                ("THREADS", threads),
            ]),
        ));
    };
    for tile in [
        (4, 3),
        (4, 4),
        (8, 4),
        (8, 6),
        (16, 4),
        (16, 6),
        (8, 12),
        (16, 12),
    ] {
        for threads in [32, 64] {
            tm((16, 12), tile, threads);
        }
    }
    for tile in [(4, 4), (8, 4), (6, 8), (8, 8), (12, 8), (24, 4)] {
        tm((24, 16), tile, 64);
    }
    for (mask, rbs) in [(16, &[1, 2, 4, 8][..]), (32, &[1, 2, 4][..])] {
        for &rb in rbs {
            for threads in [32, 64, 128] {
                out.push((
                    "piv",
                    PIV,
                    defs(&[
                        ("RB", rb),
                        ("THREADS", threads),
                        ("MASK_W", mask),
                        ("MASK_H", mask),
                        ("OFFS_W", 5),
                    ]),
                ));
            }
        }
    }
    for (n, ppl) in [(12, 1), (12, 2), (12, 4), (12, 8), (8, 2), (8, 4), (8, 8)] {
        for zb in [1, 2, 4] {
            out.push((
                "bp",
                BACKPROJ,
                defs(&[("PPL", ppl), ("ZB", zb), ("VOL_N", n)]),
            ));
        }
    }
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
