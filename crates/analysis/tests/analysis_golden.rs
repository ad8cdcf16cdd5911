//! The analysis suite must report exactly what it reported when
//! `golden/analysis_golden.txt` was written, with
//! `cargo test -p ks-analysis --test analysis_golden -- --ignored bless`.
//! A change to the abstract executor that claims to keep its behaviour
//! never re-blesses the file: one line per input, holding an FNV-1a-64
//! of the report's diagnostics (rendered), memory predictions, barrier
//! intervals, proven in-bounds accesses and inconclusive notes.
//!
//! The inputs are the three `ks-lint` configurations `ci.sh` runs (the
//! shipped app kernels under their launch geometry and argument
//! assumptions, KSA004/KSA005 denied), plus every specialized build of
//! the `churn` grid (`benchmark/src/grid.rs`, as in ks-core's
//! `compile_golden`) on both devices, analyzed under its application's
//! thread-block shape twice: with no argument assumptions (mostly an
//! inconclusive note: the arguments decide its branches) and with the
//! arguments of the grid's problem assumed (mostly a full run).

#[path = "../../../tests/support/churn_grid.rs"]
mod churn_grid;

use churn_grid::{Arg, BACKPROJ, PIV, TEMPLATE_MATCH};
use ks_analysis::{analyze_module, AnalysisConfig, LintCode, ParamValue, Severity};
use ks_sim::device::DeviceConfig;
use std::fmt::Write;

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/analysis_golden.txt"
);

/// One analysis input: which source, under which defines, analyzed with
/// which configuration.
struct Input {
    label: String,
    source: &'static str,
    defines: Vec<(String, String)>,
    cfg: AnalysisConfig,
}

/// `ks-lint`'s compile path: the device's architecture macro, then the
/// defines, codegen, the default optimizer and the IR verifier.
fn compile(dev: &DeviceConfig, input: &Input) -> ks_ir::Module {
    let mut defines = vec![(
        "__CUDA_ARCH__".to_string(),
        format!("{}{}0", dev.cc_major, dev.cc_minor),
    )];
    defines.extend(input.defines.iter().cloned());
    let program = ks_lang::frontend(input.source, &defines).expect("frontend");
    let mut m =
        ks_codegen::compile(&program, &ks_codegen::CodegenOptions::default()).expect("codegen");
    ks_opt::optimize_module_with(&mut m, &ks_opt::OptConfig::default());
    assert!(ks_ir::verify_module(&m).is_empty(), "{}", input.label);
    m
}

/// `ci.sh`'s three `ks-lint` runs, on its default device.
fn ci_inputs() -> Vec<Input> {
    let int = |n: &str, v: i64| (n.to_string(), ParamValue::Int(v));
    let float = |n: &str, v: f32| (n.to_string(), ParamValue::F32(v));
    let strings = |d: &[(&str, u32)]| -> Vec<(String, String)> {
        d.iter()
            .map(|(n, v)| (n.to_string(), v.to_string()))
            .collect()
    };
    let deny = vec![
        (LintCode::BankConflict, Severity::Deny),
        (LintCode::Uncoalesced, Severity::Deny),
    ];
    vec![
        Input {
            label: "ci piv".into(),
            source: PIV,
            defines: strings(&[
                ("RB", 4),
                ("THREADS", 64),
                ("MASK_W", 16),
                ("MASK_H", 16),
                ("OFFS_W", 9),
            ]),
            cfg: AnalysisConfig {
                block_dim: Some((64, 1, 1)),
                grid_dim: (16, 21, 1),
                param_assumptions: vec![
                    int("imgW", 96),
                    int("numOffsets", 81),
                    int("masksX", 4),
                    int("stepX", 16),
                    int("stepY", 16),
                    int("marginX", 4),
                    int("marginY", 4),
                    int("rb", 4),
                ],
                levels: deny.clone(),
                ..Default::default()
            },
        },
        Input {
            label: "ci template_match".into(),
            source: TEMPLATE_MATCH,
            defines: strings(&[
                ("TILE_W", 16),
                ("TILE_H", 16),
                ("SHIFT_W", 16),
                ("NUM_TILES", 16),
                ("TEMPL_W", 64),
                ("TEMPL_H", 56),
                ("THREADS", 128),
            ]),
            cfg: AnalysisConfig {
                block_dim: Some((128, 1, 1)),
                param_assumptions: vec![
                    int("frameW", 320),
                    int("numOffsets", 256),
                    int("templW", 64),
                    int("templH", 56),
                    int("tilesX", 4),
                    int("tileX0", 0),
                    int("tileY0", 0),
                    int("tileBase", 0),
                    float("invN", 0.000_279_017_86),
                    float("denomA", 1.0),
                ],
                levels: deny.clone(),
                ..Default::default()
            },
        },
        Input {
            label: "ci backproj".into(),
            source: BACKPROJ,
            defines: strings(&[("PPL", 8), ("ZB", 4), ("VOL_N", 32)]),
            cfg: AnalysisConfig {
                block_dim: Some((16, 4, 1)),
                param_assumptions: vec![
                    int("detU", 48),
                    int("detV", 48),
                    int("ppl", 8),
                    int("zb", 4),
                    int("z0", 0),
                    float("sid", 100.0),
                    float("sdd", 150.0),
                    float("halfN", 16.0),
                    float("halfU", 24.0),
                    float("halfV", 24.0),
                ],
                levels: deny,
                ..Default::default()
            },
        },
    ]
}

fn fnv64(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `diagnostics=N conclusive=M hash=H` of one analysis of `m`.
fn summary(m: &ks_ir::Module, dev: &DeviceConfig, cfg: &AnalysisConfig) -> String {
    let r = analyze_module(m, dev, cfg);
    let mut text = String::new();
    for d in &r.diagnostics {
        writeln!(text, "{d}").unwrap();
    }
    writeln!(
        text,
        "{:?}\n{:?}\n{}\n{:?}",
        r.mem, r.intervals, r.proven_bounds, r.inconclusive
    )
    .unwrap();
    format!(
        "diagnostics={} conclusive={} hash={:016x}",
        r.diagnostics.len(),
        r.mem.len(),
        fnv64(&text)
    )
}

fn device(dev: &DeviceConfig) -> String {
    dev.name.replace(' ', "_")
}

fn render() -> String {
    let mut out = String::new();
    let c2070 = DeviceConfig::tesla_c2070();
    for input in ci_inputs() {
        let m = compile(&c2070, &input);
        let s = summary(&m, &c2070, &input.cfg);
        writeln!(out, "{} {} {s}", device(&c2070), input.label).unwrap();
    }
    for dev in [DeviceConfig::tesla_c1060(), DeviceConfig::tesla_c2070()] {
        for churn_grid::Build {
            app,
            source,
            defines,
            block,
            args,
        } in churn_grid::grid()
        {
            let args = args
                .iter()
                .map(|&(n, v)| {
                    let v = match v {
                        Arg::Int(i) => ParamValue::Int(i64::from(i)),
                        Arg::F32(f) => ParamValue::F32(f),
                    };
                    (n.to_string(), v)
                })
                .collect();
            let input = Input {
                label: format!(
                    "{app} {}",
                    defines
                        .iter()
                        .map(|(n, v)| format!("-D{n}={v}"))
                        .collect::<String>()
                ),
                source,
                defines: defines
                    .iter()
                    .map(|(n, v)| (n.to_string(), v.to_string()))
                    .collect(),
                cfg: AnalysisConfig {
                    block_dim: Some(block),
                    ..Default::default()
                },
            };
            let m = compile(&dev, &input);
            let bare = summary(&m, &dev, &input.cfg);
            let assumed = AnalysisConfig {
                param_assumptions: args,
                ..input.cfg.clone()
            };
            let assumed = summary(&m, &dev, &assumed);
            writeln!(
                out,
                "{} {} bare {bare} assumed {assumed}",
                device(&dev),
                input.label
            )
            .unwrap();
        }
    }
    out
}

#[test]
fn analyses_reproduce_the_golden() {
    let golden = std::fs::read_to_string(GOLDEN_PATH).expect("golden file is checked in");
    let now = render();
    let (mut want, mut got) = (golden.lines(), now.lines());
    loop {
        match (want.next(), got.next()) {
            (None, None) => break,
            (w, g) => assert_eq!(g, w, "analysis output moved against the golden"),
        }
    }
}

#[test]
#[ignore = "rewrites tests/golden/analysis_golden.txt; a change that keeps the analyses never may"]
fn bless() {
    std::fs::create_dir_all(std::path::Path::new(GOLDEN_PATH).parent().unwrap()).unwrap();
    std::fs::write(GOLDEN_PATH, render()).unwrap();
}
