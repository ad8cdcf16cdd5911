//! The compile path must produce the same bytes and the same findings
//! as the commit before CSE/DCE went linear and translation validation
//! started carrying summaries forward. `golden/compile_golden.txt` was
//! written by that commit (6f651e3) with
//! `cargo test -p ks-core --test compile_golden -- --ignored bless` and
//! is never re-blessed by a change that claims to be speed-only: one
//! line per variant with the FNV-1a-128 of the PTX (plain and checked
//! compiles must agree), every kernel's `OptStats`, the number of
//! translation-validation checks, and the ordered
//! `Binary::verification` list (count + FNV-1a-128 over code, context,
//! env, function and message of every finding).
//!
//! The variants are `ks-ledger`'s 64-point `churn` grid
//! (`benchmark/src/grid.rs`) on both devices, plus the generic (RE)
//! build of the three app sources.

use ks_core::{AnalysisConfig, Compiler, Defines, StableHasher, ValidationConfig};
use ks_sim::DeviceConfig;
use std::fmt::Write;

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/compile_golden.txt"
);

const TEMPLATE_MATCH: &str = include_str!("../../apps/src/kernels/template_match.cu");
const PIV: &str = include_str!("../../apps/src/kernels/piv.cu");
const BACKPROJ: &str = include_str!("../../apps/src/kernels/backproj.cu");

/// The churn grid's `-D` sets, in the ledger's canonical order.
fn grid() -> Vec<(&'static str, &'static str, Defines)> {
    let mut out = Vec::new();
    // template_match: (templ_w, templ_h) problems, shift_w 8.
    let mut tm = |templ: (u32, u32), tile: (u32, u32), threads: u32| {
        let tiles = (templ.0 / tile.0) * (templ.1 / tile.1);
        let d = Defines::new()
            .def("TILE_W", tile.0)
            .def("TILE_H", tile.1)
            .def("SHIFT_W", 8)
            .def("NUM_TILES", tiles)
            .def("TEMPL_W", templ.0)
            .def("TEMPL_H", templ.1)
            .def("THREADS", threads);
        out.push(("tm", TEMPLATE_MATCH, d));
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
    // piv: mask 16 / 32, search radius 2 (OFFS_W 5).
    for (mask, rbs) in [(16, &[1, 2, 4, 8][..]), (32, &[1, 2, 4][..])] {
        for &rb in rbs {
            for threads in [32, 64, 128] {
                let d = Defines::new()
                    .def("RB", rb)
                    .def("THREADS", threads)
                    .def("MASK_W", mask)
                    .def("MASK_H", mask)
                    .def("OFFS_W", 5);
                out.push(("piv", PIV, d));
            }
        }
    }
    // backproj: (VOL_N, PPL) problems.
    for (n, ppl) in [(12, 1), (12, 2), (12, 4), (12, 8), (8, 2), (8, 4), (8, 8)] {
        for zb in [1, 2, 4] {
            let d = Defines::new().def("PPL", ppl).def("ZB", zb).def("VOL_N", n);
            out.push(("bp", BACKPROJ, d));
        }
    }
    assert_eq!(out.len(), 64);
    out
}

fn fnv128(s: &str) -> String {
    StableHasher::new().str(s).finish().to_hex()
}

/// Every kernel's `OptStats` for `source` under `defines`, from the same
/// frontend → codegen → `ks_opt::optimize` sequence the compiler runs.
fn opt_stats(device: &DeviceConfig, source: &str, defines: &Defines) -> String {
    let mut all = vec![(
        "__CUDA_ARCH__".to_string(),
        format!("{}{}0", device.cc_major, device.cc_minor),
    )];
    all.extend(defines.items().iter().cloned());
    let prog = ks_lang::frontend(source, &all).expect("frontend");
    let mut m = ks_codegen::compile(&prog, &Default::default()).expect("codegen");
    let mut out = String::new();
    for f in &mut m.functions {
        let s = ks_opt::optimize(f);
        write!(
            out,
            "{}{}:{}>{},{},{},{},{},{}",
            if out.is_empty() { "" } else { ";" },
            f.name,
            s.insts_before,
            s.insts_after,
            s.folded,
            s.strength_reduced,
            s.addresses_folded,
            s.cse_replaced,
            s.dead_removed
        )
        .unwrap();
    }
    out
}

fn line(device: &DeviceConfig, app: &str, source: &str, defines: &Defines) -> String {
    let plain = Compiler::new(device.clone())
        .compile(source, defines)
        .expect("plain compile");
    let reg = ks_trace::registry();
    let checks_before = reg.counter_value(ks_trace::names::VERIFY_CHECKS);
    let checked = Compiler::new(device.clone())
        .with_analysis(AnalysisConfig::default())
        .with_validation(ValidationConfig::default())
        .compile(source, defines)
        .expect("checked compile");
    let checks = reg.counter_value(ks_trace::names::VERIFY_CHECKS) - checks_before;
    assert_eq!(
        plain.ptx,
        checked.ptx,
        "{app} {}: checking a compile must not change its PTX",
        defines.command_line()
    );
    let mut h = StableHasher::new();
    for f in &checked.verification {
        h.str(f.code)
            .str(&f.context)
            .str(&f.env)
            .str(&f.function)
            .str(&f.message);
    }
    let variant = match defines.command_line() {
        cl if cl.is_empty() => "generic".to_string(),
        cl => cl.replace(' ', ""),
    };
    format!(
        "{} {app} {variant} ptx={} opt={} checks={checks} findings={}:{}",
        device.name.replace(' ', "_"),
        fnv128(&checked.ptx),
        opt_stats(device, source, defines),
        checked.verification.len(),
        h.finish().to_hex(),
    )
}

fn render() -> String {
    let mut out = String::new();
    for device in [DeviceConfig::tesla_c1060(), DeviceConfig::tesla_c2070()] {
        for (app, source, defines) in grid() {
            writeln!(out, "{}", line(&device, app, source, &defines)).unwrap();
        }
        for (app, source) in [("tm", TEMPLATE_MATCH), ("piv", PIV), ("bp", BACKPROJ)] {
            writeln!(out, "{}", line(&device, app, source, &Defines::new())).unwrap();
        }
    }
    out
}

#[test]
fn compiles_reproduce_the_parent_golden() {
    let golden = std::fs::read_to_string(GOLDEN_PATH).expect("golden file is checked in");
    let now = render();
    let (mut want, mut got) = (golden.lines(), now.lines());
    loop {
        match (want.next(), got.next()) {
            (None, None) => break,
            (w, g) => assert_eq!(g, w, "compile output moved against the parent's golden"),
        }
    }
}

#[test]
#[ignore = "rewrites tests/golden/compile_golden.txt; only the parent of a speed-only change may"]
fn bless() {
    std::fs::create_dir_all(std::path::Path::new(GOLDEN_PATH).parent().unwrap()).unwrap();
    std::fs::write(GOLDEN_PATH, render()).unwrap();
}
