//! The compile path must produce the same bytes and the same findings
//! as the commit before CSE/DCE went linear and translation validation
//! started carrying summaries forward. `golden/compile_golden.txt` was
//! written by that commit (6f651e3) with
//! `cargo test -p ks-core --test compile_golden -- --ignored bless` and
//! is never re-blessed by a change that claims to be speed-only (its
//! `checks=` and `findings=` fields were written once more when
//! optimizer steps moved to the block-by-block check: fewer checks, and
//! every findings list a subset of the old one; every `ptx=` and `opt=`
//! field is the original): one
//! line per variant with the FNV-1a-128 of the PTX (plain and checked
//! compiles must agree), every kernel's `OptStats`, the number of
//! translation-validation checks, and the ordered
//! `Binary::verification` list (count + FNV-1a-128 over code, context,
//! env, function and message of every finding).
//!
//! The variants are `ks-ledger`'s 64-point `churn` grid
//! (`benchmark/src/grid.rs`) on both devices, plus the generic (RE)
//! build of the three app sources.
//!
//! Every plain build also goes through the store and back: a fresh
//! compiler on the same directory serves it from disk, and its module —
//! decoded on first access — must equal the compiled one, kernel by
//! kernel, with a plan for each.

#[path = "../../../tests/support/churn_grid.rs"]
mod churn_grid;

use ks_core::{AnalysisConfig, Binary, Compiler, Defines, StableHasher, ValidationConfig};
use ks_sim::DeviceConfig;
use std::fmt::Write;
use std::path::Path;

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/compile_golden.txt"
);

/// The churn grid's `-D` sets, in the ledger's canonical order.
fn grid() -> Vec<(&'static str, &'static str, Defines)> {
    churn_grid::grid()
        .into_iter()
        .map(|b| {
            let d = b
                .defines
                .iter()
                .fold(Defines::new(), |d, &(n, v)| d.def(n, v));
            (b.app, b.source, d)
        })
        .collect()
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

/// Serialize → deserialize → first access gives back `compiled`'s module.
fn assert_reloads(device: &DeviceConfig, store: &Path, compiled: &Binary, source: &str) {
    let warm = Compiler::new(device.clone()).with_store(store).unwrap();
    let loaded = warm.compile(source, &compiled.defines).expect("disk hit");
    let what = format!("{} {}", device.name, compiled.defines.command_line());
    assert_eq!(warm.cache_stats().disk_hits, 1, "{what}: served from disk");
    assert_eq!(*loaded.module, *compiled.module, "{what}: module");
    for f in &compiled.module.functions {
        let k = f.name.as_str();
        assert_eq!(
            (
                loaded.regs_per_thread(k),
                loaded.static_insts(k),
                loaded.shared_bytes(k),
                loaded.local_bytes(k)
            ),
            (
                compiled.regs_per_thread(k),
                compiled.static_insts(k),
                compiled.shared_bytes(k),
                compiled.local_bytes(k)
            ),
            "{what}: kernel {k}"
        );
        assert!(matches!(loaded.plan(k), Ok(Some(_))), "{what}: plan of {k}");
    }
}

fn line(device: &DeviceConfig, store: &Path, app: &str, source: &str, defines: &Defines) -> String {
    let plain = Compiler::new(device.clone())
        .with_store(store)
        .unwrap()
        .compile(source, defines)
        .expect("plain compile");
    assert_reloads(device, store, &plain, source);
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
    let store = std::env::temp_dir().join(format!("ks-core-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);
    let mut out = String::new();
    for device in [DeviceConfig::tesla_c1060(), DeviceConfig::tesla_c2070()] {
        for (app, source, defines) in grid() {
            writeln!(out, "{}", line(&device, &store, app, source, &defines)).unwrap();
        }
        for (app, source) in churn_grid::APPS {
            let generic = line(&device, &store, app, source, &Defines::new());
            writeln!(out, "{generic}").unwrap();
        }
    }
    let _ = std::fs::remove_dir_all(&store);
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
