//! Mutation-testing harness: inject known-bad IR rewrites (the kinds of
//! bugs a broken optimization pass would introduce) and require ks-verify
//! to catch every one.

use ks_codegen::CodegenOptions;
use ks_ir::Module;
use ks_verify::{check_function_pair, default_envs, mutate, Limits};

const TEMPLATE_MATCH: &str = include_str!("../../apps/src/kernels/template_match.cu");
const PIV: &str = include_str!("../../apps/src/kernels/piv.cu");
const BACKPROJ: &str = include_str!("../../apps/src/kernels/backproj.cu");

fn defs(pairs: &[(&str, &str)]) -> Vec<(String, String)> {
    pairs
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

fn build_opt(source: &str, defines: &[(String, String)]) -> Module {
    let prog = ks_lang::frontend(source, defines).expect("frontend");
    let mut m = ks_codegen::compile(&prog, &CodegenOptions::default()).expect("codegen");
    ks_opt::optimize_module(&mut m);
    m
}

/// Apply `per_fn` sampled mutations to every function of the module and
/// count how many are caught. Returns (caught, missed descriptions).
fn run_mutations(m: &Module, seed: u64, per_fn: usize) -> (usize, Vec<String>) {
    let envs = default_envs();
    let limits = Limits::default();
    let ctx = Module {
        functions: vec![],
        consts: m.consts.clone(),
        textures: m.textures.clone(),
    };
    let mut caught = 0;
    let mut missed = Vec::new();
    for f in &m.functions {
        let sites = mutate::enumerate(f);
        assert!(!sites.is_empty(), "{}: no mutation sites", f.name);
        for mu in mutate::sample(&sites, seed, per_fn) {
            let mut bad = f.clone();
            assert!(
                mutate::apply(&mut bad, &mu),
                "{}: {} did not apply",
                f.name,
                mu.desc
            );
            let report = check_function_pair(f, &ctx, &bad, &ctx, &envs, limits, &mu.desc);
            if report.findings.iter().any(|fi| fi.is_error()) {
                caught += 1;
            } else {
                missed.push(format!("{}: {}", f.name, mu.desc));
            }
        }
    }
    (caught, missed)
}

#[test]
fn catches_all_mutations_small_kernels() {
    let fixtures = [
        r#"
__global__ void saxpy(float* y, const float* x, float a, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {
        y[i] = a * x[i] + y[i];
    }
}
"#,
        r#"
__global__ void reduce(float* out, const float* in, int n) {
    __shared__ float buf[128];
    int t = (int)threadIdx.x;
    buf[t] = in[blockIdx.x * 128 + t];
    __syncthreads();
    for (int s = 64; s > 0; s = s / 2) {
        if (t < s) {
            buf[t] = buf[t] + buf[t + s];
        }
        __syncthreads();
    }
    if (t == 0) {
        out[blockIdx.x] = buf[0];
    }
}
"#,
        r#"
__global__ void stride(int* out, const int* in, int w) {
    int x = (int)threadIdx.x;
    int y = (int)blockIdx.x;
    out[(y * w + x) * 2] = in[y * w + x] << 3;
}
"#,
    ];
    let mut total = 0;
    let mut all_missed = Vec::new();
    for src in fixtures {
        let m = build_opt(src, &[]);
        let (caught, missed) = run_mutations(&m, 0xC0FFEE, 8);
        total += caught + missed.len();
        all_missed.extend(missed);
    }
    assert!(total >= 10, "too few mutations exercised: {total}");
    assert!(
        all_missed.is_empty(),
        "{} of {} mutations escaped:\n{}",
        all_missed.len(),
        total,
        all_missed.join("\n")
    );
}

#[test]
fn catches_all_mutations_app_kernels() {
    let apps = [
        (
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
            BACKPROJ,
            defs(&[("PPL", "8"), ("ZB", "4"), ("VOL_N", "32")]),
        ),
    ];
    let mut total = 0;
    let mut all_missed = Vec::new();
    for (src, defines) in apps {
        let m = build_opt(src, &defines);
        let (caught, missed) = run_mutations(&m, 0xDECADE, 3);
        total += caught + missed.len();
        all_missed.extend(missed);
    }
    assert!(total >= 15, "too few mutations exercised: {total}");
    assert!(
        all_missed.is_empty(),
        "{} of {} mutations escaped:\n{}",
        all_missed.len(),
        total,
        all_missed.join("\n")
    );
}

/// A `shl` by an immediate is a site for two kinds — swapped operands
/// and a wrong shift amount. Listing it under one match arm per kind hid
/// the second, so the sampled smoke never drew `WrongShift`.
#[test]
fn every_mutation_kind_is_enumerated_and_caught() {
    use mutate::MutationKind::*;
    let m = build_opt(
        r#"
__global__ void shifted(int* out, const int* in, int n) {
    int i = (int)threadIdx.x;
    if (i < n) {
        out[i] = in[i] << 3;
    }
}
"#,
        &[],
    );
    let sites = mutate::enumerate(&m.functions[0]);
    for kind in [
        DropStore,
        AddrOffByFour,
        SwapOperands,
        WrongShift,
        NegateBranch,
    ] {
        assert!(
            sites.iter().any(|s| s.kind == kind),
            "{kind:?} missing from {sites:?}"
        );
    }
    let shift = sites.iter().find(|s| s.kind == WrongShift).unwrap();
    assert!(
        sites
            .iter()
            .any(|s| s.kind == SwapOperands && (s.block, s.inst) == (shift.block, shift.inst)),
        "the shl is also a swap site"
    );
    // Sampling more than there are sites applies every one of them.
    let (caught, missed) = run_mutations(&m, 1, sites.len());
    assert_eq!(caught, sites.len(), "escaped: {missed:?}");
}
