//! Mutation-testing harness: inject known-bad IR rewrites (the kinds of
//! bugs a broken optimization pass would introduce) and require ks-verify
//! to catch every one. Each mutant goes through the opt-step checker
//! (`check_opt_step`: the block check, the path check where it falls
//! back), so a block check that accepted a wrong step would show up here
//! as an escaped mutation.

use ks_codegen::CodegenOptions;
use ks_ir::{
    Address, BasicBlock, BlockId, CmpOp, Function, Inst, Module, Operand, Space, SpecialReg,
    Terminator, Ty, VReg,
};
use ks_verify::{check_function_pair, check_opt_step, default_envs, mutate, Limits};

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
            let report = check_opt_step(f, &bad, &ctx, limits, &mu.desc);
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

// Hand-built steps at the edges of the block rule.

fn function(blocks: Vec<(Vec<Inst>, Terminator)>, regs: &[Ty]) -> Function {
    Function {
        name: "k".into(),
        params: vec![],
        blocks: blocks
            .into_iter()
            .enumerate()
            .map(|(i, (insts, term))| BasicBlock {
                id: BlockId(i as u32),
                insts,
                term,
            })
            .collect(),
        vreg_types: regs.to_vec(),
        shared: vec![],
        local_bytes: 0,
    }
}

fn no_context() -> Module {
    Module {
        functions: vec![],
        consts: vec![],
        textures: vec![],
    }
}

fn store(src: Operand) -> Inst {
    Inst::St {
        space: Space::Global,
        ty: Ty::S32,
        addr: Address {
            base: None,
            offset: 64,
        },
        src,
    }
}

fn mov(dst: u32, v: i64) -> Inst {
    Inst::Mov {
        ty: Ty::S32,
        dst: VReg(dst),
        src: Operand::ImmI(v),
    }
}

fn br(target: u32) -> Terminator {
    Terminator::Br {
        target: BlockId(target),
    }
}

fn cond_br(pred: u32, then_t: u32, else_t: u32) -> Terminator {
    Terminator::CondBr {
        pred: VReg(pred),
        negate: false,
        then_t: BlockId(then_t),
        else_t: BlockId(else_t),
    }
}

/// Constfold's facts are flow-insensitive: it rewrites a use that the
/// single def does not dominate. The block check must not take that
/// fact, so the step falls back and the path check's verdict stands.
#[test]
fn a_fold_past_a_non_dominating_def_falls_back_to_the_path_check() {
    // BB0: r0 = tid.x; p1 = r0 < 1; branch to BB1 or BB2.
    // BB1: r2 = 5. BB2: nothing. BB3: store r2.
    let before = function(
        vec![
            (
                vec![
                    Inst::Special {
                        dst: VReg(0),
                        reg: SpecialReg::TidX,
                    },
                    Inst::Setp {
                        cmp: CmpOp::Lt,
                        ty: Ty::U32,
                        dst: VReg(1),
                        a: Operand::Reg(VReg(0)),
                        b: Operand::ImmI(1),
                    },
                ],
                cond_br(1, 1, 2),
            ),
            (vec![mov(2, 5)], br(3)),
            (vec![], br(3)),
            (vec![store(Operand::Reg(VReg(2)))], Terminator::Ret),
        ],
        &[Ty::U32, Ty::Pred, Ty::S32],
    );
    let mut after = before.clone();
    assert!(ks_opt::constfold::run(&mut after) > 0);
    assert_eq!(after.blocks[3].insts, vec![store(Operand::ImmI(5))]);
    let ctx = no_context();
    let limits = Limits::default();
    let report = check_opt_step(&before, &after, &ctx, limits, "opt.constfold");
    assert_eq!(report.block_fallbacks, 1);
    let path = check_function_pair(
        &before,
        &ctx,
        &after,
        &ctx,
        &default_envs(),
        limits,
        "opt.constfold",
    );
    assert_eq!(report.findings, path.findings);
    assert_eq!(report.checks, 1 + path.checks);
    assert!(
        report.findings.iter().any(|f| f.code == "KSV001"),
        "{report:?}"
    );
}

/// A DCE that deletes a definition something still reads: the entry
/// block of *after* now reads the register before any write, which the
/// block check never accepts, and the path check calls it a miscompile.
#[test]
fn a_dce_that_drops_a_used_def_is_a_miscompile() {
    let before = function(
        vec![(
            vec![mov(0, 5), store(Operand::Reg(VReg(0)))],
            Terminator::Ret,
        )],
        &[Ty::S32],
    );
    let mut after = before.clone();
    after.blocks[0].insts.remove(0);
    let report = check_opt_step(&before, &after, &no_context(), Limits::default(), "opt.dce");
    assert_eq!(report.block_fallbacks, 1);
    assert!(
        report.findings.iter().any(|f| f.code == "KSV001"),
        "{report:?}"
    );
}

/// Constfold's `CondBr` → `Br` on a predicate computed in a dominating
/// block from immediates: the fact holds at the branch's block, so the
/// block check proves the step with no fallback.
#[test]
fn a_branch_on_a_dominating_constant_folds_without_fallback() {
    // BB0: p0 = 1 < 2. BB1: branch on p0. BB2/BB3: store 1/2.
    let before = function(
        vec![
            (
                vec![Inst::Setp {
                    cmp: CmpOp::Lt,
                    ty: Ty::S32,
                    dst: VReg(0),
                    a: Operand::ImmI(1),
                    b: Operand::ImmI(2),
                }],
                br(1),
            ),
            (vec![], cond_br(0, 2, 3)),
            (vec![store(Operand::ImmI(1))], Terminator::Ret),
            (vec![store(Operand::ImmI(2))], Terminator::Ret),
        ],
        &[Ty::Pred],
    );
    let mut after = before.clone();
    assert!(ks_opt::constfold::run(&mut after) > 0);
    assert_eq!(after.blocks[1].term, br(2));
    let report = check_opt_step(
        &before,
        &after,
        &no_context(),
        Limits::default(),
        "opt.constfold",
    );
    assert_eq!(report.block_fallbacks, 0, "{report:?}");
    assert!(report.findings.is_empty(), "{report:?}");
    assert_eq!(report.checks, 1);
    // The same fold with the wrong target is caught.
    let mut wrong = after.clone();
    wrong.blocks[1].term = br(3);
    let report = check_opt_step(
        &before,
        &wrong,
        &no_context(),
        Limits::default(),
        "opt.constfold",
    );
    assert_eq!(report.block_fallbacks, 1);
    assert!(
        report.findings.iter().any(|f| f.code == "KSV001"),
        "{report:?}"
    );
}
