//! `SnapshotChain` carries each snapshot's summary (and one arena per
//! environment) forward. That must be invisible: a chain over k
//! snapshots reports exactly what k−1 independent `check_function_pair`
//! calls report, and a miscompile introduced late in a long chain — when
//! the arenas already hold every earlier snapshot — is still caught.

use ks_codegen::CodegenOptions;
use ks_ir::{BinOp, Function, Inst, Module, Operand};
use ks_verify::mutate::{self, Mutation, MutationKind};
use ks_verify::{
    check_function_pair, check_modules, default_envs, Limits, ModuleChain, SnapshotChain,
    VerifyReport,
};

const TEMPLATE_MATCH: &str = include_str!("../../apps/src/kernels/template_match.cu");
const PIV: &str = include_str!("../../apps/src/kernels/piv.cu");
const BACKPROJ: &str = include_str!("../../apps/src/kernels/backproj.cu");

fn defs(pairs: &[(&str, &str)]) -> Vec<(String, String)> {
    pairs
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

/// Small SK builds of the three apps (the ledger's `churn` sizes).
fn apps() -> Vec<(&'static str, Vec<(String, String)>)> {
    vec![
        (
            TEMPLATE_MATCH,
            defs(&[
                ("TILE_W", "8"),
                ("TILE_H", "4"),
                ("SHIFT_W", "8"),
                ("NUM_TILES", "6"),
                ("TEMPL_W", "16"),
                ("TEMPL_H", "12"),
                ("THREADS", "64"),
            ]),
        ),
        (
            PIV,
            defs(&[
                ("RB", "2"),
                ("THREADS", "64"),
                ("MASK_W", "16"),
                ("MASK_H", "16"),
                ("OFFS_W", "5"),
            ]),
        ),
        (
            BACKPROJ,
            defs(&[("PPL", "4"), ("ZB", "2"), ("VOL_N", "12")]),
        ),
    ]
}

/// Every lowered codegen stage of one compilation, in order.
fn stage_snapshots(source: &str, defines: &[(String, String)]) -> Vec<(String, Module)> {
    let prog = ks_lang::frontend(source, defines).expect("frontend");
    let mut snaps = Vec::new();
    ks_codegen::compile_observed(&prog, &CodegenOptions::default(), &mut |stage, m| {
        snaps.push((format!("codegen.{stage}"), m.clone()));
    })
    .expect("codegen");
    snaps
}

/// `f` before optimization and after every pass application that
/// changed it, each with the context its step is reported under.
fn pass_snapshots(f: &Function) -> Vec<(String, Function)> {
    let mut snaps = vec![("lowered".to_string(), f.clone())];
    let mut f = f.clone();
    ks_opt::optimize_with_observer(&mut f, &Default::default(), &mut |pass, cur| {
        snaps.push((format!("opt.{pass}"), cur.clone()));
    });
    snaps
}

const KINDS: [MutationKind; 5] = [
    MutationKind::DropStore,
    MutationKind::AddrOffByFour,
    MutationKind::SwapOperands,
    MutationKind::WrongShift,
    MutationKind::NegateBranch,
];

fn wrong_shift_site(f: &Function) -> Option<Mutation> {
    f.blocks.iter().enumerate().find_map(|(block, b)| {
        let shl =
            |i: &Inst| matches!(i, Inst::Bin { op: BinOp::Shl, b: Operand::ImmI(k), .. } if *k > 0);
        b.insts.iter().position(shl).map(|inst| Mutation {
            kind: MutationKind::WrongShift,
            block,
            inst,
            desc: format!("shrink shl amount at BB{block}#{inst}"),
        })
    })
}

fn context_of(m: &Module) -> Module {
    Module {
        functions: vec![],
        consts: m.consts.clone(),
        textures: m.textures.clone(),
    }
}

#[test]
fn a_chain_reports_what_pairwise_checks_report() {
    let envs = default_envs();
    let limits = Limits::default();
    for (source, defines) in apps() {
        // Whole modules through the codegen stages.
        let stages = stage_snapshots(source, &defines);
        assert!(stages.len() >= 3, "want a chain, not a pair");
        let mut chained = VerifyReport::default();
        let mut chain = ModuleChain::new(&envs, limits);
        for (context, m) in &stages {
            chained.merge(chain.step(m, context));
        }
        let mut pairwise = VerifyReport::default();
        for w in stages.windows(2) {
            pairwise.merge(check_modules(&w[0].1, &w[1].1, &envs, limits, &w[1].0));
        }
        assert_eq!(chained, pairwise);

        // Each function on through the optimizer passes, continuing the
        // chain the stages started.
        let lowered = &stages.last().expect("stages").1;
        let ctx = context_of(lowered);
        let mut longest = 0;
        for f in &lowered.functions {
            let snaps = pass_snapshots(f);
            longest = longest.max(snaps.len());
            let mut chained = VerifyReport::default();
            let mut chain = chain.detach(f, &ctx);
            for (context, snap) in &snaps[1..] {
                chained.merge(chain.step(snap, &ctx, context));
            }
            let mut pairwise = VerifyReport::default();
            for w in snaps.windows(2) {
                pairwise.merge(check_function_pair(
                    &w[0].1, &ctx, &w[1].1, &ctx, &envs, limits, &w[1].0,
                ));
            }
            assert_eq!(chained, pairwise, "{}", f.name);
        }
        assert!(longest >= 10, "want long chains, got {longest} snapshots");
    }
}

#[test]
fn a_long_chain_still_catches_every_mutation_kind() {
    let envs = default_envs();
    let limits = Limits::default();
    let mut caught_kinds: Vec<MutationKind> = Vec::new();
    for (source, defines) in apps() {
        let lowered = &stage_snapshots(source, &defines).pop().expect("stages").1;
        let ctx = context_of(lowered);
        for f in &lowered.functions {
            let snaps = pass_snapshots(f);
            let mut chain = SnapshotChain::new(&snaps[0].1, &ctx, &envs, limits);
            for (context, snap) in &snaps[1..] {
                let report = chain.step(snap, &ctx, context);
                assert!(report.is_clean(), "{}: {:?}", f.name, report.findings);
            }
            // The chain now stands at the optimized function, its arenas
            // full of every earlier snapshot: break it, then restore it.
            // One site of each kind the function offers. (`enumerate`
            // lists a shift by an immediate as an operand swap, so the
            // wrong-shift site is named here.)
            let good = &snaps.last().expect("snapshots").1;
            let mut sites = mutate::enumerate(good);
            sites.extend(wrong_shift_site(good));
            let one_of_each = KINDS
                .iter()
                .filter_map(|kind| sites.iter().find(|mu| mu.kind == *kind));
            for mu in one_of_each {
                let mut bad = good.clone();
                assert!(mutate::apply(&mut bad, mu), "{}: {}", f.name, mu.desc);
                let report = chain.step(&bad, &ctx, &mu.desc);
                assert!(
                    report.findings.iter().any(|fi| fi.is_error()),
                    "{}: mutation escaped the chain: {}",
                    f.name,
                    mu.desc
                );
                if !caught_kinds.contains(&mu.kind) {
                    caught_kinds.push(mu.kind);
                }
                chain.step(good, &ctx, "restore");
            }
        }
    }
    assert_eq!(
        caught_kinds.len(),
        KINDS.len(),
        "every mutation kind must be exercised: {caught_kinds:?}"
    );
}
