//! Whole-pipeline translation validation: drive the real codegen stages
//! and optimizer passes and check every transform along the way. The
//! ks-core `Compiler` runs both when built `with_validation`; that
//! compile is what the `ks-verify` CLI and the ci.sh verification tier
//! report.

use crate::{default_envs, Limits, ModuleChain, OptChain, VerifyReport};
use ks_codegen::CodegenOptions;
use ks_ir::{Function, Module};
use ks_lang::hir::Program;
use ks_opt::OptConfig;
use std::time::{Duration, Instant};

/// Lower `program` through ks-codegen's HIR stages, lowering the input
/// and each stage's output: the first lowering starts a [`ModuleChain`]
/// under [`default_envs`], and each lowering that differs from the one
/// before it is checked against it as `codegen.<stage>`. Returns the
/// last lowering, the merged report and the time spent checking. With
/// `opts.optimize` off the program is lowered once and nothing is
/// checked.
pub fn codegen_checked(
    program: &Program,
    opts: &CodegenOptions,
    limits: Limits,
) -> Result<(Module, VerifyReport, Duration), String> {
    let envs = default_envs();
    let mut chain = ModuleChain::new(&envs, limits);
    let mut report = VerifyReport::default();
    let mut spent = Duration::ZERO;
    let mut last: Option<Module> = None;
    let prog = ks_codegen::run_stages(program, opts, &mut |stage, p| {
        let next = ks_codegen::lower::lower_program(p)?;
        if last.as_ref() != Some(&next) {
            let _sp = ks_trace::span("verify-codegen");
            let t = Instant::now();
            report.merge(chain.step(&next, &format!("codegen.{stage}")));
            spent += t.elapsed();
            last = Some(next);
        }
        Ok(())
    })?;
    let module = match last {
        Some(m) => m,
        None => ks_codegen::lower::lower_program(&prog)?,
    };
    Ok((module, report, spent))
}

/// Optimize every function of `module` under `cfg`, checking each pass
/// application that changed a function against the function before it
/// ([`OptChain`]: the block check, the path check under `limits` where
/// it falls back). `obs(pass, f, start)` runs right after each applied
/// pass, before its check; `start` is when that pass began, so the
/// caller can time passes without their checks. Returns the merged
/// report and the time spent checking.
pub fn optimize_checked(
    module: &mut Module,
    cfg: &OptConfig,
    limits: Limits,
    obs: &mut dyn FnMut(&'static str, &Function, Instant),
) -> (VerifyReport, Duration) {
    // Summarization needs the module only for const/texture naming, so a
    // functions-less clone serves as context while the real functions
    // are mutated in place.
    let ctx = Module {
        functions: vec![],
        consts: module.consts.clone(),
        textures: module.textures.clone(),
    };
    let mut report = VerifyReport::default();
    let mut spent = Duration::ZERO;
    for f in &mut module.functions {
        let t = Instant::now();
        let mut chain = OptChain::new(f, limits);
        spent += t.elapsed();
        let mut start = Instant::now();
        ks_opt::optimize_with_observer(f, cfg, &mut |pass, cur| {
            obs(pass, cur, start);
            let t = Instant::now();
            report.merge(chain.step(cur, &ctx, &format!("opt.{pass}")));
            spent += t.elapsed();
            start = Instant::now();
        });
    }
    (report, spent)
}
