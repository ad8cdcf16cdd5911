//! Whole-pipeline translation validation: drive the real frontend,
//! codegen, and optimizer for one source+define set and check every
//! transform along the way. This is the engine behind the `ks-verify`
//! CLI and the ci.sh verification tier; the ks-core `Compiler` performs
//! the same checks inline when built `with_validation`.

use crate::{default_envs, Limits, ModuleChain, VerifyReport};
use ks_ir::Module;
use ks_opt::OptConfig;

/// Validate every HIR codegen stage and every IR optimization pass for
/// one compilation of `source` under `defines`. Returns the merged
/// report, or the frontend/codegen error message if the program does not
/// compile at all.
pub fn validate_pipeline(
    source: &str,
    defines: &[(String, String)],
    limits: Limits,
) -> Result<VerifyReport, String> {
    let envs = default_envs();
    let mut report = VerifyReport::default();

    // HIR stages: each lowered snapshot against the one before it.
    let prog = ks_lang::frontend(source, defines).map_err(|e| e.to_string())?;
    let mut stages = ModuleChain::new(&envs, limits);
    let mut opt = ks_codegen::compile_observed(
        &prog,
        &ks_codegen::CodegenOptions::default(),
        &mut |stage, m| report.merge(stages.step(m, &format!("codegen.{stage}"))),
    )
    .map_err(|e| e.to_string())?;

    // IR passes: each function's chain continues through every pass
    // applied to it. Summarization needs the module only for const/texture
    // naming, so a functions-less clone serves as context while we mutate
    // the real functions.
    let ctx = Module {
        functions: vec![],
        consts: opt.consts.clone(),
        textures: opt.textures.clone(),
    };
    for f in &mut opt.functions {
        let mut chain = stages.detach(f, &ctx);
        ks_opt::optimize_with_observer(f, &OptConfig::default(), &mut |pass, cur| {
            report.merge(chain.step(cur, &ctx, &format!("opt.{pass}")));
        });
    }
    Ok(report)
}

/// Build the fully optimized module for `source` under `defines` — the
/// input the mutation harness and specialization checks start from.
pub fn build_optimized(source: &str, defines: &[(String, String)]) -> Result<Module, String> {
    let prog = ks_lang::frontend(source, defines).map_err(|e| e.to_string())?;
    let mut m = ks_codegen::compile(&prog, &ks_codegen::CodegenOptions::default())
        .map_err(|e| e.to_string())?;
    ks_opt::optimize_module(&mut m);
    Ok(m)
}
