//! # ks-codegen — HIR → IR lowering with specialization-driven transforms
//!
//! This crate implements the compile-time optimizations the dissertation
//! identifies as the payoff of kernel specialization (§2.4, §4): they all
//! *require fixed values at compile time*, which is exactly what the
//! preprocessor's `-D` defines provide.
//!
//! * [`consteval`] — constant folding & propagation over the typed HIR,
//!   including static *guard elimination* (`if` with a constant condition).
//! * [`unroll`] — full unrolling of counted loops whose bounds folded to
//!   constants. Run-time-evaluated loops stay rolled and pay the loop
//!   setup/iteration/branch overhead in the simulator.
//! * [`scalarize`] — promotion of per-thread local arrays to scalar
//!   registers when (after unrolling) every index is a constant. This is
//!   *register blocking*: NVIDIA GPUs cannot indirectly address registers,
//!   so a dynamically indexed array must live in slow local memory.
//! * [`lower`] — lowering to the PTX-like `ks-ir`.
//!
//! Every value these stages compute at compile time — a folded operator,
//! compare, builtin, cast or pointer offset, an unrolled loop's trip
//! count, an immediate address in the lowering — comes from
//! `ks_ir::eval` applied to the instruction the lowering emits for it, so
//! a fold yields exactly what the machine would have computed. The one
//! HIR → IR mapping of types and operators they share is private to this
//! crate.

pub mod consteval;
pub mod lower;
mod mapping;
pub mod scalarize;
pub mod unroll;

use ks_lang::hir::Program;

/// Codegen options.
#[derive(Debug, Clone)]
pub struct CodegenOptions {
    /// Maximum trip count for full loop unrolling.
    pub unroll_limit: u32,
    /// Maximum element count for local-array scalarization.
    pub scalarize_cap: u32,
    /// Apply HIR-level optimizations at all (`false` ⇒ a "-O0" build used
    /// for differential testing).
    pub optimize: bool,
}

impl Default for CodegenOptions {
    fn default() -> Self {
        CodegenOptions {
            unroll_limit: 2048,
            scalarize_cap: 256,
            optimize: true,
        }
    }
}

/// Run the HIR pipeline (fold → unroll → fold → scalarize → fold) and lower
/// to an IR module.
pub fn compile(program: &Program, opts: &CodegenOptions) -> Result<ks_ir::Module, String> {
    compile_observed(program, opts, &mut |_, _| {})
}

/// Like [`compile`], but lowers and reports the module after each HIR
/// transform stage, so a validator can compare consecutive snapshots.
/// The observer first sees `("baseline", <unoptimized lowering>)`, then one
/// call per stage that changed the program; the returned module is always
/// the final stage's lowering.
pub fn compile_observed(
    program: &Program,
    opts: &CodegenOptions,
    obs: &mut dyn FnMut(&'static str, &ks_ir::Module),
) -> Result<ks_ir::Module, String> {
    let mut prog = program.clone();
    if !opts.optimize {
        return lower::lower_program(&prog);
    }
    let mut module = lower::lower_program(&prog)?;
    obs("baseline", &module);
    type Stage<'a> = (&'static str, &'a dyn Fn(&mut Program));
    let stages: [Stage; 5] = [
        ("consteval", &|p| each(p, consteval::fold_func)),
        ("unroll", &|p| {
            for k in &mut p.kernels {
                unroll::unroll_func(k, opts.unroll_limit);
            }
        }),
        ("consteval", &|p| each(p, consteval::fold_func)),
        ("scalarize", &|p| {
            for k in &mut p.kernels {
                scalarize::scalarize_func(k, opts.scalarize_cap);
            }
        }),
        ("consteval", &|p| each(p, consteval::fold_func)),
    ];
    for (name, stage) in stages {
        stage(&mut prog);
        let next = lower::lower_program(&prog)?;
        if next != module {
            obs(name, &next);
            module = next;
        }
    }
    Ok(module)
}

fn each(p: &mut Program, f: impl Fn(&mut ks_lang::hir::HFunc)) {
    for k in &mut p.kernels {
        f(k);
    }
}
