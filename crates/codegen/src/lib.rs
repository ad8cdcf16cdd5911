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
mod scalarize;
mod unroll;

use ks_lang::hir::{HFunc, Program};

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

/// Run the HIR stages and lower the result once.
pub fn compile(program: &Program, opts: &CodegenOptions) -> Result<ks_ir::Module, String> {
    lower::lower_program(&run_stages(program, opts, &mut |_, _| Ok(()))?)
}

/// One HIR stage: its name and how it rewrites one kernel.
pub struct Stage {
    pub name: &'static str,
    run: fn(&mut HFunc, &CodegenOptions),
}

const FOLD: Stage = Stage {
    name: "consteval",
    run: |k, _| consteval::fold_func(k),
};
const UNROLL: Stage = Stage {
    name: "unroll",
    run: |k, o| unroll::unroll_func(k, o.unroll_limit),
};
const SCALARIZE: Stage = Stage {
    name: "scalarize",
    run: |k, o| scalarize::scalarize_func(k, o.scalarize_cap),
};

/// The HIR pipeline, in the order [`run_stages`] runs it.
pub const STAGES: [Stage; 5] = [FOLD, UNROLL, FOLD, SCALARIZE, FOLD];

/// Run the HIR pipeline ([`STAGES`]) on a copy of `program` and return
/// it. The observer first sees `("baseline", program)`, then each
/// stage's output; its first error stops the pipeline. With
/// `opts.optimize` off no stage runs and the observer sees nothing.
pub fn run_stages(
    program: &Program,
    opts: &CodegenOptions,
    obs: &mut dyn FnMut(&'static str, &Program) -> Result<(), String>,
) -> Result<Program, String> {
    let mut prog = program.clone();
    if !opts.optimize {
        return Ok(prog);
    }
    obs("baseline", &prog)?;
    for stage in &STAGES {
        for k in &mut prog.kernels {
            (stage.run)(k, opts);
        }
        obs(stage.name, &prog)?;
    }
    Ok(prog)
}
