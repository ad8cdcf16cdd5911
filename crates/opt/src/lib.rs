//! # ks-opt — IR-level optimization passes
//!
//! These run after lowering and model the CUDA-C→PTX optimizations the
//! dissertation names (§2.4): constant folding/propagation, strength
//! reduction of power-of-two multiplies/divides/modulo, base+offset address
//! folding (the unrolled access pattern of Appendix D), copy propagation,
//! and dead-code elimination (which is what removes the param-space loads
//! of fully specialized kernels).
//!
//! The passes decide *where* to rewrite; what a folded operation
//! evaluates to is `ks_ir::eval`, the definition the simulator's executor
//! is tested against, so a fold cannot disagree with the machine that
//! runs its output (`tests/constfold_vs_executor.rs`).

pub mod addrfold;
pub mod constfold;
pub mod cse;
pub mod dce;
pub mod strength;
#[cfg(test)]
mod testgen;

use ks_ir::Function;

/// Statistics describing what a pipeline run changed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OptStats {
    pub insts_before: usize,
    pub insts_after: usize,
    pub folded: usize,
    pub strength_reduced: usize,
    pub addresses_folded: usize,
    pub cse_replaced: usize,
    pub dead_removed: usize,
}

/// Per-pass toggles, for ablation studies (everything on by default).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OptConfig {
    pub constfold: bool,
    pub strength: bool,
    pub addrfold: bool,
    pub cse: bool,
    pub dce: bool,
}

impl Default for OptConfig {
    fn default() -> Self {
        OptConfig {
            constfold: true,
            strength: true,
            addrfold: true,
            cse: true,
            dce: true,
        }
    }
}

impl OptConfig {
    /// Everything off (a "-O0" backend).
    pub fn none() -> OptConfig {
        OptConfig {
            constfold: false,
            strength: false,
            addrfold: false,
            cse: false,
            dce: false,
        }
    }
}

/// Run the standard pass pipeline to fixpoint.
pub fn optimize(f: &mut Function) -> OptStats {
    optimize_with_observer(f, &OptConfig::default(), &mut |_, _| {})
}

/// One optimizer pass: its name, its [`OptConfig`] switch, its entry
/// point (returning how many rewrites it made) and the [`OptStats`]
/// count those rewrites add to.
pub struct Pass {
    pub name: &'static str,
    enabled: fn(&OptConfig) -> bool,
    run: fn(&mut Function) -> usize,
    count: fn(&mut OptStats) -> &mut usize,
}

/// The pass pipeline, in the order one round of
/// [`optimize_with_observer`] runs it.
pub const PASSES: [Pass; 5] = [
    Pass {
        name: "constfold",
        enabled: |c| c.constfold,
        run: constfold::run,
        count: |s| &mut s.folded,
    },
    Pass {
        name: "strength",
        enabled: |c| c.strength,
        run: strength::run,
        count: |s| &mut s.strength_reduced,
    },
    Pass {
        name: "addrfold",
        enabled: |c| c.addrfold,
        run: addrfold::run,
        count: |s| &mut s.addresses_folded,
    },
    Pass {
        name: "cse",
        enabled: |c| c.cse,
        run: cse::run,
        count: |s| &mut s.cse_replaced,
    },
    Pass {
        name: "dce",
        enabled: |c| c.dce,
        run: dce::run,
        count: |s| &mut s.dead_removed,
    },
];

/// Run the pipeline with per-pass toggles, invoking `obs(pass_name, f)`
/// after every pass application that changed the function. This is the
/// hook the ks-core sanitizer uses to verify intermediate IR with pass
/// attribution.
pub fn optimize_with_observer(
    f: &mut Function,
    cfg: &OptConfig,
    obs: &mut dyn FnMut(&'static str, &Function),
) -> OptStats {
    let mut stats = OptStats {
        insts_before: f.static_inst_count(),
        ..Default::default()
    };
    loop {
        let mut changed = 0;
        for pass in PASSES.iter().filter(|p| (p.enabled)(cfg)) {
            let n = (pass.run)(f);
            if n > 0 {
                obs(pass.name, f);
            }
            *(pass.count)(&mut stats) += n;
            changed += n;
        }
        if changed == 0 {
            break;
        }
    }
    stats.insts_after = f.static_inst_count();
    debug_assert!(
        ks_ir::verify_function(f).is_empty(),
        "pass pipeline broke the IR"
    );
    stats
}

/// Optimize every function in a module.
pub fn optimize_module(m: &mut ks_ir::Module) -> Vec<OptStats> {
    m.functions.iter_mut().map(optimize).collect()
}

/// Optimize every function in a module with per-pass toggles.
pub fn optimize_module_with(m: &mut ks_ir::Module, cfg: &OptConfig) -> Vec<OptStats> {
    m.functions
        .iter_mut()
        .map(|f| optimize_with_observer(f, cfg, &mut |_, _| {}))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ks_ir::*;

    /// Build: r0=tid; r1 = r0*8; r2 = r1+16; st [r2], 1.0; plus a dead
    /// param load. After the pipeline: shl, st with folded offset, no dead
    /// load.
    #[test]
    fn pipeline_composes() {
        let mut f = Function {
            name: "k".into(),
            params: vec![KernelParam {
                name: "n".into(),
                ty: Ty::S32,
                offset: 0,
            }],
            blocks: vec![],
            vreg_types: vec![],
            shared: vec![],
            local_bytes: 0,
        };
        let r0 = f.new_vreg(Ty::U32);
        let r1 = f.new_vreg(Ty::U32);
        let r2 = f.new_vreg(Ty::Ptr(Space::Global));
        let dead = f.new_vreg(Ty::S32);
        f.blocks.push(BasicBlock {
            id: BlockId(0),
            insts: vec![
                Inst::Special {
                    dst: r0,
                    reg: SpecialReg::TidX,
                },
                Inst::Ld {
                    space: Space::Param,
                    ty: Ty::S32,
                    dst: dead,
                    addr: Address::abs(0),
                },
                Inst::Bin {
                    op: BinOp::Mul,
                    ty: Ty::U32,
                    dst: r1,
                    a: r0.into(),
                    b: Operand::ImmI(8),
                },
                Inst::Bin {
                    op: BinOp::Add,
                    ty: Ty::Ptr(Space::Global),
                    dst: r2,
                    a: r1.into(),
                    b: Operand::ImmI(16),
                },
                Inst::St {
                    space: Space::Global,
                    ty: Ty::F32,
                    addr: Address::reg(r2),
                    src: Operand::ImmF(1.0),
                },
            ],
            term: Terminator::Ret,
        });
        let stats = optimize(&mut f);
        assert!(stats.strength_reduced >= 1, "mul by 8 must become shl");
        assert!(
            stats.addresses_folded >= 1,
            "add 16 must fold into the store address"
        );
        assert!(stats.dead_removed >= 1, "dead param load must go");
        let insts = &f.blocks[0].insts;
        assert!(insts.iter().any(|i| matches!(
            i,
            Inst::Bin {
                op: BinOp::Shl,
                b: Operand::ImmI(3),
                ..
            }
        )));
        assert!(insts.iter().any(|i| matches!(
            i,
            Inst::St {
                addr: Address {
                    base: Some(_),
                    offset: 16
                },
                ..
            }
        )));
        assert!(!insts.iter().any(|i| matches!(
            i,
            Inst::Ld {
                space: Space::Param,
                ..
            }
        )));
        assert!(ks_ir::verify_function(&f).is_empty());
    }
}
