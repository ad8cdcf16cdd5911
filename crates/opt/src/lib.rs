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
    optimize_with(f, &OptConfig::default())
}

/// Run the pipeline with per-pass toggles.
pub fn optimize_with(f: &mut Function, cfg: &OptConfig) -> OptStats {
    optimize_with_observer(f, cfg, &mut |_, _| {})
}

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
        if cfg.constfold {
            let c = constfold::run(f);
            if c > 0 {
                obs("constfold", f);
            }
            stats.folded += c;
            changed += c;
        }
        if cfg.strength {
            let s = strength::run(f);
            if s > 0 {
                obs("strength", f);
            }
            stats.strength_reduced += s;
            changed += s;
        }
        if cfg.addrfold {
            let a = addrfold::run(f);
            if a > 0 {
                obs("addrfold", f);
            }
            stats.addresses_folded += a;
            changed += a;
        }
        if cfg.cse {
            let c = cse::run(f);
            if c > 0 {
                obs("cse", f);
            }
            stats.cse_replaced += c;
            changed += c;
        }
        if cfg.dce {
            let d = dce::run(f);
            if d > 0 {
                obs("dce", f);
            }
            stats.dead_removed += d;
            changed += d;
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
        .map(|f| optimize_with(f, cfg))
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
