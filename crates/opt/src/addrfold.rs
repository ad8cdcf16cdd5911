//! Base+offset address folding.
//!
//! `add r2, r1, 16` followed by `ld [r2]` becomes `ld [r1+16]` when `r2`
//! has no other use — producing the base-plus-immediate-offset access
//! chains characteristic of unrolled specialized kernels (Appendix D).

use ks_ir::fxhash::FxHashMap;
use ks_ir::{BinOp, Function, Inst, Operand, Ty, VReg};

/// Returns the number of addresses folded.
pub fn run(f: &mut Function) -> usize {
    // Count uses of every register (including terminator predicates).
    let mut uses = vec![0u32; f.num_vregs()];
    for b in &f.blocks {
        for i in &b.insts {
            i.for_each_use(|r| uses[r.0 as usize] += 1);
        }
        if let Some(p) = b.term.use_reg() {
            uses[p.0 as usize] += 1;
        }
    }
    // Single-def adds of the form dst = base + imm (pointer or integer).
    let mut defs = vec![0u32; f.num_vregs()];
    let mut add_of: FxHashMap<VReg, (VReg, i64)> = FxHashMap::default();
    for b in &f.blocks {
        for i in &b.insts {
            if let Some(d) = i.def() {
                defs[d.0 as usize] += 1;
            }
            if let Inst::Bin {
                op: BinOp::Add,
                ty,
                dst,
                a,
                b,
            } = i
            {
                if matches!(ty, Ty::Ptr(_) | Ty::S32 | Ty::U32) {
                    match (a, b) {
                        (Operand::Reg(r), Operand::ImmI(c))
                        | (Operand::ImmI(c), Operand::Reg(r)) => {
                            add_of.insert(*dst, (*r, *c));
                        }
                        _ => {}
                    }
                }
            }
        }
    }

    let mut folded = 0;
    for b in &mut f.blocks {
        for i in &mut b.insts {
            let addr = match i {
                Inst::Ld { addr, .. } | Inst::St { addr, .. } => addr,
                _ => continue,
            };
            if let Some(base) = addr.base {
                // Only fold defs that are singular and adds of reg+imm.
                if defs[base.0 as usize] == 1 {
                    if let Some(&(src, c)) = add_of.get(&base) {
                        // The add's operand must itself be single-def (or a
                        // function-invariant like a param load) to be safe
                        // across blocks; single-def is what lowering emits.
                        if defs[src.0 as usize] == 1 {
                            addr.base = Some(src);
                            addr.offset += c;
                            folded += 1;
                        }
                    }
                }
            }
        }
    }
    folded
}

#[cfg(test)]
mod tests {
    use super::*;
    use ks_ir::*;

    #[test]
    fn folds_add_into_load_offset() {
        let mut f = Function {
            name: "t".into(),
            params: vec![],
            blocks: vec![],
            vreg_types: vec![],
            shared: vec![],
            local_bytes: 0,
        };
        let base = f.new_vreg(Ty::Ptr(Space::Global));
        let sum = f.new_vreg(Ty::Ptr(Space::Global));
        let val = f.new_vreg(Ty::F32);
        f.blocks.push(BasicBlock {
            id: BlockId(0),
            insts: vec![
                Inst::Special {
                    dst: base,
                    reg: SpecialReg::TidX,
                },
                Inst::Bin {
                    op: BinOp::Add,
                    ty: Ty::Ptr(Space::Global),
                    dst: sum,
                    a: base.into(),
                    b: Operand::ImmI(84),
                },
                Inst::Ld {
                    space: Space::Global,
                    ty: Ty::F32,
                    dst: val,
                    addr: Address::reg(sum),
                },
            ],
            term: Terminator::Ret,
        });
        assert_eq!(run(&mut f), 1);
        match &f.blocks[0].insts[2] {
            Inst::Ld { addr, .. } => {
                assert_eq!(addr.base, Some(base));
                assert_eq!(addr.offset, 84);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn multi_def_base_not_folded() {
        let mut f = Function {
            name: "t".into(),
            params: vec![],
            blocks: vec![],
            vreg_types: vec![],
            shared: vec![],
            local_bytes: 0,
        };
        let a = f.new_vreg(Ty::Ptr(Space::Global));
        let v = f.new_vreg(Ty::F32);
        f.blocks.push(BasicBlock {
            id: BlockId(0),
            insts: vec![
                Inst::Mov {
                    ty: Ty::Ptr(Space::Global),
                    dst: a,
                    src: Operand::ImmI(0x100),
                },
                Inst::Bin {
                    op: BinOp::Add,
                    ty: Ty::Ptr(Space::Global),
                    dst: a,
                    a: a.into(),
                    b: Operand::ImmI(4),
                },
                Inst::Ld {
                    space: Space::Global,
                    ty: Ty::F32,
                    dst: v,
                    addr: Address::reg(a),
                },
            ],
            term: Terminator::Ret,
        });
        assert_eq!(run(&mut f), 0, "self-updating pointer must not fold");
    }
}
