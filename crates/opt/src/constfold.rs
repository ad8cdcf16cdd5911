//! IR constant folding + propagation + copy propagation.
//!
//! Strategy: virtual registers produced by the lowering are almost all
//! single-definition temporaries, so a cheap global analysis suffices —
//! compute def counts, then for every single-def register whose definition
//! is `mov reg, imm` (or an all-immediate computation) replace its uses
//! with the immediate. Copy propagation handles single-def `mov a, b`
//! where `b` is also single-def.

use ks_ir::fxhash::FxHashMap;
use ks_ir::{eval, BinOp, Function, Inst, Operand, Ty, UnOp, VReg};

/// Register bits of `o` when it is an immediate of `ty`'s kind (the IR
/// verifier allows float immediates under `f32` only, integer ones under
/// the integer and pointer types; predicates have no immediates).
fn bits(ty: Ty, o: &Operand) -> Option<u64> {
    match (ty, o) {
        (Ty::F32, Operand::ImmF(_)) | (Ty::S32 | Ty::U32 | Ty::Ptr(_), Operand::ImmI(_)) => {
            eval::imm_bits(o)
        }
        _ => None,
    }
}

/// The immediate that puts `bits` into a register of type `ty`.
fn imm(ty: Ty, bits: u64) -> Operand {
    match ty {
        Ty::F32 => Operand::ImmF(f32::from_bits(bits as u32)),
        _ => Operand::ImmI(bits as i64),
    }
}

/// `op.ty a, b` over two immediates, computed as the executor would.
fn fold_bin(op: BinOp, ty: Ty, a: &Operand, b: &Operand) -> Option<Operand> {
    Some(imm(ty, eval::bin(op, ty, bits(ty, a)?, bits(ty, b)?)?))
}

/// Count definitions of every vreg.
fn def_counts(f: &Function) -> Vec<u32> {
    let mut counts = vec![0u32; f.num_vregs()];
    for b in &f.blocks {
        for i in &b.insts {
            if let Some(d) = i.def() {
                counts[d.0 as usize] += 1;
            }
        }
    }
    counts
}

/// One round of folding; returns the number of instructions rewritten.
pub fn run(f: &mut Function) -> usize {
    let counts = def_counts(f);
    // Known constants: single-def registers whose def produced an immediate.
    let mut known: FxHashMap<VReg, Operand> = FxHashMap::default();
    // Copies: single-def `mov a, b` with single-def b.
    let mut copies: FxHashMap<VReg, VReg> = FxHashMap::default();

    for b in &f.blocks {
        for i in &b.insts {
            let Some(d) = i.def() else { continue };
            if counts[d.0 as usize] != 1 {
                continue;
            }
            match i {
                Inst::Mov {
                    src: Operand::Reg(s),
                    ..
                } if counts[s.0 as usize] == 1 => {
                    copies.insert(d, *s);
                }
                Inst::Mov {
                    src: src @ (Operand::ImmI(_) | Operand::ImmF(_)),
                    ..
                } => {
                    known.insert(d, *src);
                }
                Inst::Bin { op, ty, a, b, .. } => {
                    if let Some(v) = fold_bin(*op, *ty, a, b) {
                        known.insert(d, v);
                    }
                }
                Inst::Setp {
                    cmp,
                    ty,
                    a: Operand::ImmI(x),
                    b: Operand::ImmI(y),
                    ..
                } => {
                    let r = eval::cmp(*cmp, *ty, *x as u64, *y as u64);
                    // Predicates have no immediates; record as ImmI for
                    // terminator simplification only.
                    known.insert(d, Operand::ImmI(i64::from(r)));
                }
                _ => {}
            }
        }
    }
    // Resolve copy chains into `known` or a final register.
    let resolve = |mut r: VReg| -> Operand {
        let mut hops = 0;
        while let Some(&s) = copies.get(&r) {
            r = s;
            hops += 1;
            if hops > 64 {
                break;
            }
        }
        known.get(&r).copied().unwrap_or(Operand::Reg(r))
    };

    let mut changed = 0;
    let pred_types: Vec<Ty> = f.vreg_types.clone();
    for b in &mut f.blocks {
        for i in &mut b.insts {
            // Skip rewriting uses of predicates with ImmI (predicates have
            // no immediate form); resolve() may return one for setp dsts.
            let before = i.clone();
            i.map_uses(&mut |r| {
                if pred_types[r.0 as usize] == Ty::Pred {
                    return Operand::Reg(r);
                }
                resolve(r)
            });
            if *i != before {
                changed += 1;
            }
        }
        // Simplify conditional branches on known predicates.
        if let ks_ir::Terminator::CondBr {
            pred,
            negate,
            then_t,
            else_t,
        } = b.term
        {
            if let Some(Operand::ImmI(v)) = known.get(&pred) {
                let taken = (*v != 0) ^ negate;
                b.term = ks_ir::Terminator::Br {
                    target: if taken { then_t } else { else_t },
                };
                changed += 1;
            }
        }
    }

    // Simplify instructions whose operands are now immediates (fold → mov),
    // and algebraic identities. Which instructions fold is this pass's
    // choice; what they fold to is `ks_ir::eval`'s.
    for b in &mut f.blocks {
        for i in &mut b.insts {
            // (type, destination, source) of the `mov` this becomes.
            let folded = match &*i {
                Inst::Bin { op, ty, dst, a, b } => {
                    let src = match (bits(*ty, a), bits(*ty, b)) {
                        (Some(x), Some(y)) => eval::bin(*op, *ty, x, y).map(|v| imm(*ty, v)),
                        // x + 0, x - 0, x << 0, x >> 0, 0 + x, x * 1, 1 * x
                        _ => match (op, a, b) {
                            (
                                BinOp::Add | BinOp::Sub | BinOp::Shl | BinOp::Shr,
                                x,
                                Operand::ImmI(0),
                            )
                            | (BinOp::Add, Operand::ImmI(0), x)
                            | (BinOp::Mul, x, Operand::ImmI(1))
                            | (BinOp::Mul, Operand::ImmI(1), x) => Some(*x),
                            _ => None,
                        },
                    };
                    src.map(|src| (*ty, *dst, src))
                }
                // `neg` of anything, every other float op but `not`.
                Inst::Un { op, ty, dst, a }
                    if *op == UnOp::Neg || (*ty == Ty::F32 && *op != UnOp::Not) =>
                {
                    bits(*ty, a).map(|x| (*ty, *dst, imm(*ty, eval::un(*op, *ty, x))))
                }
                Inst::Cvt {
                    dst_ty,
                    src_ty,
                    dst,
                    src,
                } => bits(*src_ty, src)
                    .and_then(|x| eval::cvt(*dst_ty, *src_ty, x))
                    .map(|v| (*dst_ty, *dst, imm(*dst_ty, v))),
                _ => None,
            };
            if let Some((ty, dst, src)) = folded {
                let r = Inst::Mov { ty, dst, src };
                if *i != r {
                    *i = r;
                    changed += 1;
                }
            }
        }
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use ks_ir::*;

    fn one_block(f: &mut Function, insts: Vec<Inst>) {
        f.blocks.push(BasicBlock {
            id: BlockId(0),
            insts,
            term: Terminator::Ret,
        });
    }

    fn mk() -> Function {
        Function {
            name: "t".into(),
            params: vec![],
            blocks: vec![],
            vreg_types: vec![],
            shared: vec![],
            local_bytes: 0,
        }
    }

    #[test]
    fn propagates_immediate_through_mov() {
        let mut f = mk();
        let a = f.new_vreg(Ty::S32);
        let b = f.new_vreg(Ty::S32);
        one_block(
            &mut f,
            vec![
                Inst::Mov {
                    ty: Ty::S32,
                    dst: a,
                    src: Operand::ImmI(21),
                },
                Inst::Bin {
                    op: BinOp::Mul,
                    ty: Ty::S32,
                    dst: b,
                    a: a.into(),
                    b: Operand::ImmI(2),
                },
            ],
        );
        while run(&mut f) > 0 {}
        // b's def must now be a mov of 42.
        assert!(f.blocks[0]
            .insts
            .iter()
            .any(|i| matches!(i, Inst::Mov { dst, src: Operand::ImmI(42), .. } if *dst == b)));
    }

    #[test]
    fn known_predicate_kills_branch() {
        let mut f = mk();
        let p = f.new_vreg(Ty::Pred);
        f.blocks.push(BasicBlock {
            id: BlockId(0),
            insts: vec![Inst::Setp {
                cmp: CmpOp::Lt,
                ty: Ty::S32,
                dst: p,
                a: Operand::ImmI(1),
                b: Operand::ImmI(2),
            }],
            term: Terminator::CondBr {
                pred: p,
                negate: false,
                then_t: BlockId(1),
                else_t: BlockId(2),
            },
        });
        f.blocks.push(BasicBlock {
            id: BlockId(1),
            insts: vec![],
            term: Terminator::Ret,
        });
        f.blocks.push(BasicBlock {
            id: BlockId(2),
            insts: vec![],
            term: Terminator::Ret,
        });
        run(&mut f);
        assert_eq!(f.blocks[0].term, Terminator::Br { target: BlockId(1) });
    }

    #[test]
    fn multi_def_registers_not_propagated() {
        let mut f = mk();
        let a = f.new_vreg(Ty::S32);
        let b = f.new_vreg(Ty::S32);
        one_block(
            &mut f,
            vec![
                Inst::Mov {
                    ty: Ty::S32,
                    dst: a,
                    src: Operand::ImmI(1),
                },
                Inst::Mov {
                    ty: Ty::S32,
                    dst: a,
                    src: Operand::ImmI(2),
                },
                Inst::Bin {
                    op: BinOp::Add,
                    ty: Ty::S32,
                    dst: b,
                    a: a.into(),
                    b: a.into(),
                },
            ],
        );
        run(&mut f);
        // The add must still reference the register, not a folded constant.
        assert!(f.blocks[0].insts.iter().any(|i| matches!(
            i,
            Inst::Bin {
                a: Operand::Reg(_),
                ..
            }
        )));
    }

    #[test]
    fn float_and_cvt_folding() {
        let mut f = mk();
        let a = f.new_vreg(Ty::F32);
        let b = f.new_vreg(Ty::S32);
        one_block(
            &mut f,
            vec![
                Inst::Bin {
                    op: BinOp::Mul,
                    ty: Ty::F32,
                    dst: a,
                    a: Operand::ImmF(2.5),
                    b: Operand::ImmF(4.0),
                },
                Inst::Cvt {
                    dst_ty: Ty::S32,
                    src_ty: Ty::F32,
                    dst: b,
                    src: Operand::ImmF(3.7),
                },
            ],
        );
        run(&mut f);
        assert!(f.blocks[0]
            .insts
            .iter()
            .any(|i| matches!(i, Inst::Mov { src: Operand::ImmF(v), .. } if *v == 10.0)));
        assert!(f.blocks[0].insts.iter().any(|i| matches!(
            i,
            Inst::Mov {
                src: Operand::ImmI(3),
                ..
            }
        )));
    }
}
