//! Random straight-line functions for the new-vs-reference property
//! tests of CSE and DCE. Drawn from deliberately small pools — `regs`
//! registers, two immediates, a handful of addresses — so blocks are
//! full of repeated expressions, register *re*definitions and self-uses
//! (`r = r + 1`; registers are not SSA), with stores to each space,
//! barriers, loads and texture fetches in between, and run well past
//! three reuse windows. A small pool makes CSE hit; a large one leaves
//! registers unread, so DCE has chains to kill.

use ks_ir::*;
use proptest::prelude::*;

/// Raw draw for one instruction: (shape, dst, a, b, misc).
type Raw = (u8, u32, u32, u32, u8);

struct Pool {
    regs: u32,
}

impl Pool {
    /// The one predicate register (`Selp` selectors, `CondBr` predicates).
    fn pred(&self) -> VReg {
        VReg(self.regs)
    }

    fn reg(&self, x: u32) -> VReg {
        VReg(x % self.regs)
    }

    fn operand(&self, x: u32) -> Operand {
        // Two thirds registers, one third a small immediate.
        match x % 6 {
            0..=3 => self.reg(x / 6).into(),
            4 => Operand::ImmI(1),
            _ => Operand::ImmI(4),
        }
    }

    fn address(&self, x: u32) -> Address {
        match x % 4 {
            0 => Address::abs(0),
            1 => Address::abs(4),
            2 => Address::reg(self.reg(x / 4)),
            _ => Address::reg_off(self.reg(x / 4), 4),
        }
    }

    fn inst(&self, (shape, dst, a, b, misc): Raw) -> Inst {
        let ty = Ty::S32;
        let dst = self.reg(dst);
        let space = [Space::Global, Space::Shared, Space::Local][misc as usize % 3];
        match shape {
            0..=4 => Inst::Bin {
                op: if misc % 2 == 0 {
                    BinOp::Add
                } else {
                    BinOp::Mul
                },
                ty,
                dst,
                a: self.operand(a),
                b: self.operand(b),
            },
            // `r = r + 1`: defines what it reads.
            5 => Inst::Bin {
                op: BinOp::Add,
                ty,
                dst,
                a: dst.into(),
                b: Operand::ImmI(1),
            },
            6 => Inst::Mov {
                ty,
                dst,
                src: self.operand(a),
            },
            7 => Inst::Un {
                op: UnOp::Neg,
                ty,
                dst,
                a: self.operand(a),
            },
            8 => Inst::Mad {
                ty,
                dst,
                a: self.operand(a),
                b: self.operand(b),
                c: self.operand(a / 36),
            },
            9 => Inst::Setp {
                cmp: CmpOp::Lt,
                ty,
                dst: self.pred(),
                a: self.operand(a),
                b: self.operand(b),
            },
            10 => Inst::Selp {
                ty,
                dst,
                a: self.operand(a),
                b: self.operand(b),
                pred: self.pred(),
            },
            11 => Inst::Cvt {
                dst_ty: Ty::F32,
                src_ty: ty,
                dst,
                src: self.operand(a),
            },
            12 => Inst::Special {
                dst,
                reg: [SpecialReg::TidX, SpecialReg::CtaIdX][misc as usize % 2],
            },
            13 | 14 => Inst::Ld {
                space: [space, Space::Param, Space::Const][a as usize % 3],
                ty,
                dst,
                addr: self.address(b),
            },
            15 => Inst::Tex {
                ty,
                dst,
                tex: misc as u32 % 2,
                idx: self.operand(a),
            },
            16 | 17 => Inst::St {
                space,
                ty,
                addr: self.address(b),
                src: self.operand(a),
            },
            _ => Inst::Bar,
        }
    }
}

/// One to three blocks of 0–120 instructions over `regs` registers,
/// chained by conditional branches on the predicate register so
/// terminator uses exist too.
pub fn function(regs: u32) -> impl Strategy<Value = Function> {
    let raw = (0u8..19, 0u32..regs, 0u32..7200, 0u32..7200, 0u8..6);
    let block = prop::collection::vec(raw, 0..120);
    prop::collection::vec(block, 1..4).prop_map(move |blocks| {
        let pool = Pool { regs };
        let n = blocks.len() as u32;
        Function {
            name: "t".into(),
            params: vec![],
            blocks: blocks
                .into_iter()
                .enumerate()
                .map(|(id, raws)| BasicBlock {
                    id: BlockId(id as u32),
                    insts: raws.into_iter().map(|r| pool.inst(r)).collect(),
                    term: if id as u32 + 1 < n {
                        Terminator::CondBr {
                            pred: pool.pred(),
                            negate: false,
                            then_t: BlockId(id as u32 + 1),
                            else_t: BlockId(n - 1),
                        }
                    } else {
                        Terminator::Ret
                    },
                })
                .collect(),
            vreg_types: (0..regs).map(|_| Ty::S32).chain([Ty::Pred]).collect(),
            shared: vec![],
            local_bytes: 0,
        }
    })
}
