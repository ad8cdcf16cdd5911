//! Instruction set: operands, opcodes, terminators.

use crate::module::BlockId;
use crate::types::{Space, Ty};
use std::fmt;

/// A virtual register. Physical assignment happens in `ks-sim::regalloc`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VReg(pub u32);

impl fmt::Display for VReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "%r{}", self.0)
    }
}

/// An instruction operand: a virtual register or an immediate.
///
/// Immediates are what specialization is all about — a specialized kernel
/// replaces parameter loads and computed strides with `ImmI`/`ImmF` values
/// baked into the instruction stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Operand {
    Reg(VReg),
    /// Integer immediate; also used for pointer immediates (specialized
    /// `PTR_IN`-style constants, stored as the raw 64-bit address).
    ImmI(i64),
    /// Float immediate.
    ImmF(f32),
}

impl From<VReg> for Operand {
    fn from(r: VReg) -> Self {
        Operand::Reg(r)
    }
}

/// Binary arithmetic/logical opcodes. The same opcode is reused across
/// operand types; `Ty` on the instruction disambiguates semantics
/// (e.g. `div.s32` vs `div.u32` vs `div.f32`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    /// 24-bit integer multiply intrinsic (`__[u]mul24`). Fast on CC 1.x,
    /// slower than `*` on CC 2.x — the relative-throughput inversion
    /// discussed in §2.4.
    Mul24,
    Div,
    Rem,
    Min,
    Max,
    And,
    Or,
    Xor,
    Shl,
    Shr,
}

impl BinOp {
    pub fn mnemonic(self) -> &'static str {
        match self {
            BinOp::Add => "add",
            BinOp::Sub => "sub",
            BinOp::Mul => "mul.lo",
            BinOp::Mul24 => "mul24.lo",
            BinOp::Div => "div",
            BinOp::Rem => "rem",
            BinOp::Min => "min",
            BinOp::Max => "max",
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::Xor => "xor",
            BinOp::Shl => "shl",
            BinOp::Shr => "shr",
        }
    }
}

/// Unary opcodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    Neg,
    Not,
    Abs,
    Sqrt,
    /// 1/sqrt(x), single precision.
    Rsqrt,
    /// Round toward -inf (floorf).
    Floor,
}

impl UnOp {
    pub fn mnemonic(self) -> &'static str {
        match self {
            UnOp::Neg => "neg",
            UnOp::Not => "not",
            UnOp::Abs => "abs",
            UnOp::Sqrt => "sqrt.rn",
            UnOp::Rsqrt => "rsqrt.approx",
            UnOp::Floor => "cvt.rmi",
        }
    }
}

/// Comparison predicates for `setp`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    pub fn mnemonic(self) -> &'static str {
        match self {
            CmpOp::Eq => "eq",
            CmpOp::Ne => "ne",
            CmpOp::Lt => "lt",
            CmpOp::Le => "le",
            CmpOp::Gt => "gt",
            CmpOp::Ge => "ge",
        }
    }

    /// The predicate with operands swapped (`a < b` ⇔ `b > a`).
    pub fn swapped(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }
}

/// Special (read-only) per-thread registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpecialReg {
    TidX,
    TidY,
    TidZ,
    CtaIdX,
    CtaIdY,
    CtaIdZ,
    NtidX,
    NtidY,
    NtidZ,
    NctaIdX,
    NctaIdY,
    NctaIdZ,
}

impl SpecialReg {
    pub fn name(self) -> &'static str {
        match self {
            SpecialReg::TidX => "%tid.x",
            SpecialReg::TidY => "%tid.y",
            SpecialReg::TidZ => "%tid.z",
            SpecialReg::CtaIdX => "%ctaid.x",
            SpecialReg::CtaIdY => "%ctaid.y",
            SpecialReg::CtaIdZ => "%ctaid.z",
            SpecialReg::NtidX => "%ntid.x",
            SpecialReg::NtidY => "%ntid.y",
            SpecialReg::NtidZ => "%ntid.z",
            SpecialReg::NctaIdX => "%nctaid.x",
            SpecialReg::NctaIdY => "%nctaid.y",
            SpecialReg::NctaIdZ => "%nctaid.z",
        }
    }
}

/// A memory address: optional base register plus a byte offset.
///
/// Fully specialized kernels frequently reduce to `base = %tid`-derived
/// register with a chain of constant offsets — exactly the unrolled
/// base-plus-offset pattern visible in Appendix D.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Address {
    /// Base register holding a byte address (`None` ⇒ absolute `offset`).
    pub base: Option<VReg>,
    /// Byte offset added to the base.
    pub offset: i64,
}

impl Address {
    pub fn reg(base: VReg) -> Self {
        Address {
            base: Some(base),
            offset: 0,
        }
    }

    pub fn reg_off(base: VReg, offset: i64) -> Self {
        Address {
            base: Some(base),
            offset,
        }
    }

    pub fn abs(offset: i64) -> Self {
        Address { base: None, offset }
    }
}

impl fmt::Display for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.base {
            Some(b) if self.offset != 0 => write!(f, "[{}+{}]", b, self.offset),
            Some(b) => write!(f, "[{}]", b),
            None => write!(f, "[{}]", self.offset),
        }
    }
}

/// Non-terminator instructions.
#[derive(Debug, Clone, PartialEq)]
pub enum Inst {
    /// `mov.ty dst, src`
    Mov { ty: Ty, dst: VReg, src: Operand },
    /// `op.ty dst, a, b`
    Bin {
        op: BinOp,
        ty: Ty,
        dst: VReg,
        a: Operand,
        b: Operand,
    },
    /// `op.ty dst, a`
    Un {
        op: UnOp,
        ty: Ty,
        dst: VReg,
        a: Operand,
    },
    /// Fused multiply-add: `mad.ty dst, a, b, c` = a*b + c.
    Mad {
        ty: Ty,
        dst: VReg,
        a: Operand,
        b: Operand,
        c: Operand,
    },
    /// `setp.cmp.ty dst, a, b` — writes a predicate register.
    Setp {
        cmp: CmpOp,
        ty: Ty,
        dst: VReg,
        a: Operand,
        b: Operand,
    },
    /// `selp.ty dst, a, b, pred` — dst = pred ? a : b.
    Selp {
        ty: Ty,
        dst: VReg,
        a: Operand,
        b: Operand,
        pred: VReg,
    },
    /// Type conversion `cvt.dst_ty.src_ty`.
    Cvt {
        dst_ty: Ty,
        src_ty: Ty,
        dst: VReg,
        src: Operand,
    },
    /// `ld.space.ty dst, [addr]`
    Ld {
        space: Space,
        ty: Ty,
        dst: VReg,
        addr: Address,
    },
    /// `st.space.ty [addr], src`
    St {
        space: Space,
        ty: Ty,
        addr: Address,
        src: Operand,
    },
    /// `bar.sync 0` — block-wide barrier.
    Bar,
    /// Read a special register into a regular one.
    Special { dst: VReg, reg: SpecialReg },
    /// Unfiltered 1-D texture fetch from linear memory
    /// (`tex1Dfetch`): `dst = tex[idx]`, where `tex` indexes the module's
    /// texture-reference table and `idx` is an element index.
    Tex {
        ty: Ty,
        dst: VReg,
        tex: u32,
        idx: Operand,
    },
}

impl Inst {
    /// The register this instruction defines, if any.
    pub fn def(&self) -> Option<VReg> {
        match self {
            Inst::Mov { dst, .. }
            | Inst::Bin { dst, .. }
            | Inst::Un { dst, .. }
            | Inst::Mad { dst, .. }
            | Inst::Setp { dst, .. }
            | Inst::Selp { dst, .. }
            | Inst::Cvt { dst, .. }
            | Inst::Ld { dst, .. }
            | Inst::Special { dst, .. }
            | Inst::Tex { dst, .. } => Some(*dst),
            Inst::St { .. } | Inst::Bar => None,
        }
    }

    /// Visit every register this instruction uses (reads).
    pub fn for_each_use(&self, mut f: impl FnMut(VReg)) {
        fn op(o: &Operand, f: &mut impl FnMut(VReg)) {
            if let Operand::Reg(r) = o {
                f(*r)
            }
        }
        match self {
            Inst::Mov { src, .. } => op(src, &mut f),
            Inst::Bin { a, b, .. } => {
                op(a, &mut f);
                op(b, &mut f);
            }
            Inst::Un { a, .. } => op(a, &mut f),
            Inst::Mad { a, b, c, .. } => {
                op(a, &mut f);
                op(b, &mut f);
                op(c, &mut f);
            }
            Inst::Setp { a, b, .. } => {
                op(a, &mut f);
                op(b, &mut f);
            }
            Inst::Selp { a, b, pred, .. } => {
                op(a, &mut f);
                op(b, &mut f);
                f(*pred);
            }
            Inst::Cvt { src, .. } => op(src, &mut f),
            Inst::Ld { addr, .. } => {
                if let Some(b) = addr.base {
                    f(b)
                }
            }
            Inst::St { addr, src, .. } => {
                if let Some(b) = addr.base {
                    f(b)
                }
                op(src, &mut f);
            }
            Inst::Bar => {}
            Inst::Special { .. } => {}
            Inst::Tex { idx, .. } => op(idx, &mut f),
        }
    }

    /// Replace every register *use* (not the def) via the supplied map.
    pub fn map_uses(&mut self, f: &mut impl FnMut(VReg) -> Operand) {
        fn map_op(o: &mut Operand, f: &mut impl FnMut(VReg) -> Operand) {
            if let Operand::Reg(r) = *o {
                *o = f(r);
            }
        }
        // Addresses can only hold registers; a callback returning an
        // immediate folds into the offset when possible.
        fn map_addr(a: &mut Address, f: &mut impl FnMut(VReg) -> Operand) {
            if let Some(b) = a.base {
                match f(b) {
                    Operand::Reg(r) => a.base = Some(r),
                    Operand::ImmI(v) => {
                        a.base = None;
                        a.offset += v;
                    }
                    Operand::ImmF(_) => {} // nonsensical; leave untouched
                }
            }
        }
        match self {
            Inst::Mov { src, .. } => map_op(src, f),
            Inst::Bin { a, b, .. } => {
                map_op(a, f);
                map_op(b, f);
            }
            Inst::Un { a, .. } => map_op(a, f),
            Inst::Mad { a, b, c, .. } => {
                map_op(a, f);
                map_op(b, f);
                map_op(c, f);
            }
            Inst::Setp { a, b, .. } => {
                map_op(a, f);
                map_op(b, f);
            }
            Inst::Selp { a, b, pred, .. } => {
                map_op(a, f);
                map_op(b, f);
                if let Operand::Reg(r) = f(*pred) {
                    *pred = r;
                }
            }
            Inst::Cvt { src, .. } => map_op(src, f),
            Inst::Ld { addr, .. } => map_addr(addr, f),
            Inst::St { addr, src, .. } => {
                map_addr(addr, &mut *f);
                map_op(src, f);
            }
            Inst::Bar => {}
            Inst::Special { .. } => {}
            Inst::Tex { idx, .. } => map_op(idx, f),
        }
    }

    /// True if removing this instruction can change observable behaviour
    /// even when its def is dead.
    pub fn has_side_effect(&self) -> bool {
        matches!(self, Inst::St { .. } | Inst::Bar)
    }
}

/// Block terminators.
#[derive(Debug, Clone, PartialEq)]
pub enum Terminator {
    /// Unconditional branch.
    Br { target: BlockId },
    /// Conditional branch on a predicate register.
    CondBr {
        pred: VReg,
        negate: bool,
        then_t: BlockId,
        else_t: BlockId,
    },
    /// Return from kernel.
    Ret,
}

impl Terminator {
    /// Successor block ids.
    pub fn successors(&self) -> Vec<BlockId> {
        match self {
            Terminator::Br { target } => vec![*target],
            Terminator::CondBr { then_t, else_t, .. } => vec![*then_t, *else_t],
            Terminator::Ret => vec![],
        }
    }

    /// Register used by the terminator, if any.
    pub fn use_reg(&self) -> Option<VReg> {
        match self {
            Terminator::CondBr { pred, .. } => Some(*pred),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn def_and_uses() {
        let i = Inst::Bin {
            op: BinOp::Add,
            ty: Ty::S32,
            dst: VReg(3),
            a: Operand::Reg(VReg(1)),
            b: Operand::ImmI(7),
        };
        assert_eq!(i.def(), Some(VReg(3)));
        let mut uses = vec![];
        i.for_each_use(|r| uses.push(r));
        assert_eq!(uses, vec![VReg(1)]);
    }

    #[test]
    fn store_has_side_effect_and_no_def() {
        let st = Inst::St {
            space: Space::Global,
            ty: Ty::F32,
            addr: Address::reg(VReg(0)),
            src: Operand::ImmF(1.0),
        };
        assert!(st.has_side_effect());
        assert_eq!(st.def(), None);
        let mut uses = vec![];
        st.for_each_use(|r| uses.push(r));
        assert_eq!(uses, vec![VReg(0)]);
    }

    #[test]
    fn map_uses_folds_address_base_to_offset() {
        let mut ld = Inst::Ld {
            space: Space::Global,
            ty: Ty::F32,
            dst: VReg(5),
            addr: Address::reg_off(VReg(2), 16),
        };
        ld.map_uses(&mut |r| {
            assert_eq!(r, VReg(2));
            Operand::ImmI(0x1000)
        });
        match ld {
            Inst::Ld { addr, .. } => {
                assert_eq!(addr.base, None);
                assert_eq!(addr.offset, 0x1000 + 16);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn cmp_swapped() {
        assert_eq!(CmpOp::Lt.swapped(), CmpOp::Gt);
        assert_eq!(CmpOp::Le.swapped(), CmpOp::Ge);
        assert_eq!(CmpOp::Eq.swapped(), CmpOp::Eq);
    }

    #[test]
    fn terminator_successors() {
        let t = Terminator::CondBr {
            pred: VReg(0),
            negate: false,
            then_t: BlockId(1),
            else_t: BlockId(2),
        };
        assert_eq!(t.successors(), vec![BlockId(1), BlockId(2)]);
        assert_eq!(Terminator::Ret.successors(), vec![]);
        assert_eq!(t.use_reg(), Some(VReg(0)));
    }
}
