//! The one HIR → IR mapping: which type and which instruction each HIR
//! node lowers to, and the bits a literal puts into a register.
//!
//! The lowering emits through these functions, and the folder and the
//! unroller ask `ks_ir::eval` what the emitted instruction computes on
//! those bits, so a compile-time value is always the value the machine
//! would have computed.

use ks_ir::{eval, BinOp, CmpOp, Space, Ty, UnOp};
use ks_lang::hir::*;

pub(crate) const PTR: Ty = Ty::Ptr(Space::Global);

pub(crate) fn ir_ty(t: HTy) -> Ty {
    match t {
        HTy::Int => Ty::S32,
        HTy::UInt => Ty::U32,
        HTy::Float => Ty::F32,
        HTy::Bool => Ty::Pred,
        HTy::Ptr(_) => PTR,
    }
}

pub(crate) fn elem_ty(e: Elem) -> Ty {
    ir_ty(HTy::from_elem(e))
}

pub(crate) fn bin_op(op: HBinOp) -> BinOp {
    match op {
        HBinOp::Add => BinOp::Add,
        HBinOp::Sub => BinOp::Sub,
        HBinOp::Mul => BinOp::Mul,
        HBinOp::Div => BinOp::Div,
        HBinOp::Rem => BinOp::Rem,
        HBinOp::Shl => BinOp::Shl,
        HBinOp::Shr => BinOp::Shr,
        HBinOp::And => BinOp::And,
        HBinOp::Or => BinOp::Or,
        HBinOp::Xor => BinOp::Xor,
    }
}

pub(crate) fn cmp_op(c: HCmp) -> CmpOp {
    match c {
        HCmp::Eq => CmpOp::Eq,
        HCmp::Ne => CmpOp::Ne,
        HCmp::Lt => CmpOp::Lt,
        HCmp::Le => CmpOp::Le,
        HCmp::Gt => CmpOp::Gt,
        HCmp::Ge => CmpOp::Ge,
    }
}

pub(crate) fn un_op(op: HUnOp) -> UnOp {
    match op {
        HUnOp::Neg => UnOp::Neg,
        HUnOp::BitNot => UnOp::Not,
    }
}

/// The instruction a builtin call lowers to; it runs in the call's type.
pub(crate) enum Builtin {
    Un(UnOp),
    Bin(BinOp),
}

pub(crate) fn builtin(f: BuiltinFn) -> Builtin {
    match f {
        BuiltinFn::Sqrtf => Builtin::Un(UnOp::Sqrt),
        BuiltinFn::Rsqrtf => Builtin::Un(UnOp::Rsqrt),
        BuiltinFn::Fabsf | BuiltinFn::AbsI => Builtin::Un(UnOp::Abs),
        BuiltinFn::Floorf => Builtin::Un(UnOp::Floor),
        BuiltinFn::Fminf | BuiltinFn::MinI | BuiltinFn::MinU => Builtin::Bin(BinOp::Min),
        BuiltinFn::Fmaxf | BuiltinFn::MaxI | BuiltinFn::MaxU => Builtin::Bin(BinOp::Max),
        BuiltinFn::Mul24 | BuiltinFn::UMul24 => Builtin::Bin(BinOp::Mul24),
    }
}

/// Register bits of a literal, as the immediate the lowering writes for
/// it puts them there (`None` for anything else).
pub(crate) fn bits(e: &HExpr) -> Option<u64> {
    match e {
        HExpr::IntLit { value, .. } => Some(*value as u64),
        HExpr::FloatLit(v) => Some(v.to_bits() as u64),
        _ => None,
    }
}

/// The literal of type `ty` that holds `bits`.
pub(crate) fn lit(ty: HTy, bits: u64) -> HExpr {
    match ty {
        HTy::Float => HExpr::FloatLit(f32::from_bits(bits as u32)),
        _ => HExpr::IntLit {
            value: bits as i64,
            ty,
        },
    }
}

/// Byte offset of element `index` of `size`-byte elements: the `mul.s32`
/// the register form of an index emits.
pub(crate) fn byte_offset(index: u64, size: u32) -> Option<u64> {
    eval::bin(BinOp::Mul, Ty::S32, index, size.into())
}

/// `ptr + offset` elements: the scaled offset added to the pointer.
pub(crate) fn ptr_add(ptr: u64, offset: u64, elem: Elem) -> Option<u64> {
    eval::bin(
        BinOp::Add,
        PTR,
        ptr,
        byte_offset(offset, elem.size_bytes())?,
    )
}

/// How a cast lowers.
pub(crate) enum Cast {
    /// The same register type, or int ↔ uint: the value is reused as is.
    Free,
    /// Out of a `bool`: a `selp` of 1 / 0 (1.0 / 0.0 into a float).
    Selp,
    /// A `cvt`, which copies the bits where the pair is no conversion.
    Cvt,
}

pub(crate) fn cast(from: HTy, to: HTy) -> Cast {
    match (from, to) {
        _ if ir_ty(from) == ir_ty(to) => Cast::Free,
        (HTy::Int, HTy::UInt) | (HTy::UInt, HTy::Int) => Cast::Free,
        (HTy::Bool, HTy::Int | HTy::UInt | HTy::Float) => Cast::Selp,
        _ => Cast::Cvt,
    }
}
