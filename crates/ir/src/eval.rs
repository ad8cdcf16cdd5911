//! What every IR operation computes — the one scalar definition.
//!
//! Values are the canonical 64-bit register bits the `ks-sim` executor
//! keeps per lane: `s32` sign-extended, `u32` zero-extended, `f32` in the
//! low word, pointers full width, predicates 0 or 1. Integer ops read
//! only the low word of their inputs, so a non-canonical input (an
//! immediate written `0xFFFF_FFFF` under `s32`) computes what the machine
//! computes for it.
//!
//! Everything that needs a value rather than a row calls this module: the
//! constant folder (`ks_opt::constfold`), the symbolic evaluator of
//! `ks-verify`, and the abstract executor of `ks-analysis`. The row
//! kernels in `ks_sim::interp` are the vectorised realisation of the same
//! table; a sweep test in ks-sim pins them to it arm by arm. Where to
//! fold is each caller's policy; what a fold yields is decided here.

use crate::{BinOp, CmpOp, Operand, Ty, UnOp};

#[inline]
fn f32_of(x: u64) -> f32 {
    f32::from_bits(x as u32)
}

#[inline]
fn of_f32(v: f32) -> u64 {
    v.to_bits() as u64
}

/// A 32-bit value sign-extended into a register.
#[inline]
pub fn sext32(v: u32) -> u64 {
    v as i32 as i64 as u64
}

/// Register bits of a 32-bit word loaded as `ty`.
#[inline]
pub fn load_extend(ty: Ty, v: u32) -> u64 {
    match ty {
        Ty::S32 => sext32(v),
        _ => v as u64,
    }
}

/// The displacement operand of pointer arithmetic: a value that fits 32
/// bits came from a 32-bit register and is sign-extended; a full 64-bit
/// value passes through.
#[inline]
pub fn sext_operand(v: u64) -> u64 {
    if v <= u32::MAX as u64 {
        sext32(v as u32)
    } else {
        v
    }
}

/// Register bits of an immediate operand, exactly as the executor
/// materialises it (`None` for a register).
#[inline]
pub fn imm_bits(o: &Operand) -> Option<u64> {
    match o {
        Operand::Reg(_) => None,
        Operand::ImmI(v) => Some(*v as u64),
        Operand::ImmF(v) => Some(of_f32(*v)),
    }
}

/// `x op y` in `ty`. `None` where the executor traps: an integer division
/// or remainder by zero, or an `(op, ty)` pair that does not exist.
#[inline]
pub fn bin(op: BinOp, ty: Ty, x: u64, y: u64) -> Option<u64> {
    Some(match ty {
        Ty::F32 => {
            let (a, b) = (f32_of(x), f32_of(y));
            of_f32(match op {
                BinOp::Add => a + b,
                BinOp::Sub => a - b,
                BinOp::Mul => a * b,
                BinOp::Div => a / b,
                BinOp::Min => a.min(b),
                BinOp::Max => a.max(b),
                _ => return None,
            })
        }
        Ty::U32 | Ty::S32 => {
            let (a, b) = (x as u32, y as u32);
            let (sa, sb) = (a as i32, b as i32);
            let signed = ty == Ty::S32;
            let r = match op {
                BinOp::Add => a.wrapping_add(b),
                BinOp::Sub => a.wrapping_sub(b),
                BinOp::Mul => a.wrapping_mul(b),
                BinOp::Mul24 => (a & 0xFF_FFFF).wrapping_mul(b & 0xFF_FFFF),
                BinOp::Div | BinOp::Rem if b == 0 => return None,
                BinOp::Div if signed => sa.wrapping_div(sb) as u32,
                BinOp::Div => a / b,
                BinOp::Rem if signed => sa.wrapping_rem(sb) as u32,
                BinOp::Rem => a % b,
                BinOp::Min if signed => sa.min(sb) as u32,
                BinOp::Min => a.min(b),
                BinOp::Max if signed => sa.max(sb) as u32,
                BinOp::Max => a.max(b),
                BinOp::And => a & b,
                BinOp::Or => a | b,
                BinOp::Xor => a ^ b,
                BinOp::Shl => a.wrapping_shl(b & 31),
                BinOp::Shr if signed => sa.wrapping_shr(b & 31) as u32,
                BinOp::Shr => a.wrapping_shr(b & 31),
            };
            load_extend(ty, r)
        }
        Ty::Ptr(_) => match op {
            BinOp::Add => x.wrapping_add(sext_operand(y)),
            BinOp::Sub => x.wrapping_sub(sext_operand(y)),
            _ => return None,
        },
        Ty::Pred => {
            let (a, b) = (x != 0, y != 0);
            u64::from(match op {
                BinOp::And => a && b,
                BinOp::Or => a || b,
                BinOp::Xor => a ^ b,
                _ => return None,
            })
        }
    })
}

/// `op x` in `ty`. Total: the executor defines every pair (the float-only
/// ops return an integer's low word re-extended, a predicate's anything
/// but `not` is 0).
#[inline]
pub fn un(op: UnOp, ty: Ty, x: u64) -> u64 {
    match ty {
        Ty::F32 => {
            let a = f32_of(x);
            match op {
                UnOp::Neg => of_f32(-a),
                UnOp::Abs => of_f32(a.abs()),
                UnOp::Sqrt => of_f32(a.sqrt()),
                UnOp::Rsqrt => of_f32(1.0 / a.sqrt()),
                UnOp::Floor => of_f32(a.floor()),
                UnOp::Not => !(x as u32) as u64,
            }
        }
        Ty::Pred => match op {
            UnOp::Not => u64::from(x == 0),
            _ => 0,
        },
        _ => {
            let a = x as u32 as i32;
            let r = match op {
                UnOp::Neg => a.wrapping_neg(),
                UnOp::Not => !a,
                UnOp::Abs => a.wrapping_abs(),
                UnOp::Sqrt | UnOp::Rsqrt | UnOp::Floor => a,
            };
            load_extend(ty, r as u32)
        }
    }
}

/// `x cmp y` in `ty`: floats by IEEE order, `u32` unsigned, `s32` and
/// predicates signed on the low word, pointers unsigned on all 64 bits.
#[inline]
pub fn cmp(op: CmpOp, ty: Ty, x: u64, y: u64) -> bool {
    fn ord<T: PartialOrd>(op: CmpOp, a: T, b: T) -> bool {
        match op {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
        }
    }
    match ty {
        Ty::F32 => ord(op, f32_of(x), f32_of(y)),
        Ty::U32 => ord(op, x as u32, y as u32),
        Ty::Ptr(_) => ord(op, x, y),
        Ty::S32 | Ty::Pred => ord(op, x as u32 as i32, y as u32 as i32),
    }
}

/// `cvt.dst.src x`. `None` when the pair is not a conversion — the
/// executor then copies the bits unchanged.
#[inline]
pub fn cvt(dst: Ty, src: Ty, x: u64) -> Option<u64> {
    Some(match (src, dst) {
        (Ty::S32, Ty::F32) => of_f32(x as u32 as i32 as f32),
        (Ty::U32, Ty::F32) => of_f32(x as u32 as f32),
        (Ty::F32, Ty::S32) => sext32(f32_of(x) as i32 as u32),
        (Ty::F32, Ty::U32) => (f32_of(x) as u32) as u64,
        (Ty::S32, Ty::Ptr(_)) | (Ty::Ptr(_), Ty::S32) => sext32(x as u32),
        (Ty::U32, Ty::Ptr(_)) | (Ty::Ptr(_), Ty::U32) => (x as u32) as u64,
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Space;

    const PTR: Ty = Ty::Ptr(Space::Global);

    #[test]
    fn unsigned_vs_signed_division() {
        let m7 = sext32(-7i32 as u32);
        assert_eq!(bin(BinOp::Div, Ty::S32, m7, 2), Some(sext32(-3i32 as u32)));
        assert_eq!(bin(BinOp::Div, Ty::U32, m7, 2), Some(2147483644));
        assert_eq!(bin(BinOp::Div, Ty::S32, 1, 0), None);
        assert_eq!(bin(BinOp::Rem, Ty::U32, 1, 0), None);
        // i32::MIN / -1 wraps instead of trapping.
        assert_eq!(
            bin(BinOp::Div, Ty::S32, 0x8000_0000, 0xFFFF_FFFF),
            Some(sext32(0x8000_0000))
        );
    }

    #[test]
    fn mul24_masks_operands() {
        assert_eq!(
            bin(BinOp::Mul24, Ty::U32, 0x100_0001, 3),
            Some(3),
            "high bits beyond 24 are ignored"
        );
        assert_eq!(
            bin(BinOp::Mul24, Ty::S32, 0xFF_FFFF, 0xFF_FFFF),
            Some(sext32(0xFE00_0001))
        );
    }

    #[test]
    fn shifts_mask_the_count() {
        assert_eq!(bin(BinOp::Shl, Ty::U32, 1, 33), Some(2));
        assert_eq!(
            bin(BinOp::Shr, Ty::S32, sext32(-8i32 as u32), 1),
            Some(sext32(-4i32 as u32))
        );
        assert_eq!(
            bin(BinOp::Shr, Ty::U32, 0x8000_0000, 31),
            Some(1),
            "logical, not arithmetic"
        );
    }

    #[test]
    fn cmp_respects_signedness() {
        assert!(cmp(CmpOp::Lt, Ty::S32, u64::MAX, 0));
        assert!(!cmp(CmpOp::Lt, Ty::U32, u64::MAX, 0));
        // Pointers compare all 64 bits, unsigned.
        assert!(!cmp(CmpOp::Lt, PTR, u64::MAX, 0));
        assert!(cmp(CmpOp::Lt, PTR, 0xFFFF_FFFF, 0x1_0000_0000));
        assert!(!cmp(CmpOp::Eq, Ty::F32, of_f32(f32::NAN), of_f32(f32::NAN)));
    }

    #[test]
    fn cvt_ptr_truncates_to_32() {
        assert_eq!(cvt(Ty::U32, PTR, 0x1_0000_0004), Some(4));
        assert_eq!(cvt(Ty::S32, PTR, 0x1_8000_0000), Some(sext32(0x8000_0000)));
        // Into a pointer, the source's signedness picks the extension —
        // whatever the upper word of the input held.
        assert_eq!(cvt(PTR, Ty::S32, 0xFFFF_FFFF), Some(u64::MAX));
        assert_eq!(cvt(PTR, Ty::U32, u64::MAX), Some(0xFFFF_FFFF));
        assert_eq!(cvt(Ty::S32, Ty::U32, 7), None, "a reinterpretation");
        assert_eq!(cvt(PTR, PTR, 7), None);
    }

    #[test]
    fn norm_int_round_trips() {
        assert_eq!(load_extend(Ty::S32, 0xFFFF_FFFF), u64::MAX);
        assert_eq!(load_extend(Ty::U32, 0xFFFF_FFFF), 0xFFFF_FFFF);
        assert_eq!(imm_bits(&Operand::ImmI(-1)), Some(u64::MAX));
        assert_eq!(imm_bits(&Operand::ImmF(1.0)), Some(0x3F80_0000));
    }

    #[test]
    fn pointer_displacements_sign_extend_32_bit_values() {
        assert_eq!(bin(BinOp::Add, PTR, 16, 0xFFFF_FFFC), Some(12));
        assert_eq!(bin(BinOp::Sub, PTR, 16, 0xFFFF_FFFC), Some(20));
        assert_eq!(
            bin(BinOp::Add, PTR, 16, 0x1_0000_0000),
            Some(0x1_0000_0010),
            "a 64-bit displacement passes through"
        );
        assert_eq!(bin(BinOp::Mul, PTR, 2, 2), None);
    }

    #[test]
    fn float_min_max_and_unary_edges() {
        let (nan, one) = (of_f32(f32::NAN), of_f32(1.0));
        assert_eq!(bin(BinOp::Min, Ty::F32, nan, one), Some(one));
        assert_eq!(bin(BinOp::Max, Ty::F32, one, nan), Some(one));
        assert_eq!(bin(BinOp::Rem, Ty::F32, one, one), None);
        assert_eq!(un(UnOp::Neg, Ty::F32, of_f32(0.0)), of_f32(-0.0));
        assert_eq!(un(UnOp::Not, Ty::F32, 0), 0xFFFF_FFFF);
        assert_eq!(un(UnOp::Neg, Ty::U32, 1), 0xFFFF_FFFF);
        assert_eq!(un(UnOp::Neg, Ty::S32, 1), u64::MAX);
        assert_eq!(un(UnOp::Abs, Ty::S32, 0x8000_0000), sext32(0x8000_0000));
        assert_eq!(un(UnOp::Floor, Ty::U32, u64::MAX), 0xFFFF_FFFF);
        assert_eq!(un(UnOp::Not, Ty::Pred, 0), 1);
        assert_eq!(un(UnOp::Neg, Ty::Pred, 1), 0);
        assert_eq!(bin(BinOp::Xor, Ty::Pred, 2, 0), Some(1));
        assert_eq!(bin(BinOp::Add, Ty::Pred, 1, 1), None);
    }
}
