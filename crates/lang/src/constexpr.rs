//! Integer constant expressions (C11 6.6): the front end's one evaluator.
//!
//! It folds an [`Expr`] in C's integer types of one width, its only
//! parameter: 64 bits (`intmax_t` / `uintmax_t`) for the controlling
//! expression of `#if` / `#elif` (C11 6.10.1p4), 32 bits (`int` /
//! `unsigned`, the width of every kernel integer) for array dimensions.
//! An expression is typed as the checker types it in a kernel body, so an
//! array dimension is the value the HIR folder computes for the same
//! expression.

use crate::ast::{BinaryOp, Expr, TypeSpec, UnaryOp};

/// Why a constant expression has no value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Undefined {
    DivisionByZero,
    /// `MIN / -1` or `MIN % -1` at 64 bits. At 32 bits the quotient
    /// wraps, as the HIR folder wraps it.
    Overflow,
}

/// Whether an integer literal has an unsigned type at `bits` bits: it is
/// written with a `u` suffix, or it does not fit the signed type. `value`
/// holds the literal's bits, so one of 2^63 or more reads negative.
pub(crate) fn literal_unsigned(value: i64, suffix: bool, bits: u32) -> bool {
    suffix || value >> (bits - 1) != 0
}

/// `e` folded at `bits` bits (32 or 64) and read in its type. `None`
/// when `e` is not an integer constant expression: it has an operand
/// that is not an integer literal, or, at 32 bits, a literal that does
/// not fit 32 bits (C would make it a `long`).
pub(crate) fn eval(e: &Expr, bits: u32) -> Option<Result<i128, Undefined>> {
    let c = fold(e, bits)?;
    Some(c.value.map(|v| match c.unsigned {
        true => i128::from(v),
        false => i128::from(sext(v, bits)),
    }))
}

/// A typed constant: its low `bits` bits, or why it has none.
#[derive(Clone, Copy)]
struct Const {
    value: Result<u64, Undefined>,
    unsigned: bool,
}

fn int(value: Result<u64, Undefined>) -> Const {
    Const {
        value,
        unsigned: false,
    }
}

fn mask(v: u64, bits: u32) -> u64 {
    v & (u64::MAX >> (64 - bits))
}

/// The low `bits` bits of `v` read as a signed number.
fn sext(v: u64, bits: u32) -> i64 {
    ((v << (64 - bits)) as i64) >> (64 - bits)
}

/// The checker's typing: the usual arithmetic conversions, `-` and `~`
/// keep their operand's type, a shift takes its left operand's
/// type, and a comparison or logical operator gives an `int` 0 or 1.
fn fold(e: &Expr, bits: u32) -> Option<Const> {
    Some(match e {
        Expr::IntLit { value, unsigned } => {
            let v = *value as u64;
            if mask(v, bits) != v {
                return None;
            }
            Const {
                value: Ok(v),
                unsigned: literal_unsigned(*value, *unsigned, bits),
            }
        }
        Expr::Unary(UnaryOp::Neg, x) => {
            let c = fold(x, bits)?;
            Const {
                value: c.value.map(|v| mask(v.wrapping_neg(), bits)),
                ..c
            }
        }
        Expr::Unary(UnaryOp::BitNot, x) => {
            let c = fold(x, bits)?;
            Const {
                value: c.value.map(|v| mask(!v, bits)),
                ..c
            }
        }
        Expr::Unary(UnaryOp::LogicalNot, x) => int(fold(x, bits)?.value.map(|v| u64::from(v == 0))),
        Expr::Binary(op, a, b) => binary(*op, fold(a, bits)?, fold(b, bits)?, bits),
        Expr::Cond(c, a, b) => {
            let c = fold(c, bits)?.value;
            let (a, b) = (fold(a, bits)?, fold(b, bits)?);
            Const {
                value: c.and_then(|c| if c != 0 { a.value } else { b.value }),
                unsigned: a.unsigned || b.unsigned,
            }
        }
        Expr::Cast(TypeSpec::Int, x) => int(fold(x, bits)?.value),
        Expr::Cast(TypeSpec::UInt, x) => Const {
            unsigned: true,
            ..fold(x, bits)?
        },
        _ => return None,
    })
}

fn binary(op: BinaryOp, a: Const, b: Const, bits: u32) -> Const {
    use BinaryOp::*;
    let unsigned = a.unsigned || b.unsigned;
    // `&&` and `||` are decided by an operand whose value settles them,
    // whatever the other one is. `#if` evaluates the left operand first,
    // as C does, so only that one settles before the right is evaluated;
    // for array dimensions either one does, as in the HIR folder.
    let settles = |v: Result<u64, _>| v.is_ok_and(|v| (v != 0) == (op == LogicalOr));
    if matches!(op, LogicalAnd | LogicalOr)
        && (settles(a.value) || (bits == 32 && settles(b.value)))
    {
        return int(Ok(u64::from(op == LogicalOr)));
    }
    let value = a.value.and_then(|x| {
        let y = b.value?;
        let (sx, sy) = (sext(x, bits), sext(y, bits));
        let order = match unsigned {
            true => x.cmp(&y),
            false => sx.cmp(&sy),
        };
        // A shift count is taken modulo the width, as the machine does.
        let shift = (y & u64::from(bits - 1)) as u32;
        Ok(mask(
            match op {
                Add => x.wrapping_add(y),
                Sub => x.wrapping_sub(y),
                Mul => x.wrapping_mul(y),
                Div | Rem if y == 0 => return Err(Undefined::DivisionByZero),
                Div if unsigned => x / y,
                Rem if unsigned => x % y,
                Div => sx.checked_div(sy).ok_or(Undefined::Overflow)? as u64,
                Rem => sx.checked_rem(sy).ok_or(Undefined::Overflow)? as u64,
                Shl => x << shift,
                Shr if a.unsigned => x >> shift,
                Shr => (sx >> shift) as u64,
                BitAnd => x & y,
                BitXor => x ^ y,
                BitOr => x | y,
                LogicalAnd => u64::from(x != 0 && y != 0),
                LogicalOr => u64::from(x != 0 || y != 0),
                Lt => u64::from(order.is_lt()),
                Le => u64::from(order.is_le()),
                Gt => u64::from(order.is_gt()),
                Ge => u64::from(order.is_ge()),
                Eq => u64::from(order.is_eq()),
                Ne => u64::from(order.is_ne()),
            },
            bits,
        ))
    });
    let unsigned = match op {
        Shl | Shr => a.unsigned,
        Lt | Le | Gt | Ge | Eq | Ne | LogicalAnd | LogicalOr => false,
        _ => unsigned,
    };
    Const { value, unsigned }
}
