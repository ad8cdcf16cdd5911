//! Hash-consed symbolic expressions with canonicalizing constructors.
//!
//! Every expression lives in an [`Arena`]; structurally equal expressions
//! get the same [`ExprId`], so semantic comparison of two kernel summaries
//! reduces to integer equality. The smart constructors canonicalize as they
//! build, absorbing exactly the rewrites the optimizer is allowed to do:
//!
//! * constant folding through [`ks_ir::eval`] — the one definition of
//!   what an operation computes, which the constfold pass and the
//!   simulator's executor answer to as well, so folder, validator and
//!   machine cannot disagree about arithmetic; *which* constants fold
//!   mirrors the pass (integer `neg` only, no float `not`, …);
//! * integer/pointer `add`/`sub`/`mul`-by-constant/`shl`-by-constant
//!   normalize into a linear-combination node [`Expr::Lin`] (Σ cᵢ·tᵢ + k,
//!   computed modulo 2³², or 2⁶⁴ for pointers), which identifies
//!   `x*8` ≡ `x<<3` and `(r+16)` ≡ address-folded `[r]+16`;
//! * unsigned division/remainder by powers of two normalize to the
//!   shift/mask form the strength-reduction pass produces;
//! * commutative *integer* operations order their operands by id.
//!
//! Floating-point expressions are folded only when fully constant and are
//! **never** reassociated or reordered: the passes preserve f32 evaluation
//! order exactly, and so does the canonical form.

use ks_ir::{eval, BinOp, CmpOp, Space, SpecialReg, Ty, UnOp};
use std::collections::HashMap;
use std::fmt::Write as _;

/// Interned expression handle. Equal ids ⟺ structurally equal expressions
/// (within one arena).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ExprId(pub u32);

/// Interned name handle (parameter, shared/const declaration, texture).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(pub u32);

/// Bit width of an integer domain: every 32-bit type (s32/u32/pred) shares
/// `W32` — IR add/sub/mul are sign-agnostic at the bit level — and pointer
/// arithmetic is `W64`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Width {
    W32,
    W64,
}

impl Width {
    pub fn of(ty: Ty) -> Width {
        match ty {
            Ty::Ptr(_) => Width::W64,
            _ => Width::W32,
        }
    }

    fn mask(self, v: u64) -> u64 {
        match self {
            Width::W32 => v & 0xFFFF_FFFF,
            Width::W64 => v,
        }
    }
}

/// A canonical symbolic expression node.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Expr {
    /// Integer/pointer constant, stored as canonical bits of its width.
    ConstI {
        w: Width,
        bits: u64,
    },
    /// f32 constant, keyed by bit pattern.
    ConstF(u32),
    /// The run-time value of a named kernel parameter.
    Param(Symbol),
    /// A thread/block special register left symbolic.
    Special(SpecialReg),
    /// Base address of a named shared/const declaration. Addresses into
    /// these windows are expressed relative to the declaration so RE and SK
    /// modules with different allocation sizes still align.
    Base(Space, Symbol),
    /// An unresolved memory read; `version` counts prior may-visible writes
    /// to the space, so reads separated by a potentially aliasing store (or
    /// a barrier, for shared/global) stay distinct.
    Load {
        space: Space,
        ty: Ty,
        addr: ExprId,
        version: u32,
    },
    /// A texture fetch, keyed by texture name.
    Tex {
        tex: Symbol,
        ty: Ty,
        idx: ExprId,
        version: u32,
    },
    /// A register whose definition was never executed on this path (should
    /// not occur in verifier-clean IR; kept so summarization is total).
    Undef(u32),
    Bin {
        op: BinOp,
        ty: Ty,
        a: ExprId,
        b: ExprId,
    },
    Un {
        op: UnOp,
        ty: Ty,
        a: ExprId,
    },
    Cmp {
        cmp: CmpOp,
        ty: Ty,
        a: ExprId,
        b: ExprId,
    },
    Sel {
        ty: Ty,
        pred: ExprId,
        a: ExprId,
        b: ExprId,
    },
    Cvt {
        dst: Ty,
        src: Ty,
        a: ExprId,
    },
    /// Canonical linear combination Σ coeffᵢ·termᵢ + k over one integer
    /// width; terms are sorted by id, coefficients nonzero.
    Lin {
        w: Width,
        terms: Box<[(ExprId, u64)]>,
        k: u64,
    },
}

/// Hash-consing arena.
#[derive(Default)]
pub struct Arena {
    exprs: Vec<Expr>,
    map: HashMap<Expr, ExprId>,
    names: Vec<String>,
    name_map: HashMap<String, Symbol>,
}

impl Arena {
    pub fn new() -> Arena {
        Arena::default()
    }

    pub fn get(&self, id: ExprId) -> &Expr {
        &self.exprs[id.0 as usize]
    }

    pub fn name(&self, s: Symbol) -> &str {
        &self.names[s.0 as usize]
    }

    pub fn symbol(&mut self, name: &str) -> Symbol {
        if let Some(&s) = self.name_map.get(name) {
            return s;
        }
        let s = Symbol(self.names.len() as u32);
        self.names.push(name.to_string());
        self.name_map.insert(name.to_string(), s);
        s
    }

    pub fn intern(&mut self, e: Expr) -> ExprId {
        if let Some(&id) = self.map.get(&e) {
            return id;
        }
        let id = ExprId(self.exprs.len() as u32);
        self.exprs.push(e.clone());
        self.map.insert(e, id);
        id
    }

    // ---- constants ------------------------------------------------------

    /// Integer constant of the given type, normalized to canonical bits.
    pub fn cint(&mut self, ty: Ty, v: i64) -> ExprId {
        let w = Width::of(ty);
        self.cint_w(w, v)
    }

    pub fn cint_w(&mut self, w: Width, v: i64) -> ExprId {
        let bits = w.mask(v as u64);
        self.intern(Expr::ConstI { w, bits })
    }

    pub fn cf32(&mut self, v: f32) -> ExprId {
        self.intern(Expr::ConstF(v.to_bits()))
    }

    /// If `id` is an integer constant, its bits.
    pub fn as_const(&self, id: ExprId) -> Option<u64> {
        match self.get(id) {
            Expr::ConstI { bits, .. } => Some(*bits),
            _ => None,
        }
    }

    pub fn as_const_f(&self, id: ExprId) -> Option<f32> {
        match self.get(id) {
            Expr::ConstF(b) => Some(f32::from_bits(*b)),
            _ => None,
        }
    }

    /// The register a constant of type `ty` occupies, as [`ks_ir::eval`]
    /// takes it: `ConstI` keeps 32-bit values zero-extended, a register
    /// sign-extends `s32`.
    fn reg_bits(ty: Ty, bits: u64) -> u64 {
        match ty {
            Ty::S32 | Ty::U32 | Ty::Pred => eval::load_extend(ty, bits as u32),
            _ => bits,
        }
    }

    // ---- leaves ---------------------------------------------------------

    pub fn param(&mut self, name: &str) -> ExprId {
        let s = self.symbol(name);
        self.intern(Expr::Param(s))
    }

    pub fn special(&mut self, reg: SpecialReg) -> ExprId {
        self.intern(Expr::Special(reg))
    }

    pub fn base(&mut self, space: Space, name: &str) -> ExprId {
        let s = self.symbol(name);
        self.intern(Expr::Base(space, s))
    }

    pub fn undef(&mut self, reg: u32) -> ExprId {
        self.intern(Expr::Undef(reg))
    }

    // ---- linear combinations --------------------------------------------

    /// Decompose an expression into linear parts for width `w`.
    fn lin_parts(&self, id: ExprId, w: Width) -> (Vec<(ExprId, u64)>, u64) {
        match self.get(id) {
            Expr::ConstI { w: cw, bits } if *cw == w => (vec![], *bits),
            Expr::Lin { w: lw, terms, k } if *lw == w => (terms.to_vec(), *k),
            _ => (vec![(id, 1)], 0),
        }
    }

    /// Build the canonical node for a linear combination.
    fn lin_build(&mut self, w: Width, mut terms: Vec<(ExprId, u64)>, k: u64) -> ExprId {
        terms.sort_by_key(|&(t, _)| t);
        let mut merged: Vec<(ExprId, u64)> = Vec::with_capacity(terms.len());
        for (t, c) in terms {
            let c = w.mask(c);
            if c == 0 {
                continue;
            }
            match merged.last_mut() {
                Some((lt, lc)) if *lt == t => {
                    *lc = w.mask(lc.wrapping_add(c));
                }
                _ => merged.push((t, c)),
            }
        }
        merged.retain(|&(_, c)| c != 0);
        let k = w.mask(k);
        if merged.is_empty() {
            return self.intern(Expr::ConstI { w, bits: k });
        }
        if merged.len() == 1 && merged[0].1 == 1 && k == 0 {
            return merged[0].0;
        }
        self.intern(Expr::Lin {
            w,
            terms: merged.into_boxed_slice(),
            k,
        })
    }

    /// Build a canonical linear combination directly (used by address
    /// normalization in the summarizer).
    pub(crate) fn lin_with(&mut self, w: Width, terms: Vec<(ExprId, u64)>, k: u64) -> ExprId {
        self.lin_build(w, terms, k)
    }

    fn lin_add2(&mut self, w: Width, a: ExprId, b: ExprId, negate_b: bool) -> ExprId {
        let (mut ta, ka) = self.lin_parts(a, w);
        let (tb, kb) = self.lin_parts(b, w);
        let kb = if negate_b { kb.wrapping_neg() } else { kb };
        for (t, c) in tb {
            ta.push((t, if negate_b { c.wrapping_neg() } else { c }));
        }
        self.lin_build(w, ta, ka.wrapping_add(kb))
    }

    fn lin_scale(&mut self, w: Width, a: ExprId, c: u64) -> ExprId {
        let (terms, k) = self.lin_parts(a, w);
        let terms = terms
            .into_iter()
            .map(|(t, tc)| (t, tc.wrapping_mul(c)))
            .collect();
        self.lin_build(w, terms, k.wrapping_mul(c))
    }

    /// Absorb a byte offset into an address expression (the `[base+imm]`
    /// form of `Address`), in the base register's own integer domain so the
    /// address-folding pass's rewrite is identity here.
    pub fn addr_offset(&mut self, base: ExprId, base_ty: Ty, offset: i64) -> ExprId {
        if offset == 0 {
            return base;
        }
        let w = Width::of(base_ty);
        let off = self.cint_w(w, offset);
        self.lin_add2(w, base, off, false)
    }

    // ---- operators ------------------------------------------------------

    pub fn bin(&mut self, op: BinOp, ty: Ty, a: ExprId, b: ExprId) -> ExprId {
        // Fully constant → fold, as the pass does.
        if ty.is_integer() || ty.is_ptr() {
            if let (Some(ba), Some(bb)) = (self.as_const(a), self.as_const(b)) {
                let (ra, rb) = (Self::reg_bits(ty, ba), Self::reg_bits(ty, bb));
                if let Some(v) = eval::bin(op, ty, ra, rb) {
                    return self.cint(ty, v as i64);
                }
            }
        }
        if ty == Ty::F32 {
            if let (Some(fa), Some(fb)) = (self.as_const_f(a), self.as_const_f(b)) {
                if let Some(v) = eval::bin(op, ty, fa.to_bits() as u64, fb.to_bits() as u64) {
                    return self.cf32(f32::from_bits(v as u32));
                }
            }
            // Mirror the identities HIR consteval declares as axioms
            // (`x±0.0 ≡ x`, `x*1.0 ≡ x`, `x/1.0 ≡ x`, incl. the -0.0 edge
            // it ignores), so RE and unrolled-SK accumulations align.
            let (fa, fb) = (self.as_const_f(a), self.as_const_f(b));
            match op {
                BinOp::Add => {
                    if fa == Some(0.0) {
                        return b;
                    }
                    if fb == Some(0.0) {
                        return a;
                    }
                }
                BinOp::Sub if fb == Some(0.0) => return a,
                BinOp::Mul => {
                    if fa == Some(1.0) {
                        return b;
                    }
                    if fb == Some(1.0) {
                        return a;
                    }
                }
                BinOp::Div if fb == Some(1.0) => return a,
                _ => {}
            }
            // Floats keep their textual operand order: no reassociation,
            // no commutative sorting.
            return self.intern(Expr::Bin { op, ty, a, b });
        }
        let w = Width::of(ty);
        match op {
            BinOp::Add => return self.lin_add2(w, a, b, false),
            BinOp::Sub => return self.lin_add2(w, a, b, true),
            BinOp::Mul if w == Width::W32 => {
                if let Some(c) = self.as_const(b) {
                    return self.lin_scale(w, a, c);
                }
                if let Some(c) = self.as_const(a) {
                    return self.lin_scale(w, b, c);
                }
            }
            BinOp::Shl if w == Width::W32 => {
                if let Some(c) = self.as_const(b) {
                    return self.lin_scale(w, a, 1u64 << (c & 31));
                }
            }
            // `x >> 0` and `x / 1` are identities both constfold (IR) and
            // consteval (HIR) apply; fold them so mixed-stage summaries
            // align.
            BinOp::Shr if self.as_const(b) == Some(0) => return a,
            BinOp::Div if self.as_const(b) == Some(1) => return a,
            // Unsigned power-of-two division/remainder take the canonical
            // shift/mask form the strength-reduction pass emits.
            BinOp::Div if ty == Ty::U32 => {
                if let Some(c) = self.as_const(b) {
                    if c != 0 && c & (c - 1) == 0 {
                        let k = self.cint(ty, c.trailing_zeros() as i64);
                        return self.bin(BinOp::Shr, ty, a, k);
                    }
                }
            }
            BinOp::Rem if ty == Ty::U32 => {
                if let Some(c) = self.as_const(b) {
                    if c != 0 && c & (c - 1) == 0 {
                        let m = self.cint(ty, (c - 1) as i64);
                        return self.bin(BinOp::And, ty, a, m);
                    }
                }
            }
            _ => {}
        }
        // Remaining commutative integer ops sort their operands.
        let (a, b) = match op {
            BinOp::Mul
            | BinOp::Mul24
            | BinOp::And
            | BinOp::Or
            | BinOp::Xor
            | BinOp::Min
            | BinOp::Max
                if a > b =>
            {
                (b, a)
            }
            _ => (a, b),
        };
        self.intern(Expr::Bin { op, ty, a, b })
    }

    pub fn un(&mut self, op: UnOp, ty: Ty, a: ExprId) -> ExprId {
        if ty == Ty::F32 {
            if let Some(fa) = self.as_const_f(a).filter(|_| op != UnOp::Not) {
                let v = eval::un(op, ty, fa.to_bits() as u64);
                return self.cf32(f32::from_bits(v as u32));
            }
            return self.intern(Expr::Un { op, ty, a });
        }
        if let Some(bits) = self.as_const(a).filter(|_| op == UnOp::Neg) {
            let v = eval::un(op, ty, Self::reg_bits(ty, bits));
            return self.cint(ty, v as i64);
        }
        if op == UnOp::Neg && ty != Ty::Pred {
            let w = Width::of(ty);
            return self.lin_scale(w, a, u64::MAX); // ×(−1 mod 2ʷ)
        }
        self.intern(Expr::Un { op, ty, a })
    }

    pub fn cmp(&mut self, cmp: CmpOp, ty: Ty, a: ExprId, b: ExprId) -> ExprId {
        if ty == Ty::F32 {
            if let (Some(fa), Some(fb)) = (self.as_const_f(a), self.as_const_f(b)) {
                let r = eval::cmp(cmp, ty, fa.to_bits() as u64, fb.to_bits() as u64);
                return self.cint(Ty::U32, i64::from(r));
            }
            return self.intern(Expr::Cmp { cmp, ty, a, b });
        }
        if let (Some(ba), Some(bb)) = (self.as_const(a), self.as_const(b)) {
            let r = eval::cmp(cmp, ty, ba, bb);
            return self.cint(Ty::U32, i64::from(r));
        }
        // Canonical operand order: commutative compares sort, ordered ones
        // swap together with their mirrored operator.
        let (cmp, a, b) = match cmp {
            CmpOp::Eq | CmpOp::Ne if a > b => (cmp, b, a),
            CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge if a > b => (cmp.swapped(), b, a),
            _ => (cmp, a, b),
        };
        self.intern(Expr::Cmp { cmp, ty, a, b })
    }

    pub fn sel(&mut self, ty: Ty, pred: ExprId, a: ExprId, b: ExprId) -> ExprId {
        if let Some(bits) = self.as_const(pred) {
            return if bits != 0 { a } else { b };
        }
        if a == b {
            return a;
        }
        self.intern(Expr::Sel { ty, pred, a, b })
    }

    pub fn cvt(&mut self, dst: Ty, src: Ty, a: ExprId) -> ExprId {
        if dst == src {
            return a;
        }
        // int↔int of the same width is a free bit reinterpretation (the
        // lowering emits no instruction for it either).
        if dst.is_integer() && src.is_integer() {
            return a;
        }
        // A constant of the source's kind converts now.
        let bits = match src {
            Ty::F32 => self.as_const_f(a).map(|f| f.to_bits() as u64),
            _ => self.as_const(a).map(|bits| Self::reg_bits(src, bits)),
        };
        if let Some(v) = bits.and_then(|x| eval::cvt(dst, src, x)) {
            return match dst {
                Ty::F32 => self.cf32(f32::from_bits(v as u32)),
                _ => self.cint(dst, v as i64),
            };
        }
        self.intern(Expr::Cvt { dst, src, a })
    }

    // ---- rendering ------------------------------------------------------

    /// Human-readable rendering (depth-capped) for diagnostics.
    pub fn render(&self, id: ExprId) -> String {
        let mut s = String::new();
        self.render_into(id, 8, &mut s);
        s
    }

    fn render_into(&self, id: ExprId, depth: u32, out: &mut String) {
        if depth == 0 {
            out.push('…');
            return;
        }
        match self.get(id) {
            Expr::ConstI { w, bits } => {
                let v = match w {
                    Width::W32 => *bits as u32 as i32 as i64,
                    Width::W64 => *bits as i64,
                };
                let _ = write!(out, "{v}");
            }
            Expr::ConstF(b) => {
                let _ = write!(out, "{:?}f", f32::from_bits(*b));
            }
            Expr::Param(s) => {
                let _ = write!(out, "%{}", self.name(*s));
            }
            Expr::Special(r) => {
                let _ = write!(out, "{r:?}");
            }
            Expr::Base(space, s) => {
                let _ = write!(out, "&{space}:{}", self.name(*s));
            }
            Expr::Undef(r) => {
                let _ = write!(out, "undef(%r{r})");
            }
            Expr::Load {
                space,
                addr,
                version,
                ..
            } => {
                let _ = write!(out, "{space}[");
                self.render_into(*addr, depth - 1, out);
                let _ = write!(out, "]@{version}");
            }
            Expr::Tex {
                tex, idx, version, ..
            } => {
                let _ = write!(out, "tex:{}(", self.name(*tex));
                self.render_into(*idx, depth - 1, out);
                let _ = write!(out, ")@{version}");
            }
            Expr::Bin { op, a, b, .. } => {
                let _ = write!(out, "({op:?} ");
                self.render_into(*a, depth - 1, out);
                out.push(' ');
                self.render_into(*b, depth - 1, out);
                out.push(')');
            }
            Expr::Un { op, a, .. } => {
                let _ = write!(out, "({op:?} ");
                self.render_into(*a, depth - 1, out);
                out.push(')');
            }
            Expr::Cmp { cmp, a, b, .. } => {
                let _ = write!(out, "({cmp:?} ");
                self.render_into(*a, depth - 1, out);
                out.push(' ');
                self.render_into(*b, depth - 1, out);
                out.push(')');
            }
            Expr::Sel { pred, a, b, .. } => {
                out.push_str("(sel ");
                self.render_into(*pred, depth - 1, out);
                out.push(' ');
                self.render_into(*a, depth - 1, out);
                out.push(' ');
                self.render_into(*b, depth - 1, out);
                out.push(')');
            }
            Expr::Cvt { dst, src, a } => {
                let _ = write!(out, "(cvt.{dst}.{src} ");
                self.render_into(*a, depth - 1, out);
                out.push(')');
            }
            Expr::Lin { w, terms, k } => {
                out.push('(');
                for (i, (t, c)) in terms.iter().enumerate() {
                    if i > 0 {
                        out.push_str(" + ");
                    }
                    let cv = match w {
                        Width::W32 => *c as u32 as i32 as i64,
                        Width::W64 => *c as i64,
                    };
                    if cv != 1 {
                        let _ = write!(out, "{cv}*");
                    }
                    self.render_into(*t, depth - 1, out);
                }
                let kv = match w {
                    Width::W32 => *k as u32 as i32 as i64,
                    Width::W64 => *k as i64,
                };
                if kv != 0 || terms.is_empty() {
                    let _ = write!(out, " + {kv}");
                }
                out.push(')');
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_consing_dedupes() {
        let mut a = Arena::new();
        let x = a.param("x");
        let c1 = a.cint(Ty::S32, 5);
        let c2 = a.cint(Ty::U32, 5);
        assert_eq!(c1, c2, "s32 5 and u32 5 share canonical bits");
        let e1 = a.bin(BinOp::Add, Ty::S32, x, c1);
        let e2 = a.bin(BinOp::Add, Ty::S32, x, c2);
        assert_eq!(e1, e2);
    }

    #[test]
    fn mul_pow2_equals_shl() {
        let mut a = Arena::new();
        let x = a.param("x");
        let eight = a.cint(Ty::S32, 8);
        let three = a.cint(Ty::S32, 3);
        let mul = a.bin(BinOp::Mul, Ty::S32, x, eight);
        let shl = a.bin(BinOp::Shl, Ty::S32, x, three);
        assert_eq!(mul, shl, "strength reduction must be identity here");
    }

    #[test]
    fn udiv_pow2_equals_shr_and_rem_equals_and() {
        let mut a = Arena::new();
        let x = a.param("x");
        let c32 = a.cint(Ty::U32, 32);
        let five = a.cint(Ty::U32, 5);
        let div = a.bin(BinOp::Div, Ty::U32, x, c32);
        let shr = a.bin(BinOp::Shr, Ty::U32, x, five);
        assert_eq!(div, shr);
        let mask = a.cint(Ty::U32, 31);
        let rem = a.bin(BinOp::Rem, Ty::U32, x, c32);
        let and = a.bin(BinOp::And, Ty::U32, x, mask);
        assert_eq!(rem, and);
    }

    #[test]
    fn signed_div_stays_opaque() {
        let mut a = Arena::new();
        let x = a.param("x");
        let two = a.cint(Ty::S32, 2);
        let one = a.cint(Ty::S32, 1);
        let div = a.bin(BinOp::Div, Ty::S32, x, two);
        let shr = a.bin(BinOp::Shr, Ty::S32, x, one);
        assert_ne!(div, shr, "signed division must not strength-reduce");
    }

    #[test]
    fn add_assoc_comm_and_identity() {
        let mut a = Arena::new();
        let x = a.param("x");
        let y = a.param("y");
        let one = a.cint(Ty::S32, 1);
        let two = a.cint(Ty::S32, 2);
        // (x + 1) + (y + 2)  ==  (y + (x + 3))
        let l = a.bin(BinOp::Add, Ty::S32, x, one);
        let r = a.bin(BinOp::Add, Ty::S32, y, two);
        let lr = a.bin(BinOp::Add, Ty::S32, l, r);
        let three = a.cint(Ty::S32, 3);
        let x3 = a.bin(BinOp::Add, Ty::S32, x, three);
        let alt = a.bin(BinOp::Add, Ty::S32, y, x3);
        assert_eq!(lr, alt);
        // x + 0 == x ; x * 1 == x
        let zero = a.cint(Ty::S32, 0);
        assert_eq!(a.bin(BinOp::Add, Ty::S32, x, zero), x);
        assert_eq!(a.bin(BinOp::Mul, Ty::S32, x, one), x);
        // x - x == 0
        assert_eq!(a.bin(BinOp::Sub, Ty::S32, x, x), zero);
    }

    #[test]
    fn const_multiplier_distributes() {
        let mut a = Arena::new();
        let x = a.param("x");
        let four = a.cint(Ty::S32, 4);
        let one = a.cint(Ty::S32, 1);
        // (x + 1) * 4  ==  4x + 4  ==  (x*4) + 4
        let xp1 = a.bin(BinOp::Add, Ty::S32, x, one);
        let l = a.bin(BinOp::Mul, Ty::S32, xp1, four);
        let x4 = a.bin(BinOp::Mul, Ty::S32, x, four);
        let r = a.bin(BinOp::Add, Ty::S32, x4, four);
        assert_eq!(l, r);
    }

    #[test]
    fn floats_do_not_reassociate() {
        let mut a = Arena::new();
        let x = a.param("x");
        let y = a.param("y");
        let z = a.param("z");
        let xy = a.bin(BinOp::Add, Ty::F32, x, y);
        let l = a.bin(BinOp::Add, Ty::F32, xy, z);
        let yz = a.bin(BinOp::Add, Ty::F32, y, z);
        let r = a.bin(BinOp::Add, Ty::F32, x, yz);
        assert_ne!(l, r, "f32 addition must stay ordered");
    }

    #[test]
    fn const_folding_matches_pass_semantics() {
        let mut a = Arena::new();
        let m7 = a.cint(Ty::U32, -7);
        let two = a.cint(Ty::U32, 2);
        let div = a.bin(BinOp::Div, Ty::U32, m7, two);
        assert_eq!(a.as_const(div), Some(2147483644));
        // division by zero stays symbolic rather than folding
        let zero = a.cint(Ty::S32, 0);
        let one = a.cint(Ty::S32, 1);
        let dz = a.bin(BinOp::Div, Ty::S32, one, zero);
        assert!(a.as_const(dz).is_none());
    }

    #[test]
    fn cmp_canonicalizes_swapped_operands() {
        let mut a = Arena::new();
        let x = a.param("x");
        let y = a.param("y");
        let l = a.cmp(CmpOp::Lt, Ty::S32, x, y);
        let g = a.cmp(CmpOp::Gt, Ty::S32, y, x);
        assert_eq!(l, g);
    }

    #[test]
    fn addr_offset_absorbs_into_lin() {
        let mut a = Arena::new();
        let base = a.param("ptr");
        let sixteen = a.cint(Ty::Ptr(Space::Global), 16);
        // add r2, r1, 16 ; ld [r2]   ≡   ld [r1+16]
        let r2 = a.bin(BinOp::Add, Ty::Ptr(Space::Global), base, sixteen);
        let folded = a.addr_offset(base, Ty::Ptr(Space::Global), 16);
        assert_eq!(r2, folded);
    }
}
