//! Constant folding & propagation on the typed HIR, plus static guard
//! elimination. These fire only where operands are literal — which, for a
//! specialized kernel, is exactly where `-D` defines substituted values.
//!
//! A fold computes nothing itself: it takes the literals' register bits,
//! asks `ks_ir::eval` what the instruction the lowering would emit for the
//! node yields on them, and turns the answer back into a literal. Where
//! the executor would trap (a division by zero), the node is left alone.

use crate::mapping::{
    bin_op, bits, builtin, cast, cmp_op, ir_ty, lit, ptr_add, un_op, Builtin, Cast,
};
use ks_ir::fxhash::{FxHashMap, FxHashSet};
use ks_ir::{eval, BinOp, CmpOp, Ty};
use ks_lang::hir::*;

/// Extract a constant integer (Int/UInt/Bool literal).
pub(crate) fn const_int(e: &HExpr) -> Option<i64> {
    match e {
        HExpr::IntLit { value, .. } => Some(*value),
        _ => None,
    }
}

fn bool_lit(v: bool) -> HExpr {
    lit(HTy::Bool, u64::from(v))
}

/// `a op b` in `ty` when both are literals; `None` also where the
/// executor would trap (a division by zero), which is not folded.
fn eval_pair(op: BinOp, ty: HTy, a: &HExpr, b: &HExpr) -> Option<u64> {
    eval::bin(op, ir_ty(ty), bits(a)?, bits(b)?)
}

/// Is an integer literal equal to `v`?
fn is_int(e: &HExpr, v: i64) -> bool {
    matches!(e, HExpr::IntLit { value, .. } if *value == v)
}

fn is_float(e: &HExpr, v: f32) -> bool {
    matches!(e, HExpr::FloatLit(x) if *x == v)
}

/// Known-constant values of scalar locals at a program point.
pub(crate) type ConstEnv = FxHashMap<LocalId, HExpr>;

/// Fold one expression bottom-up, substituting locals with known constant
/// values. This is constant *propagation*: `const uint stride = ARG_A *
/// ARG_B;` followed by uses of `stride` folds completely when the `ARG_*`
/// macros were specialized.
pub(crate) fn fold_expr_env(e: &HExpr, env: &ConstEnv) -> HExpr {
    match e {
        HExpr::Local(id, _) => match env.get(id) {
            Some(lit) => lit.clone(),
            None => e.clone(),
        },
        HExpr::IntLit { .. } | HExpr::FloatLit(_) | HExpr::Param(..) | HExpr::Builtin(..) => {
            e.clone()
        }
        HExpr::Unary(op, ty, x) => {
            let x = fold_expr_env(x, env);
            match bits(&x) {
                Some(v) => lit(*ty, eval::un(un_op(*op), ir_ty(*ty), v)),
                None => HExpr::Unary(*op, *ty, Box::new(x)),
            }
        }
        HExpr::Binary(op, ty, a, b) => {
            let a = fold_expr_env(a, env);
            let b = fold_expr_env(b, env);
            if let Some(v) = eval_pair(bin_op(*op), *ty, &a, &b) {
                return lit(*ty, v);
            }
            // Algebraic identities (loads in HIR are pure, so dropping an
            // operand is sound).
            match op {
                HBinOp::Add => {
                    if is_int(&a, 0) || is_float(&a, 0.0) {
                        return b;
                    }
                    if is_int(&b, 0) || is_float(&b, 0.0) {
                        return a;
                    }
                }
                HBinOp::Sub if (is_int(&b, 0) || is_float(&b, 0.0)) => {
                    return a;
                }
                HBinOp::Mul => {
                    if is_int(&a, 1) || is_float(&a, 1.0) {
                        return b;
                    }
                    if is_int(&b, 1) || is_float(&b, 1.0) {
                        return a;
                    }
                    if (is_int(&a, 0) || is_int(&b, 0)) && *ty != HTy::Float {
                        return HExpr::IntLit { value: 0, ty: *ty };
                    }
                }
                HBinOp::Div if (is_int(&b, 1) || is_float(&b, 1.0)) => {
                    return a;
                }
                HBinOp::Shl | HBinOp::Shr if is_int(&b, 0) => {
                    return a;
                }
                _ => {}
            }
            HExpr::Binary(*op, *ty, Box::new(a), Box::new(b))
        }
        HExpr::Cmp(op, ty, a, b) => {
            let a = fold_expr_env(a, env);
            let b = fold_expr_env(b, env);
            match (bits(&a), bits(&b)) {
                (Some(x), Some(y)) => bool_lit(eval::cmp(cmp_op(*op), ir_ty(*ty), x, y)),
                _ => HExpr::Cmp(*op, *ty, Box::new(a), Box::new(b)),
            }
        }
        HExpr::LogAnd(a, b) => {
            let a = fold_expr_env(a, env);
            let b = fold_expr_env(b, env);
            match (const_int(&a), const_int(&b)) {
                (Some(0), _) | (_, Some(0)) => bool_lit(false),
                (Some(_), Some(_)) => bool_lit(true),
                (Some(x), None) if x != 0 => b,
                (None, Some(x)) if x != 0 => a,
                _ => HExpr::LogAnd(Box::new(a), Box::new(b)),
            }
        }
        HExpr::LogOr(a, b) => {
            let a = fold_expr_env(a, env);
            let b = fold_expr_env(b, env);
            match (const_int(&a), const_int(&b)) {
                (Some(x), _) if x != 0 => bool_lit(true),
                (_, Some(x)) if x != 0 => bool_lit(true),
                (Some(0), Some(0)) => bool_lit(false),
                (Some(0), None) => b,
                (None, Some(0)) => a,
                _ => HExpr::LogOr(Box::new(a), Box::new(b)),
            }
        }
        HExpr::LogNot(a) => {
            let a = fold_expr_env(a, env);
            match const_int(&a) {
                Some(v) => bool_lit(v == 0),
                None => HExpr::LogNot(Box::new(a)),
            }
        }
        HExpr::Cond(c, a, b, ty) => {
            let c = fold_expr_env(c, env);
            let a = fold_expr_env(a, env);
            let b = fold_expr_env(b, env);
            match const_int(&c) {
                Some(0) => b,
                Some(_) => a,
                None => HExpr::Cond(Box::new(c), Box::new(a), Box::new(b), *ty),
            }
        }
        HExpr::Load(p, ty) => HExpr::Load(fold_place_env(p, env), *ty),
        HExpr::ConstElem(id, idx, elem) => {
            HExpr::ConstElem(*id, Box::new(fold_expr_env(idx, env)), *elem)
        }
        HExpr::TexFetch(id, idx, elem) => {
            HExpr::TexFetch(*id, Box::new(fold_expr_env(idx, env)), *elem)
        }
        HExpr::Call(f, args, ty) => {
            let args: Vec<HExpr> = args.iter().map(|a| fold_expr_env(a, env)).collect();
            let folded = match (builtin(*f), args.as_slice()) {
                (Builtin::Un(op), [a]) => bits(a).map(|x| eval::un(op, ir_ty(*ty), x)),
                (Builtin::Bin(op), [a, b]) => eval_pair(op, *ty, a, b),
                _ => None,
            };
            match folded {
                Some(v) => lit(*ty, v),
                None => HExpr::Call(*f, args, *ty),
            }
        }
        HExpr::Cast { to, from, val } => {
            let v = fold_expr_env(val, env);
            let Some(x) = bits(&v) else {
                return HExpr::Cast {
                    to: *to,
                    from: *from,
                    val: Box::new(v),
                };
            };
            let v = match cast(*from, *to) {
                Cast::Free => x,
                Cast::Selp => {
                    let one = if *to == HTy::Float {
                        1f32.to_bits().into()
                    } else {
                        1
                    };
                    if eval::cmp(CmpOp::Ne, Ty::S32, x, 0) {
                        one
                    } else {
                        0
                    }
                }
                Cast::Cvt => eval::cvt(ir_ty(*to), ir_ty(*from), x).unwrap_or(x),
            };
            lit(*to, v)
        }
        HExpr::PtrAdd { ptr, offset, elem } => {
            let p = fold_expr_env(ptr, env);
            let o = fold_expr_env(offset, env);
            if is_int(&o, 0) {
                return p;
            }
            // (p + c1) + c2 → p + (c1+c2) happens naturally after IR-level
            // address folding; here fold literal pointer + literal offset.
            match bits(&p)
                .zip(bits(&o))
                .and_then(|(x, y)| ptr_add(x, y, *elem))
            {
                Some(v) => lit(e.ty(), v),
                None => HExpr::PtrAdd {
                    ptr: Box::new(p),
                    offset: Box::new(o),
                    elem: *elem,
                },
            }
        }
    }
}

fn fold_place_env(p: &Place, env: &ConstEnv) -> Place {
    match p {
        Place::Local(id) => Place::Local(*id),
        Place::LocalElem(id, idx) => Place::LocalElem(*id, Box::new(fold_expr_env(idx, env))),
        Place::SharedElem(id, idx) => Place::SharedElem(*id, Box::new(fold_expr_env(idx, env))),
        Place::Deref { ptr, elem } => Place::Deref {
            ptr: Box::new(fold_expr_env(ptr, env)),
            elem: *elem,
        },
    }
}

/// Collect every scalar local assigned anywhere in `stmts`.
fn assigned_locals(stmts: &[HStmt], out: &mut FxHashSet<LocalId>) {
    for s in stmts {
        match s {
            HStmt::Assign {
                place: Place::Local(id),
                ..
            } => {
                out.insert(*id);
            }
            HStmt::Assign { .. } => {}
            HStmt::If { then_s, else_s, .. } => {
                assigned_locals(then_s, out);
                assigned_locals(else_s, out);
            }
            HStmt::For {
                init, step, body, ..
            } => {
                assigned_locals(init, out);
                assigned_locals(step, out);
                assigned_locals(body, out);
            }
            HStmt::While { body, .. } | HStmt::DoWhile { body, .. } => assigned_locals(body, out),
            _ => {}
        }
    }
}

/// Forget every local the loop `parts` assign: they are unknown during
/// and after the loop. Returns them.
fn kill_assigned(parts: &[&[HStmt]], env: &mut ConstEnv) -> FxHashSet<LocalId> {
    let mut killed = FxHashSet::default();
    for part in parts {
        assigned_locals(part, &mut killed);
    }
    env.retain(|k, _| !killed.contains(k));
    killed
}

fn is_literal(e: &HExpr) -> bool {
    matches!(e, HExpr::IntLit { .. } | HExpr::FloatLit(_))
}

/// Fold a statement list; `if`s with constant conditions are resolved
/// (static guard elimination), constant-false loops drop away.
pub(crate) fn fold_stmts(stmts: &[HStmt]) -> Vec<HStmt> {
    let mut env = ConstEnv::default();
    fold_stmts_env(stmts, &mut env)
}

/// Env-threading fold: `env` tracks scalar locals whose value is a known
/// literal at the current program point.
pub(crate) fn fold_stmts_env(stmts: &[HStmt], env: &mut ConstEnv) -> Vec<HStmt> {
    let mut out = Vec::with_capacity(stmts.len());
    for s in stmts {
        match s {
            HStmt::Assign { place, value } => {
                let v = fold_expr_env(value, env);
                let place = fold_place_env(place, env);
                if let Place::Local(id) = place {
                    if is_literal(&v) {
                        env.insert(id, v.clone());
                    } else {
                        env.remove(&id);
                    }
                }
                out.push(HStmt::Assign { place, value: v });
            }
            HStmt::If {
                cond,
                then_s,
                else_s,
            } => {
                let c = fold_expr_env(cond, env);
                match const_int(&c) {
                    Some(0) => out.extend(fold_stmts_env(else_s, env)),
                    Some(_) => out.extend(fold_stmts_env(then_s, env)),
                    None => {
                        let mut env_t = env.clone();
                        let mut env_e = env.clone();
                        let t = fold_stmts_env(then_s, &mut env_t);
                        let e = fold_stmts_env(else_s, &mut env_e);
                        // Keep only facts that hold on both paths.
                        env.retain(|k, v| env_t.get(k) == Some(v) && env_e.get(k) == Some(v));
                        out.push(HStmt::If {
                            cond: c,
                            then_s: t,
                            else_s: e,
                        });
                    }
                }
            }
            HStmt::For {
                init,
                cond,
                step,
                body,
                unroll,
            } => {
                let init = fold_stmts_env(init, env);
                kill_assigned(&[body, step], env);
                let cond = cond.as_ref().map(|c| fold_expr_env(c, env));
                if let Some(c) = &cond {
                    if const_int(c) == Some(0) {
                        out.extend(init);
                        continue;
                    }
                }
                let mut benv = env.clone();
                let body = fold_stmts_env(body, &mut benv);
                let mut senv = env.clone();
                let step = fold_stmts_env(step, &mut senv);
                out.push(HStmt::For {
                    init,
                    cond,
                    step,
                    body,
                    unroll: *unroll,
                });
            }
            HStmt::While { cond, body } => {
                kill_assigned(&[body], env);
                let c = fold_expr_env(cond, env);
                if const_int(&c) == Some(0) {
                    continue;
                }
                let mut benv = env.clone();
                let body = fold_stmts_env(body, &mut benv);
                out.push(HStmt::While { cond: c, body });
            }
            HStmt::DoWhile { body, cond } => {
                let killed = kill_assigned(&[body], env);
                let mut benv = env.clone();
                let body = fold_stmts_env(body, &mut benv);
                benv.retain(|k, _| !killed.contains(k));
                let c = fold_expr_env(cond, &benv);
                out.push(HStmt::DoWhile { body, cond: c });
            }
            HStmt::Break | HStmt::Continue | HStmt::Return | HStmt::Sync => out.push(s.clone()),
        }
    }
    out
}

/// Fold a whole kernel in place.
pub fn fold_func(f: &mut HFunc) {
    f.body = fold_stmts(&f.body);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fold one expression bottom-up (no propagation environment).
    fn fold_expr(e: &HExpr) -> HExpr {
        fold_expr_env(e, &ConstEnv::default())
    }

    fn ii(v: i64) -> HExpr {
        HExpr::IntLit {
            value: v,
            ty: HTy::Int,
        }
    }

    #[test]
    fn folds_arith() {
        let e = HExpr::Binary(HBinOp::Mul, HTy::Int, Box::new(ii(3)), Box::new(ii(7)));
        assert_eq!(fold_expr(&e), ii(21));
    }

    #[test]
    fn folds_nested_and_identity() {
        // (x * 1) + (2 * 0) → x
        let x = HExpr::Local(LocalId(0), HTy::Int);
        let e = HExpr::Binary(
            HBinOp::Add,
            HTy::Int,
            Box::new(HExpr::Binary(
                HBinOp::Mul,
                HTy::Int,
                Box::new(x.clone()),
                Box::new(ii(1)),
            )),
            Box::new(HExpr::Binary(
                HBinOp::Mul,
                HTy::Int,
                Box::new(ii(2)),
                Box::new(ii(0)),
            )),
        );
        assert_eq!(fold_expr(&e), x);
    }

    #[test]
    fn integer_division_semantics() {
        let e = HExpr::Binary(HBinOp::Div, HTy::Int, Box::new(ii(-7)), Box::new(ii(2)));
        assert_eq!(fold_expr(&e), ii(-3)); // C truncation
        let e = HExpr::Binary(HBinOp::Div, HTy::UInt, Box::new(ii(7)), Box::new(ii(2)));
        assert_eq!(
            fold_expr(&e),
            HExpr::IntLit {
                value: 3,
                ty: HTy::UInt
            }
        );
        // Division by zero does not fold (run-time trap territory).
        let e = HExpr::Binary(HBinOp::Div, HTy::Int, Box::new(ii(1)), Box::new(ii(0)));
        assert!(matches!(fold_expr(&e), HExpr::Binary(..)));
    }

    #[test]
    fn u32_wraparound() {
        let e = HExpr::Binary(
            HBinOp::Add,
            HTy::UInt,
            Box::new(HExpr::IntLit {
                value: u32::MAX as i64,
                ty: HTy::UInt,
            }),
            Box::new(HExpr::IntLit {
                value: 1,
                ty: HTy::UInt,
            }),
        );
        assert_eq!(
            fold_expr(&e),
            HExpr::IntLit {
                value: 0,
                ty: HTy::UInt
            }
        );
    }

    #[test]
    fn cmp_and_logic_fold() {
        let c = HExpr::Cmp(HCmp::Lt, HTy::Int, Box::new(ii(1)), Box::new(ii(2)));
        assert_eq!(
            fold_expr(&c),
            HExpr::IntLit {
                value: 1,
                ty: HTy::Bool
            }
        );
        let f = HExpr::LogAnd(
            Box::new(HExpr::IntLit {
                value: 0,
                ty: HTy::Bool,
            }),
            Box::new(HExpr::Cmp(
                HCmp::Eq,
                HTy::Int,
                Box::new(HExpr::Local(LocalId(0), HTy::Int)),
                Box::new(ii(1)),
            )),
        );
        assert_eq!(
            fold_expr(&f),
            HExpr::IntLit {
                value: 0,
                ty: HTy::Bool
            }
        );
    }

    #[test]
    fn guard_elimination() {
        let guard = HStmt::If {
            cond: HExpr::Cmp(HCmp::Lt, HTy::Int, Box::new(ii(5)), Box::new(ii(10))),
            then_s: vec![HStmt::Sync],
            else_s: vec![HStmt::Return],
        };
        let folded = fold_stmts(&[guard]);
        assert_eq!(folded, vec![HStmt::Sync]);
    }

    #[test]
    fn const_false_loop_keeps_init() {
        let l = HStmt::For {
            init: vec![HStmt::Sync],
            cond: Some(HExpr::IntLit {
                value: 0,
                ty: HTy::Bool,
            }),
            step: vec![],
            body: vec![HStmt::Return],
            unroll: None,
        };
        assert_eq!(fold_stmts(&[l]), vec![HStmt::Sync]);
    }

    #[test]
    fn ptr_plus_const_folds_to_address() {
        let e = HExpr::PtrAdd {
            ptr: Box::new(HExpr::IntLit {
                value: 0x1000,
                ty: HTy::Ptr(Elem::Float),
            }),
            offset: Box::new(ii(4)),
            elem: Elem::Float,
        };
        assert_eq!(
            fold_expr(&e),
            HExpr::IntLit {
                value: 0x1000 + 16,
                ty: HTy::Ptr(Elem::Float)
            }
        );
    }

    #[test]
    fn float_cast_fold() {
        let e = HExpr::Cast {
            to: HTy::Float,
            from: HTy::Int,
            val: Box::new(ii(3)),
        };
        assert_eq!(fold_expr(&e), HExpr::FloatLit(3.0));
        let e = HExpr::Cast {
            to: HTy::Int,
            from: HTy::Float,
            val: Box::new(HExpr::FloatLit(2.7)),
        };
        assert_eq!(fold_expr(&e), ii(2));
    }

    #[test]
    fn builtin_math_folds() {
        let e = HExpr::Call(BuiltinFn::Sqrtf, vec![HExpr::FloatLit(16.0)], HTy::Float);
        assert_eq!(fold_expr(&e), HExpr::FloatLit(4.0));
        let e = HExpr::Call(BuiltinFn::Mul24, vec![ii(3), ii(7)], HTy::Int);
        assert_eq!(fold_expr(&e), ii(21));
    }
}
