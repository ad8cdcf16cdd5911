//! Local-array scalarization — the mechanism behind *register blocking*.
//!
//! GPUs cannot indirectly address registers (§2.4), so a per-thread array
//! can only live in registers when every access uses a compile-time-constant
//! index. After specialization + unrolling that is the case, and this pass
//! rewrites each element to its own scalar local (which lowers to a virtual
//! register). Without specialization the indices stay dynamic and the array
//! lowers to high-latency local memory — reproducing the paper's performance
//! cliff for run-time-evaluated register blocking.

use crate::consteval::const_int;
use ks_ir::fxhash::FxHashMap;
use ks_lang::hir::*;

/// Scalarize every eligible local array of `f` (length ≤ `cap`).
pub fn scalarize_func(f: &mut HFunc, cap: u32) {
    let candidates: Vec<LocalId> = f
        .locals
        .iter()
        .enumerate()
        .filter(|(_, l)| l.array_len > 0 && l.array_len <= cap)
        .map(|(i, _)| LocalId(i as u32))
        .filter(|id| all_indices_const(&f.body, *id))
        .collect();

    for id in candidates {
        let (elem, len, name) = {
            let l = &f.locals[id.0 as usize];
            (l.elem, l.array_len, l.name.clone())
        };
        let ty = HTy::from_elem(elem);
        // One fresh scalar local per element.
        let mut map = FxHashMap::default();
        for i in 0..len {
            let nid = LocalId(f.locals.len() as u32);
            f.locals.push(HLocal {
                name: format!("{name}.{i}"),
                elem,
                ty,
                array_len: 0,
            });
            map.insert(i as i64, nid);
        }
        // Mark the original array as scalarized (len 0 ⇒ no local memory).
        f.locals[id.0 as usize].array_len = 0;
        rewrite_stmts(&mut f.body, id, &map, ty);
    }
}

fn all_indices_const(stmts: &[HStmt], id: LocalId) -> bool {
    fn expr_ok(e: &HExpr, id: LocalId) -> bool {
        match e {
            HExpr::Load(p, _) => place_ok(p, id),
            HExpr::Unary(_, _, a) | HExpr::LogNot(a) | HExpr::Cast { val: a, .. } => expr_ok(a, id),
            HExpr::Binary(_, _, a, b)
            | HExpr::Cmp(_, _, a, b)
            | HExpr::LogAnd(a, b)
            | HExpr::LogOr(a, b) => expr_ok(a, id) && expr_ok(b, id),
            HExpr::Cond(c, a, b, _) => expr_ok(c, id) && expr_ok(a, id) && expr_ok(b, id),
            HExpr::ConstElem(_, i, _) | HExpr::TexFetch(_, i, _) => expr_ok(i, id),
            HExpr::Call(_, args, _) => args.iter().all(|a| expr_ok(a, id)),
            HExpr::PtrAdd { ptr, offset, .. } => expr_ok(ptr, id) && expr_ok(offset, id),
            _ => true,
        }
    }
    fn place_ok(p: &Place, id: LocalId) -> bool {
        match p {
            Place::LocalElem(v, idx) if *v == id => const_int(idx).is_some(),
            Place::LocalElem(_, idx) | Place::SharedElem(_, idx) => expr_ok(idx, id),
            Place::Deref { ptr, .. } => expr_ok(ptr, id),
            Place::Local(_) => true,
        }
    }
    fn stmt_ok(s: &HStmt, id: LocalId) -> bool {
        match s {
            HStmt::Assign { place, value } => place_ok(place, id) && expr_ok(value, id),
            HStmt::If {
                cond,
                then_s,
                else_s,
            } => {
                expr_ok(cond, id)
                    && then_s.iter().all(|s| stmt_ok(s, id))
                    && else_s.iter().all(|s| stmt_ok(s, id))
            }
            HStmt::For {
                init,
                cond,
                step,
                body,
                ..
            } => {
                init.iter().all(|s| stmt_ok(s, id))
                    && cond.as_ref().is_none_or(|c| expr_ok(c, id))
                    && step.iter().all(|s| stmt_ok(s, id))
                    && body.iter().all(|s| stmt_ok(s, id))
            }
            HStmt::While { cond, body } => expr_ok(cond, id) && body.iter().all(|s| stmt_ok(s, id)),
            HStmt::DoWhile { body, cond } => {
                expr_ok(cond, id) && body.iter().all(|s| stmt_ok(s, id))
            }
            _ => true,
        }
    }
    stmts.iter().all(|s| stmt_ok(s, id))
}

fn rewrite_stmts(stmts: &mut [HStmt], id: LocalId, map: &FxHashMap<i64, LocalId>, ty: HTy) {
    for s in stmts {
        match s {
            HStmt::Assign { place, value } => {
                rewrite_place(place, id, map);
                rewrite_expr(value, id, map, ty);
            }
            HStmt::If {
                cond,
                then_s,
                else_s,
            } => {
                rewrite_expr(cond, id, map, ty);
                rewrite_stmts(then_s, id, map, ty);
                rewrite_stmts(else_s, id, map, ty);
            }
            HStmt::For {
                init,
                cond,
                step,
                body,
                ..
            } => {
                rewrite_stmts(init, id, map, ty);
                if let Some(c) = cond {
                    rewrite_expr(c, id, map, ty);
                }
                rewrite_stmts(step, id, map, ty);
                rewrite_stmts(body, id, map, ty);
            }
            HStmt::While { cond, body } => {
                rewrite_expr(cond, id, map, ty);
                rewrite_stmts(body, id, map, ty);
            }
            HStmt::DoWhile { body, cond } => {
                rewrite_stmts(body, id, map, ty);
                rewrite_expr(cond, id, map, ty);
            }
            _ => {}
        }
    }
}

fn rewrite_place(p: &mut Place, id: LocalId, map: &FxHashMap<i64, LocalId>) {
    match p {
        Place::LocalElem(v, idx) if *v == id => {
            let i = const_int(idx).expect("checked const");
            // Out-of-bounds constant indices keep element 0's register —
            // undefined behaviour in CUDA too; the interpreter would have
            // trapped on the memory form, so clamp deterministically.
            let nid = map
                .get(&i)
                .or_else(|| map.get(&0))
                .expect("non-empty array");
            *p = Place::Local(*nid);
        }
        Place::LocalElem(_, idx) | Place::SharedElem(_, idx) => {
            // Nested loads inside the index may reference the array.
            let _ = idx;
        }
        _ => {}
    }
}

fn rewrite_expr(e: &mut HExpr, id: LocalId, map: &FxHashMap<i64, LocalId>, ty: HTy) {
    match e {
        HExpr::Load(p, _) => {
            rewrite_place_rec(p, id, map, ty);
            if let Place::Local(nid) = p {
                // If this was our array element, the load becomes a scalar
                // local read with the same type.
                let nid = *nid;
                if map.values().any(|v| *v == nid) {
                    *e = HExpr::Local(nid, ty);
                }
            }
        }
        HExpr::Unary(_, _, a) | HExpr::LogNot(a) | HExpr::Cast { val: a, .. } => {
            rewrite_expr(a, id, map, ty)
        }
        HExpr::Binary(_, _, a, b)
        | HExpr::Cmp(_, _, a, b)
        | HExpr::LogAnd(a, b)
        | HExpr::LogOr(a, b) => {
            rewrite_expr(a, id, map, ty);
            rewrite_expr(b, id, map, ty);
        }
        HExpr::Cond(c, a, b, _) => {
            rewrite_expr(c, id, map, ty);
            rewrite_expr(a, id, map, ty);
            rewrite_expr(b, id, map, ty);
        }
        HExpr::ConstElem(_, i, _) | HExpr::TexFetch(_, i, _) => rewrite_expr(i, id, map, ty),
        HExpr::Call(_, args, _) => {
            for a in args {
                rewrite_expr(a, id, map, ty);
            }
        }
        HExpr::PtrAdd { ptr, offset, .. } => {
            rewrite_expr(ptr, id, map, ty);
            rewrite_expr(offset, id, map, ty);
        }
        _ => {}
    }
}

fn rewrite_place_rec(p: &mut Place, id: LocalId, map: &FxHashMap<i64, LocalId>, ty: HTy) {
    match p {
        Place::LocalElem(v, idx) if *v == id => {
            let i = const_int(idx).expect("checked const");
            let nid = map
                .get(&i)
                .or_else(|| map.get(&0))
                .expect("non-empty array");
            *p = Place::Local(*nid);
        }
        Place::LocalElem(_, idx) | Place::SharedElem(_, idx) => rewrite_expr(idx, id, map, ty),
        Place::Deref { ptr, .. } => rewrite_expr(ptr, id, map, ty),
        Place::Local(_) => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consteval::fold_func;
    use crate::unroll::unroll_func;
    use ks_lang::frontend;

    fn kernel(src: &str, defs: &[(&str, &str)]) -> HFunc {
        let defs: Vec<(String, String)> = defs
            .iter()
            .map(|(a, b)| (a.to_string(), b.to_string()))
            .collect();
        frontend(src, &defs)
            .unwrap()
            .kernels
            .into_iter()
            .next()
            .unwrap()
    }

    /// The register-blocking pattern from the PIV kernel: an accumulator
    /// array indexed by an unrolled loop counter.
    #[test]
    fn register_blocked_accumulators_scalarize_when_specialized() {
        let src = r#"
            __global__ void k(float* in, float* out) {
                float acc[RB];
                for (int r = 0; r < RB; r++) { acc[r] = 0.0f; }
                for (int r = 0; r < RB; r++) { acc[r] += in[r]; }
                float total = 0.0f;
                for (int r = 0; r < RB; r++) { total += acc[r]; }
                out[0] = total;
            }
        "#;
        let mut f = kernel(src, &[("RB", "4")]);
        fold_func(&mut f);
        unroll_func(&mut f, 2048);
        scalarize_func(&mut f, 256);
        // Original array marked scalar; 4 new scalar locals added.
        assert_eq!(f.locals[0].array_len, 0);
        let scalars = f
            .locals
            .iter()
            .filter(|l| l.name.starts_with("acc."))
            .count();
        assert_eq!(scalars, 4);
        // No LocalElem places remain.
        fn no_elems(stmts: &[HStmt]) -> bool {
            stmts.iter().all(|s| match s {
                HStmt::Assign { place, .. } => !matches!(place, Place::LocalElem(..)),
                HStmt::If { then_s, else_s, .. } => no_elems(then_s) && no_elems(else_s),
                _ => true,
            })
        }
        assert!(no_elems(&f.body));
    }

    /// Without specialization the loop bound is a run-time parameter, the
    /// loop stays rolled, indices stay dynamic, and the array must remain
    /// in local memory.
    #[test]
    fn dynamic_indices_prevent_scalarization() {
        let src = r#"
            __global__ void k(float* in, float* out, int n) {
                float acc[8];
                for (int r = 0; r < n; r++) { acc[r & 7] += in[r]; }
                out[0] = acc[0];
            }
        "#;
        let mut f = kernel(src, &[]);
        fold_func(&mut f);
        unroll_func(&mut f, 2048);
        scalarize_func(&mut f, 256);
        assert_eq!(f.locals[0].array_len, 8, "array must stay in local memory");
    }

    #[test]
    fn cap_prevents_huge_scalarization() {
        let src = r#"
            __global__ void k(float* out) {
                float a[512];
                a[0] = 1.0f;
                out[0] = a[0];
            }
        "#;
        let mut f = kernel(src, &[]);
        scalarize_func(&mut f, 256);
        assert_eq!(f.locals[0].array_len, 512);
        scalarize_func(&mut f, 1024);
        assert_eq!(f.locals[0].array_len, 0);
    }
}
