//! Full loop unrolling for counted loops with compile-time-constant bounds.
//!
//! This is the headline specialization optimization: a `for` loop whose
//! init/bound/step folded to literals (because `LOOP_COUNT` et al. were
//! `-D`-defined) is replaced by straight-line copies of its body with the
//! induction variable bound to its literal — producing control-flow-free
//! PTX like Appendix D. Loops with run-time bounds stay rolled and pay
//! setup, iteration, condition, and branch overhead.
//!
//! The trip count is simulated with `ks_ir::eval`: the compare in the
//! compare's type, the step in the step's type, so the unrolled values are
//! the ones the rolled loop would have run through. A step the executor
//! would trap on, or one that makes no progress, leaves the loop rolled.
//! Each copy of the body is folded with the variable bound to its value.

use crate::consteval::{const_int, fold_stmts, fold_stmts_env, ConstEnv};
use crate::mapping::{bin_op, cmp_op, ir_ty, lit};
use ks_ir::eval;
use ks_lang::hir::*;

/// Attempt to unroll every eligible loop in the kernel, to fixpoint
/// (substituting an outer induction variable can make an inner loop's
/// bounds constant).
pub fn unroll_func(f: &mut HFunc, limit: u32) {
    let locals: Vec<HTy> = f.locals.iter().map(|l| l.ty).collect();
    // Fold first so implicit conversions around literals (e.g. the `2` in
    // `s = s / 2` cast to unsigned) don't hide constant steps/bounds.
    f.body = fold_stmts(&f.body);
    let mut iterations = 0;
    loop {
        let (body, changed) = unroll_stmts(&f.body, limit, &locals);
        f.body = fold_stmts(&body);
        iterations += 1;
        if !changed || iterations > 64 {
            break;
        }
    }
}

fn unroll_stmts(stmts: &[HStmt], limit: u32, locals: &[HTy]) -> (Vec<HStmt>, bool) {
    let mut out = Vec::with_capacity(stmts.len());
    let mut changed = false;
    for s in stmts {
        match s {
            HStmt::For {
                init,
                cond,
                step,
                body,
                unroll,
            } => {
                if let Some(plan) = plan_unroll(init, cond.as_ref(), step, body, limit, *unroll) {
                    changed = true;
                    emit_unrolled(&plan, body, locals, &mut out);
                } else {
                    let (b, c) = unroll_stmts(body, limit, locals);
                    changed |= c;
                    out.push(HStmt::For {
                        init: init.clone(),
                        cond: cond.clone(),
                        step: step.clone(),
                        body: b,
                        unroll: *unroll,
                    });
                }
            }
            HStmt::If {
                cond,
                then_s,
                else_s,
            } => {
                let (t, c1) = unroll_stmts(then_s, limit, locals);
                let (e, c2) = unroll_stmts(else_s, limit, locals);
                changed |= c1 | c2;
                out.push(HStmt::If {
                    cond: cond.clone(),
                    then_s: t,
                    else_s: e,
                });
            }
            HStmt::While { cond, body } => {
                let (b, c) = unroll_stmts(body, limit, locals);
                changed |= c;
                out.push(HStmt::While {
                    cond: cond.clone(),
                    body: b,
                });
            }
            HStmt::DoWhile { body, cond } => {
                let (b, c) = unroll_stmts(body, limit, locals);
                changed |= c;
                out.push(HStmt::DoWhile {
                    body: b,
                    cond: cond.clone(),
                });
            }
            other => out.push(other.clone()),
        }
    }
    (out, changed)
}

struct UnrollPlan {
    var: LocalId,
    /// The register bits of the induction variable at each iteration.
    values: Vec<u64>,
}

/// Decide whether a loop can be fully unrolled. Requirements:
/// * init is exactly `var = <const>`,
/// * cond is `var <cmp> <const>` (or reversed),
/// * step is exactly `var = var <op> <const>` for `+`, `-`, `*`, `/`,
///   `<<` or `>>` (`+` and `*` also reversed),
/// * the body does not reassign `var`, and has no `break`/`continue`
///   at this nesting level, no `return`,
/// * the trip count is positive and ≤ `limit` (a `#pragma unroll` lifts
///   the limit), and every step makes progress and does not trap.
fn plan_unroll(
    init: &[HStmt],
    cond: Option<&HExpr>,
    step: &[HStmt],
    body: &[HStmt],
    limit: u32,
    pragma: Option<Option<u32>>,
) -> Option<UnrollPlan> {
    let [HStmt::Assign {
        place: Place::Local(var),
        value: init_v,
    }] = init
    else {
        return None;
    };
    let var = *var;
    let is_var = |e: &HExpr| matches!(e, HExpr::Local(v, _) if *v == var);
    let int = |e: &HExpr| const_int(e).map(|v| v as u64);
    let start = int(init_v)?;
    let HExpr::Cmp(cmp, cmp_ty, lhs, rhs) = cond? else {
        return None;
    };
    // Normalize to `var <cmp> bound`.
    let (cmp, bound) = match (lhs.as_ref(), rhs.as_ref()) {
        (v, b) if is_var(v) => (*cmp, int(b)?),
        (b, v) if is_var(v) => (swap_cmp(*cmp), int(b)?),
        _ => return None,
    };
    let [HStmt::Assign {
        place: Place::Local(sv),
        value: HExpr::Binary(op, step_ty, a, b),
    }] = step
    else {
        return None;
    };
    if *sv != var {
        return None;
    }
    // Arithmetic (i += c) and geometric (s /= 2, s >>= 1, s *= 2) steps —
    // the latter cover reduction-tree loops (§2.2).
    let d = match (op, a.as_ref(), b.as_ref()) {
        (HBinOp::Add | HBinOp::Mul, d, v) if is_var(v) => d,
        (
            HBinOp::Add | HBinOp::Sub | HBinOp::Mul | HBinOp::Div | HBinOp::Shr | HBinOp::Shl,
            v,
            d,
        ) if is_var(v) => d,
        _ => return None,
    };
    let d = int(d)?;
    if !body_allows_unroll(body, var) {
        return None;
    }
    // Simulate the loop counter on the machine's arithmetic.
    let (cmp, cmp_ty) = (cmp_op(cmp), ir_ty(*cmp_ty));
    let (op, step_ty) = (bin_op(*op), ir_ty(*step_ty));
    let effective_limit = if pragma.is_some() {
        limit.max(65536)
    } else {
        limit
    };
    let mut values = Vec::new();
    let mut v = start;
    while eval::cmp(cmp, cmp_ty, v, bound) {
        values.push(v);
        if values.len() as u32 > effective_limit {
            return None;
        }
        // A step that traps (a division by zero) or cannot make progress
        // (`+= 0`, `0 / 2`) leaves the loop rolled.
        let next = eval::bin(op, step_ty, v, d)?;
        if next == v {
            return None;
        }
        v = next;
    }
    Some(UnrollPlan { var, values })
}

fn swap_cmp(c: HCmp) -> HCmp {
    match c {
        HCmp::Lt => HCmp::Gt,
        HCmp::Le => HCmp::Ge,
        HCmp::Gt => HCmp::Lt,
        HCmp::Ge => HCmp::Le,
        other => other,
    }
}

/// The body may not reassign the induction variable, and may not contain
/// `break`/`continue` belonging to this loop, nor `return`.
fn body_allows_unroll(body: &[HStmt], var: LocalId) -> bool {
    fn check(stmts: &[HStmt], var: LocalId, top_level_loop: bool) -> bool {
        for s in stmts {
            match s {
                HStmt::Assign { place, .. } => {
                    if matches!(place, Place::Local(v) | Place::LocalElem(v, _) if *v == var) {
                        return false;
                    }
                }
                HStmt::Break | HStmt::Continue => {
                    if top_level_loop {
                        return false;
                    }
                }
                HStmt::Return => return false,
                HStmt::If { then_s, else_s, .. } => {
                    if !check(then_s, var, top_level_loop) || !check(else_s, var, top_level_loop) {
                        return false;
                    }
                }
                // Inner loops own their breaks/continues.
                HStmt::For {
                    init, step, body, ..
                } => {
                    if !check(init, var, top_level_loop)
                        || !check(step, var, false)
                        || !check(body, var, false)
                    {
                        return false;
                    }
                }
                HStmt::While { body, .. } | HStmt::DoWhile { body, .. } => {
                    if !check(body, var, false) {
                        return false;
                    }
                }
                HStmt::Sync => {}
            }
        }
        true
    }
    check(body, var, true)
}

/// One folded copy of the body per iteration, with the induction
/// variable bound to that iteration's literal. The body never assigns it,
/// so the binding holds through every `if` and nested loop of the copy.
fn emit_unrolled(plan: &UnrollPlan, body: &[HStmt], locals: &[HTy], out: &mut Vec<HStmt>) {
    let ty = locals[plan.var.0 as usize];
    for &v in &plan.values {
        let mut env = ConstEnv::default();
        env.insert(plan.var, lit(ty, v));
        out.extend(fold_stmts_env(body, &mut env));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    fn count_loops(stmts: &[HStmt]) -> usize {
        stmts
            .iter()
            .map(|s| match s {
                HStmt::For { body, .. }
                | HStmt::While { body, .. }
                | HStmt::DoWhile { body, .. } => 1 + count_loops(body),
                HStmt::If { then_s, else_s, .. } => count_loops(then_s) + count_loops(else_s),
                _ => 0,
            })
            .sum()
    }

    fn count_assigns(stmts: &[HStmt]) -> usize {
        stmts
            .iter()
            .map(|s| match s {
                HStmt::Assign { .. } => 1,
                HStmt::For {
                    body, init, step, ..
                } => count_assigns(body) + count_assigns(init) + count_assigns(step),
                HStmt::If { then_s, else_s, .. } => count_assigns(then_s) + count_assigns(else_s),
                _ => 0,
            })
            .sum()
    }

    #[test]
    fn specialized_loop_fully_unrolls() {
        let src = r#"
            __global__ void k(int* out) {
                int acc = 0;
                for (int i = 0; i < LOOP_COUNT; i++) { acc += i; }
                out[threadIdx.x] = acc;
            }
        "#;
        let mut f = kernel(src, &[("LOOP_COUNT", "5")]);
        unroll_func(&mut f, 2048);
        assert_eq!(count_loops(&f.body), 0);
        // acc init + 5 accumulations + the store-index assigns: at least 6
        assert!(count_assigns(&f.body) >= 6);
    }

    #[test]
    fn runtime_loop_stays_rolled() {
        let src = r#"
            __global__ void k(int* out, int n) {
                int acc = 0;
                for (int i = 0; i < n; i++) { acc += i; }
                out[threadIdx.x] = acc;
            }
        "#;
        let mut f = kernel(src, &[]);
        unroll_func(&mut f, 2048);
        assert_eq!(count_loops(&f.body), 1);
    }

    #[test]
    fn nested_loops_unroll_inside_out() {
        let src = r#"
            __global__ void k(int* out) {
                int acc = 0;
                for (int i = 0; i < 3; i++) {
                    for (int j = 0; j < 4; j++) { acc += i * j; }
                }
                out[0] = acc;
            }
        "#;
        let mut f = kernel(src, &[]);
        unroll_func(&mut f, 2048);
        assert_eq!(count_loops(&f.body), 0);
    }

    #[test]
    fn trip_limit_respected() {
        let src = r#"
            __global__ void k(int* out) {
                int acc = 0;
                for (int i = 0; i < 100; i++) { acc += i; }
                out[0] = acc;
            }
        "#;
        let mut f = kernel(src, &[]);
        unroll_func(&mut f, 10);
        assert_eq!(
            count_loops(&f.body),
            1,
            "loop over the limit must stay rolled"
        );
    }

    #[test]
    fn pragma_unroll_lifts_the_limit() {
        let src = r#"
            __global__ void k(int* out) {
                int acc = 0;
                #pragma unroll
                for (int i = 0; i < 100; i++) { acc += i; }
                out[0] = acc;
            }
        "#;
        let mut f = kernel(src, &[]);
        unroll_func(&mut f, 10); // limit below the trip count
        assert_eq!(count_loops(&f.body), 0, "#pragma unroll must force it");
    }

    #[test]
    fn break_prevents_unrolling() {
        let src = r#"
            __global__ void k(int* out, int n) {
                int acc = 0;
                for (int i = 0; i < 8; i++) { if (i == n) { break; } acc += i; }
                out[0] = acc;
            }
        "#;
        let mut f = kernel(src, &[]);
        unroll_func(&mut f, 2048);
        assert_eq!(count_loops(&f.body), 1);
    }

    #[test]
    fn downward_counting_loop() {
        let src = r#"
            __global__ void k(int* out) {
                int acc = 0;
                for (int i = 8; i > 0; i = i - 2) { acc += i; }
                out[0] = acc;
            }
        "#;
        let mut f = kernel(src, &[]);
        unroll_func(&mut f, 2048);
        assert_eq!(count_loops(&f.body), 0);
        // 8+6+4+2 = 20 iterations worth of adds present.
    }

    #[test]
    fn unsigned_reduction_tree_loop_unrolls() {
        // for (s = N/2; s > 0; s >>= 1)-style loops (reduction trees, §2.2)
        // unroll with geometric induction: 8, 4, 2, 1 → 4 iterations.
        let src = r#"
            __global__ void k(int* out) {
                int acc = 0;
                for (unsigned int s = 8u; s > 0u; s = s >> 1) { acc += 1; }
                out[0] = acc;
            }
        "#;
        let mut f = kernel(src, &[]);
        unroll_func(&mut f, 2048);
        assert_eq!(count_loops(&f.body), 0);
        // Also the division form.
        let src2 = r#"
            __global__ void k(int* out) {
                int acc = 0;
                for (unsigned int s = 64u; s > 0u; s = s / 2) { acc += (int)s; }
                out[0] = acc;
            }
        "#;
        let mut f2 = kernel(src2, &[]);
        unroll_func(&mut f2, 2048);
        assert_eq!(count_loops(&f2.body), 0);
        // A runtime-bounded geometric loop stays rolled.
        let src3 = r#"
            __global__ void k(int* out, int n) {
                int acc = 0;
                for (unsigned int s = (unsigned int)n; s > 0u; s = s / 2) { acc += 1; }
                out[0] = acc;
            }
        "#;
        let mut f3 = kernel(src3, &[]);
        unroll_func(&mut f3, 2048);
        assert_eq!(count_loops(&f3.body), 1);
    }

    #[test]
    fn inner_loop_with_outer_dependent_bound_unrolls_after_outer() {
        let src = r#"
            __global__ void k(int* out) {
                int acc = 0;
                for (int i = 0; i < 3; i++) {
                    for (int j = 0; j < i + 1; j++) { acc += j; }
                }
                out[0] = acc;
            }
        "#;
        let mut f = kernel(src, &[]);
        unroll_func(&mut f, 2048);
        assert_eq!(count_loops(&f.body), 0);
    }

    #[test]
    fn trapping_step_stays_rolled() {
        // `i / 2^32` divides by zero in `u32`: the executor would trap, so
        // the loop is not simulated past its first iteration.
        let src = r#"
            __global__ void k(int* out) {
                int acc = 0;
                for (unsigned i = 100u; i > 0u; i /= 4294967296u) { acc += 1; }
                out[0] = acc;
            }
        "#;
        let mut f = kernel(src, &[]);
        unroll_func(&mut f, 2048);
        assert_eq!(count_loops(&f.body), 1);
    }

    #[test]
    fn literal_pointer_near_the_top_plus_offsets() {
        // The cast keeps the low word (`cvt.ptr.u32`), and each unrolled
        // `p + i` adds `4 * i` to it as the machine does, without overflow.
        let src = r#"
            __global__ void k(float* out) {
                float* p = (float*)0x7FFFFFFFFFFFFFFF;
                for (int i = 0; i < 2; i++) { out[i] = p[i]; }
            }
        "#;
        let defs: Vec<(String, String)> = vec![];
        let prog = frontend(src, &defs).unwrap();
        let m = crate::compile(&prog, &crate::CodegenOptions::default()).unwrap();
        let loads: Vec<i64> = m.functions[0]
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .filter_map(|i| match i {
                ks_ir::Inst::Ld {
                    space: ks_ir::Space::Global,
                    addr,
                    ..
                } => Some(addr.offset),
                _ => None,
            })
            .collect();
        assert_eq!(loads, [0xFFFF_FFFF, 0x1_0000_0003]);
    }
}
