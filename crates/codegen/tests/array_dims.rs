//! An array dimension is folded by the checker (`ks_lang::sema`), before
//! there is any HIR; the same expression in a kernel body is folded by
//! the HIR folder through `ks_ir::eval`. Both must yield the same value:
//! C's 32-bit `int` / `unsigned int` arithmetic.

use ks_codegen::consteval::fold_func;
use ks_lang::hir::{HExpr, HStmt};

const TABLE: &[&str] = &[
    "~0u >> 28",
    "0xFFFFFFFFu + 17u",
    "0xFFFFFFFFu * 0xFFFFFFFFu",
    "65536 * 65536 + 3",
    "1u << 31",
    "1 << 31",
    "1 << 33",
    "~0 >> 28",
    "-7 >> 1",
    "(unsigned int)-7 >> 1",
    "(unsigned int)-1 / 16",
    "0x7FFFFFFF + 1",
    "2 * 0x40000001",
    "(int)0x80000000u / -1",
    "7 / 2",
    "-7 / 2",
    "-7 % 3",
    "7u % 3",
    "(0u - 1) / 2",
    "(0 - 1) / 2",
    "-(3u) + 10u",
    "~(-5)",
    "5 ^ 3 | 8 & 12",
    "-1 < 0u",
    "-1 < 0",
    "(-1 < 0u) + 4",
    "3 > 2 ? 8 : 9u",
    "0 ? 8 : 9",
    "0 ? 8 : -9",
    "!0 + 4",
    "!5",
    "(1 && 2) + (0 || 3) + 1",
    "0 && 1 / 0",
    "1 || 1 / 0",
    "1 ? 5 : 1 / 0",
    "1 / 0",
    "5 % 0u",
];

/// What the HIR folder makes of `expr` stored to an `int`, when it folds
/// to a literal.
fn folded(expr: &str) -> Option<i64> {
    let src = format!("__global__ void k(int* o) {{ o[0] = {expr}; }}");
    let mut prog = ks_lang::frontend(&src, &[]).expect("frontend");
    let k = &mut prog.kernels[0];
    fold_func(k);
    match &k.body[..] {
        [HStmt::Assign {
            value: HExpr::IntLit { value, .. },
            ..
        }] => Some(*value),
        _ => None,
    }
}

/// The element count the checker gives `__shared__ float s[expr]`.
fn dimension(expr: &str) -> Result<u32, String> {
    let src = format!("__global__ void k(float* o) {{ __shared__ float s[{expr}]; o[0] = s[0]; }}");
    let prog = ks_lang::frontend(&src, &[]).map_err(|e| e.to_string())?;
    Ok(prog.kernels[0].shared[0].len)
}

#[test]
fn dimensions_equal_the_hir_folder() {
    for expr in TABLE {
        match (folded(expr), dimension(expr)) {
            (Some(v), Ok(len)) => assert_eq!(i64::from(len), v, "{expr}"),
            (Some(v), Err(e)) => {
                assert!(
                    v <= 0 && e.contains("non-positive dimension"),
                    "{expr}: {v}, {e}"
                )
            }
            (None, Err(e)) => assert!(e.contains("compile-time constant"), "{expr}: {e}"),
            (None, Ok(len)) => panic!("{expr}: the folder leaves it, the checker says {len}"),
        }
    }
}

/// Rows whose value C fixes (checked with gcc): the checker's dimension
/// and the HIR folder's value must both be it.
const C_VALUES: &[(&str, u32)] = &[("(-1u / 2) > 4 ? 8 : 2", 8)];

#[test]
fn dimensions_take_the_values_c_gives() {
    for &(expr, want) in C_VALUES {
        assert_eq!(dimension(expr), Ok(want), "{expr}");
        assert_eq!(folded(expr), Some(i64::from(want)), "{expr}");
    }
}
