//! Front-end integration tests: preprocessor/parser/sema interplay, error
//! resilience, and a lexer/parser crash-safety fuzz.

use ks_lang::{frontend, lexer, parser, preproc};
use proptest::prelude::*;

fn check(src: &str, defs: &[(&str, &str)]) -> Result<ks_lang::hir::Program, ks_lang::LangError> {
    let defs: Vec<(String, String)> = defs
        .iter()
        .map(|(a, b)| (a.to_string(), b.to_string()))
        .collect();
    frontend(src, &defs)
}

#[test]
fn nested_function_macros_with_conditionals() {
    let src = r#"
        #define HALF(x) ((x) / 2)
        #define CLAMPED(x, lo) (HALF(x) > (lo) ? HALF(x) : (lo))
        #if CLAMPED(THREADS, 8) >= 32
        #define RED_START 32
        #else
        #define RED_START CLAMPED(THREADS, 8)
        #endif
        __global__ void k(int* o) { o[0] = RED_START; }
    "#;
    // THREADS=128: HALF=64 ≥ 32 → RED_START = 32.
    let p = check(src, &[("THREADS", "128")]).unwrap();
    assert_eq!(p.kernels.len(), 1);
    // THREADS=20: HALF=10 → RED_START = 10.
    let p2 = check(src, &[("THREADS", "20")]).unwrap();
    assert_eq!(p2.kernels.len(), 1);
}

#[test]
fn cuda_style_guard_patterns() {
    // The exact Appendix-B pattern, all four toggles.
    let src = r#"
        #ifdef CT_COUNT
        #define COUNT CT_COUNT
        #else
        #define COUNT count
        #endif
        __global__ void k(int* o, int count) {
            int acc = 0;
            for (int i = 0; i < COUNT; i++) { acc += i; }
            o[0] = acc;
        }
    "#;
    assert!(check(src, &[]).is_ok());
    assert!(check(src, &[("CT_COUNT", "16")]).is_ok());
}

#[test]
fn multiline_conditionals_and_else_chains() {
    let src = r#"
        #if ARCH >= 300
        #define V 3
        #elif ARCH >= 200
        #define V 2
        #elif ARCH >= 100
        #define V 1
        #else
        #define V 0
        #endif
        __global__ void k(int* o) { o[0] = V; }
    "#;
    for (arch, _expect) in [("350", 3), ("200", 2), ("130", 1), ("50", 0)] {
        let p = check(src, &[("ARCH", arch)]).unwrap();
        assert_eq!(p.kernels.len(), 1, "ARCH={arch}");
    }
}

#[test]
fn device_functions_compose() {
    let src = r#"
        __device__ float lerp(float a, float b, float t) { return a + t * (b - a); }
        __device__ float smooth(float t) { return lerp(t * t, t, t); }
        __global__ void k(float* o, float t) { o[threadIdx.x] = smooth(t); }
    "#;
    let p = check(src, &[]).unwrap();
    // Inlining both levels: lerp's params bound inside smooth's body.
    assert!(p.kernels[0].locals.len() >= 4);
}

#[test]
fn errors_have_positions_and_stages() {
    let e = check("__global__ void k(int* o) { o[0] = 1 + ; }", &[]).unwrap_err();
    assert_eq!(e.stage, "parse");
    assert!(e.line >= 1);

    let e = check("#define A (\n__global__ void k(int* o) { o[0] = A; }", &[]).unwrap_err();
    assert_eq!(e.stage, "parse");

    let e = check("__global__ void k(int* o) { o[0] = zzz; }", &[]).unwrap_err();
    assert_eq!(e.stage, "sema");
    assert!(e.message.contains("zzz"));
}

#[test]
fn unsigned_literals_and_hex_pointers() {
    let src = r#"
        __global__ void k(float* o) {
            float* p = (float*)0x7f00000000;
            unsigned int big = 3000000000u;
            o[0] = (float)(big / 1000000000u);
            if (p != o) { o[1] = 1.0f; }
        }
    "#;
    assert!(check(src, &[]).is_ok());
}

#[test]
fn comma_declarations_scopes_and_shadowing() {
    let src = r#"
        __global__ void k(int* o) {
            int a = 1, b = 2;
            {
                int a = 10;
                b += a;
            }
            o[0] = a + b;
        }
    "#;
    let p = check(src, &[]).unwrap();
    // a, b, inner a
    assert_eq!(p.kernels[0].locals.len(), 3);
}

#[test]
fn if_arithmetic_overflow_is_an_error_not_a_panic() {
    for op in ["/", "%"] {
        let src = format!(
            "#if (-9223372036854775807 - 1) {op} -1\n#endif\n\
             __global__ void k(int* o) {{ o[0] = 1; }}"
        );
        let e = check(&src, &[]).unwrap_err();
        assert_eq!(e.stage, "preprocess", "{op}");
        assert!(e.message.contains("overflow"), "{}", e.message);
    }
    // Negation wraps in `intmax_t`: -INTMAX_MIN is INTMAX_MIN.
    let src = "#if -(-9223372036854775807 - 1) < 0\n#define NEG 1\n#endif\n\
               __global__ void k(int* o) { o[0] = NEG; }";
    assert!(check(src, &[]).is_ok());
}

/// `#if` against C: each row is a controlling expression and the value
/// gcc's preprocessor gives it, or `None` where gcc reports an error.
/// (`INTMAX_MIN / -1`, which gcc only warns about, is an error here:
/// `if_arithmetic_overflow_is_an_error_not_a_panic`.)
const IF_TABLE: &[(&str, Option<i64>)] = &[
    ("-1 > 0u", Some(1)),
    ("1 / 0", None),
    ("1 % 0", None),
    ("0 && (-9223372036854775807 - 1) / -1", Some(0)),
    ("1 ? 2 : (-9223372036854775807 - 1) / -1", Some(2)),
    ("3000000000 > -1", Some(1)),
    ("0xFFFFFFFFFFFFFFFF > 0", Some(1)),
    ("-(-9223372036854775807 - 1) < 0", Some(1)),
    ("1 || 1 / 0", Some(1)),
    ("0 ? 1 / 0 : 3", Some(3)),
    ("1 / 0 && 0", None),
    ("-1 / 2u > 0", Some(1)),
    ("4294967295u + 1 > 4294967295u", Some(1)),
    ("(1 ? -1 : 0u) > 0", Some(1)),
    ("~0u == 0xFFFFFFFFFFFFFFFF", Some(1)),
    ("-2147483648 < 0", Some(1)),
    ("0x80000000 > 0", Some(1)),
    ("7 >> 1 << 2", Some(12)),
    ("-7 / 2", Some(-3)),
    ("-7 % 3", Some(-1)),
    ("(0 - 1) >> 62", Some(-1)),
    ("UNDEFINED + 2", Some(2)),
    ("int + 2", Some(2)),
    ("defined(X) + defined Y", Some(0)),
    ("defined(X 0", None),
    ("-1u > 0", Some(1)),
    ("(int)1", None),
    ("1.5", None),
    ("1 = 1", None),
];

#[test]
fn if_conditions_evaluate_as_gcc_does() {
    for &(expr, want) in IF_TABLE {
        let src = match want {
            Some(v) => format!("#if ({expr}) == {v}\n#define R 1\n#endif\n"),
            None => format!("#if {expr}\n#endif\n#define R 1\n"),
        } + "__global__ void k(int* o) { o[0] = R; }";
        match (want, check(&src, &[])) {
            (Some(_), Ok(_)) => {}
            (None, Err(e)) => assert_eq!(e.stage, "preprocess", "{expr}: {e}"),
            (want, got) => panic!("{expr}: want {want:?}, got {got:?}"),
        }
    }
}

#[test]
fn array_sizes_that_do_not_fit_32_bits_are_errors() {
    for decl in [
        "__shared__ float s[65536][65536];",
        "__shared__ float s[4294967297];",
        "float a[65536][65537];",
        "int a[(-9223372036854775807 - 1) / -1];",
        "int a[(-9223372036854775807 - 1) % -1];",
    ] {
        let src = format!("__global__ void k(float* o) {{ {decl} o[0] = 1.0f; }}");
        let e = check(&src, &[]).unwrap_err();
        assert_eq!(e.stage, "sema", "{decl}");
    }
    let src = "__constant__ float c[65536][65536];\n\
               __global__ void k(float* o) { o[0] = c[0][0]; }";
    assert_eq!(check(src, &[]).unwrap_err().stage, "sema");
    // The largest count that fits is kept exactly.
    let src = "__global__ void k(float* o) {\n\
                   __shared__ float s[65535][65537];\n\
                   o[0] = s[1][2];\n\
               }";
    assert_eq!(check(src, &[]).unwrap().kernels[0].shared[0].len, u32::MAX);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// The lexer+preprocessor+parser never panic on arbitrary input — they
    /// either produce a translation unit or a structured error.
    #[test]
    fn frontend_never_panics(src in "[ -~\n]{0,200}") {
        let _ = lexer::lex(&src)
            .and_then(|t| preproc::preprocess(t, &[]))
            .and_then(parser::parse);
    }

    /// Same for inputs salted with C-ish tokens to reach deeper paths.
    #[test]
    fn frontend_never_panics_cish(
        parts in prop::collection::vec(
            prop::sample::select(vec![
                "__global__", "void", "int", "float", "*", "(", ")", "{", "}",
                "[", "]", ";", "if", "for", "return", "#define", "#if",
                "#endif", "x", "y", "1", "2.5f", "+", "=", "<", "threadIdx",
                ".", ",", "__shared__", "#pragma", "unroll", "\n",
            ]),
            0..40,
        )
    ) {
        let src = parts.join(" ");
        let _ = lexer::lex(&src)
            .and_then(|t| preproc::preprocess(t, &[]))
            .and_then(parser::parse)
            .map(|tu| ks_lang::sema::check(&tu));
    }
}
