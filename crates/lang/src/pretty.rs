//! AST pretty-printer: render a parsed [`TranslationUnit`] back to
//! source text that the front end accepts and parses to the *same* AST.
//!
//! Expressions are printed fully parenthesized, so no operator
//! precedence table is needed and the reparse is structurally forced.
//! The round trip `parse(print(tu)) == tu` holds for every AST the
//! parser itself can produce (and is fuzzed in `tests/fuzz.rs`); ASTs
//! constructed by hand can step outside that set — negative or
//! non-finite literals, for instance, have no literal token form and
//! reparse as `Unary(Neg, …)`.

use crate::ast::*;
use std::fmt::Write;

/// Render a full translation unit.
pub fn print_unit(tu: &TranslationUnit) -> String {
    let mut out = String::new();
    for item in &tu.items {
        match item {
            Item::Func(f) => print_func(&mut out, f),
            Item::Constant(c) => {
                let _ = write!(out, "__constant__ {} {}", ty(&c.elem), c.name);
                for d in &c.dims {
                    let _ = write!(out, "[{}]", expr(d));
                }
                out.push_str(";\n");
            }
            Item::Texture(t) => {
                let _ = writeln!(out, "texture<{}> {};", ty(&t.elem), t.name);
            }
        }
    }
    out
}

fn print_func(out: &mut String, f: &FuncDef) {
    let kind = match f.kind {
        FnKind::Kernel => "__global__",
        FnKind::Device => "__device__",
    };
    let params = f
        .params
        .iter()
        .map(|p| format!("{} {}", ty(&p.ty), p.name))
        .collect::<Vec<_>>()
        .join(", ");
    let _ = writeln!(out, "{kind} {} {}({}) {{", ty(&f.ret), f.name, params);
    for s in &f.body {
        stmt(out, s, 1);
    }
    out.push_str("}\n");
}

/// Render a type specifier, e.g. `unsigned int**`.
fn ty(t: &TypeSpec) -> String {
    match t {
        TypeSpec::Void => "void".into(),
        TypeSpec::Int => "int".into(),
        TypeSpec::UInt => "unsigned int".into(),
        TypeSpec::Float => "float".into(),
        TypeSpec::Ptr(inner) => format!("{}*", ty(inner)),
    }
}

fn ptr_depth(t: &TypeSpec) -> usize {
    match t {
        TypeSpec::Ptr(inner) => 1 + ptr_depth(inner),
        _ => 0,
    }
}

/// Render one declarator (everything after the base type).
fn declarator(d: &Decl, extra_stars: usize) -> String {
    let mut s = format!("{}{}", "*".repeat(extra_stars), d.name);
    for dim in &d.dims {
        let _ = write!(s, "[{}]", expr(dim));
    }
    if let Some(init) = &d.init {
        let _ = write!(s, " = {}", expr(init));
    }
    s
}

fn decl_qualifiers(d: &Decl) -> String {
    let mut q = String::new();
    if d.shared {
        q.push_str("__shared__ ");
    }
    if d.is_const {
        q.push_str("const ");
    }
    q
}

/// Render a statement at `indent` levels, including the trailing newline.
fn stmt(out: &mut String, s: &Stmt, indent: usize) {
    let pad = "    ".repeat(indent);
    match s {
        Stmt::Decl(d) => {
            let _ = writeln!(
                out,
                "{pad}{}{} {};",
                decl_qualifiers(d),
                ty(&d.ty),
                declarator(d, 0)
            );
        }
        Stmt::Multi(decls) => {
            // All declarators share the first one's base type; later
            // declarators carry their extra pointer depth as stars
            // (mirroring how the parser distributes `int* a, *b;`).
            let Some(Stmt::Decl(first)) = decls.first() else {
                for d in decls {
                    stmt(out, d, indent);
                }
                return;
            };
            let base_depth = ptr_depth(&first.ty);
            let parts = decls
                .iter()
                .map(|s| {
                    let Stmt::Decl(d) = s else {
                        unreachable!("Multi holds only Decl statements")
                    };
                    declarator(d, ptr_depth(&d.ty).saturating_sub(base_depth))
                })
                .collect::<Vec<_>>()
                .join(", ");
            let _ = writeln!(
                out,
                "{pad}{}{} {};",
                decl_qualifiers(first),
                ty(&first.ty),
                parts
            );
        }
        Stmt::Expr(e) => {
            let _ = writeln!(out, "{pad}{};", expr(e));
        }
        Stmt::If {
            cond,
            then_s,
            else_s,
        } => {
            let _ = writeln!(out, "{pad}if ({})", expr(cond));
            stmt(out, then_s, indent + 1);
            if let Some(e) = else_s {
                let _ = writeln!(out, "{pad}else");
                stmt(out, e, indent + 1);
            }
        }
        Stmt::For {
            init,
            cond,
            step,
            body,
            unroll,
        } => {
            match unroll {
                Some(Some(n)) => {
                    let _ = writeln!(out, "{pad}#pragma unroll {n}");
                }
                Some(None) => {
                    let _ = writeln!(out, "{pad}#pragma unroll");
                }
                None => {}
            }
            let init_s = match init {
                // The init statement renders with its own ';'.
                Some(s) => {
                    let mut tmp = String::new();
                    stmt(&mut tmp, s, 0);
                    tmp.trim_end().to_string()
                }
                None => ";".into(),
            };
            let cond_s = cond.as_ref().map(expr).unwrap_or_default();
            let step_s = step.as_ref().map(expr).unwrap_or_default();
            let _ = writeln!(out, "{pad}for ({init_s} {cond_s}; {step_s})");
            stmt(out, body, indent + 1);
        }
        Stmt::While { cond, body } => {
            let _ = writeln!(out, "{pad}while ({})", expr(cond));
            stmt(out, body, indent + 1);
        }
        Stmt::DoWhile { body, cond } => {
            let _ = writeln!(out, "{pad}do");
            stmt(out, body, indent + 1);
            let _ = writeln!(out, "{pad}while ({});", expr(cond));
        }
        Stmt::Return(None) => {
            let _ = writeln!(out, "{pad}return;");
        }
        Stmt::Return(Some(e)) => {
            let _ = writeln!(out, "{pad}return {};", expr(e));
        }
        Stmt::Break => {
            let _ = writeln!(out, "{pad}break;");
        }
        Stmt::Continue => {
            let _ = writeln!(out, "{pad}continue;");
        }
        Stmt::Block(stmts) => {
            let _ = writeln!(out, "{pad}{{");
            for s in stmts {
                stmt(out, s, indent + 1);
            }
            let _ = writeln!(out, "{pad}}}");
        }
        Stmt::Sync => {
            let _ = writeln!(out, "{pad}__syncthreads();");
        }
        Stmt::Empty => {
            let _ = writeln!(out, "{pad};");
        }
    }
}

/// Render an expression, parenthesizing every composite node.
fn expr(e: &Expr) -> String {
    match e {
        Expr::IntLit { value, unsigned } => {
            if *unsigned {
                format!("{value}u")
            } else {
                format!("{value}")
            }
        }
        // `{:?}` is Rust's shortest round-tripping float form; the `f`
        // suffix keeps the lexer in f32. Infinity (reachable only from
        // overflowing literals like `1e40f`) re-overflows the same way.
        Expr::FloatLit(v) if v.is_infinite() => "1e39f".into(),
        Expr::FloatLit(v) => format!("{v:?}f"),
        Expr::Ident(n) => n.clone(),
        Expr::Builtin(b, d) => {
            let var = match b {
                BuiltinVar::ThreadIdx => "threadIdx",
                BuiltinVar::BlockIdx => "blockIdx",
                BuiltinVar::BlockDim => "blockDim",
                BuiltinVar::GridDim => "gridDim",
            };
            let dim = match d {
                Dim3::X => "x",
                Dim3::Y => "y",
                Dim3::Z => "z",
            };
            format!("{var}.{dim}")
        }
        Expr::Unary(op, a) => {
            let a = expr(a);
            match op {
                UnaryOp::Neg => format!("(-{a})"),
                UnaryOp::LogicalNot => format!("(!{a})"),
                UnaryOp::BitNot => format!("(~{a})"),
                UnaryOp::Deref => format!("(*{a})"),
                UnaryOp::PreInc => format!("(++{a})"),
                UnaryOp::PreDec => format!("(--{a})"),
                UnaryOp::PostInc => format!("({a}++)"),
                UnaryOp::PostDec => format!("({a}--)"),
            }
        }
        Expr::Binary(op, a, b) => {
            let sym = match op {
                BinaryOp::Add => "+",
                BinaryOp::Sub => "-",
                BinaryOp::Mul => "*",
                BinaryOp::Div => "/",
                BinaryOp::Rem => "%",
                BinaryOp::Shl => "<<",
                BinaryOp::Shr => ">>",
                BinaryOp::Lt => "<",
                BinaryOp::Le => "<=",
                BinaryOp::Gt => ">",
                BinaryOp::Ge => ">=",
                BinaryOp::Eq => "==",
                BinaryOp::Ne => "!=",
                BinaryOp::BitAnd => "&",
                BinaryOp::BitXor => "^",
                BinaryOp::BitOr => "|",
                BinaryOp::LogicalAnd => "&&",
                BinaryOp::LogicalOr => "||",
            };
            format!("({} {sym} {})", expr(a), expr(b))
        }
        Expr::Assign(op, lhs, rhs) => {
            let sym = match op {
                AssignOp::Assign => "=",
                AssignOp::Add => "+=",
                AssignOp::Sub => "-=",
                AssignOp::Mul => "*=",
                AssignOp::Div => "/=",
                AssignOp::Rem => "%=",
                AssignOp::Shl => "<<=",
                AssignOp::Shr => ">>=",
                AssignOp::And => "&=",
                AssignOp::Or => "|=",
                AssignOp::Xor => "^=",
            };
            format!("({} {sym} {})", expr(lhs), expr(rhs))
        }
        Expr::Cond(c, a, b) => format!("({} ? {} : {})", expr(c), expr(a), expr(b)),
        Expr::Index(base, idx) => format!("{}[{}]", expr(base), expr(idx)),
        Expr::Call(name, args) => {
            let args = args.iter().map(expr).collect::<Vec<_>>().join(", ");
            format!("{name}({args})")
        }
        Expr::Cast(t, inner) => format!("(({}){})", ty(t), expr(inner)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{lexer, parser, preproc};

    fn reparse(src: &str) -> TranslationUnit {
        parser::parse(preproc::preprocess(lexer::lex(src).unwrap(), &[]).unwrap()).unwrap()
    }

    fn roundtrip(src: &str) {
        let tu = reparse(src);
        let printed = print_unit(&tu);
        let tu2 = reparse(&printed);
        assert_eq!(tu, tu2, "pretty output diverged:\n{printed}");
    }

    #[test]
    fn roundtrips_listing_4_1() {
        roundtrip(
            r#"
            __global__ void mathTest(int* in, int* out, int argA, int argB, int loopCount) {
                int acc = 0;
                const unsigned int stride = argA * argB;
                const unsigned int offset = blockIdx.x * blockDim.x + threadIdx.x;
                for (int i = 0; i < loopCount; i++) {
                    acc += *(in + offset + i * stride);
                }
                *(out + offset) = acc;
                return;
            }
            "#,
        );
    }

    #[test]
    fn roundtrips_shared_multi_and_pragma() {
        roundtrip(
            r#"
            __constant__ float filt[32];
            texture<float> tex;
            __device__ float square(float x) { return x * x; }
            __global__ void k(float* p, int n) {
                __shared__ float tile[4][8];
                int a = 1, b = 2;
                float* q = (float*)p;
                #pragma unroll 4
                for (int i = 0; i < n; i++) {
                    tile[threadIdx.y][threadIdx.x] = q[i] > 0.5f ? square(q[i]) : -q[i];
                    __syncthreads();
                }
                do { a--; } while (a > 0 && b != 0);
                while (b > 0) { b >>= 1; }
                if (n % 2) { p[0] = 1.0f; } else { p[1] = 2.5e-2f; }
                p[a] = (float)(b++);
            }
            "#,
        );
    }

    #[test]
    fn unsigned_and_large_literals_roundtrip() {
        roundtrip("__global__ void k(unsigned int* o) { o[0] = 5000000000 + 7u; }");
    }
}
