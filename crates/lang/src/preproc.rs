//! A token-level C preprocessor.
//!
//! This is the mechanism that makes kernel specialization work exactly the
//! way the dissertation uses `nvcc -D` (§4.4): undefined constants in kernel
//! source become macros supplied on the "command line". Supports:
//!
//! * command-line defines (`-D NAME=value`, `-D FLAG` ⇒ `1`),
//! * object-like and function-like `#define` / `#undef`,
//! * conditional compilation: `#if`, `#ifdef`, `#ifndef`, `#elif`, `#else`,
//!   `#endif`, with `defined()`; a condition parses with the C parser's
//!   expression grammar and folds in `intmax_t` / `uintmax_t` with the
//!   evaluator array sizes use ([`crate::constexpr`]),
//! * recursive macro expansion with self-reference protection (hide sets),
//! * `#pragma unroll [N]`, forwarded to the parser as a synthetic token,
//! * `#error`.

use crate::constexpr::{self, Undefined};
use crate::token::{LangError, Punct, Tok, Token};
use std::collections::{BTreeMap, HashSet};

/// Synthetic identifier the parser recognizes for `#pragma unroll`.
pub(crate) const PRAGMA_UNROLL: &str = "__pragma_unroll";

#[derive(Debug, Clone)]
struct MacroDef {
    /// `None` for object-like macros; parameter names otherwise.
    params: Option<Vec<String>>,
    body: Vec<Tok>,
}

struct Pp {
    macros: BTreeMap<String, MacroDef>,
    out: Vec<Token>,
}

fn err(t: Option<&Token>, msg: impl Into<String>) -> LangError {
    let (l, c) = t.map(|t| (t.line, t.col)).unwrap_or((0, 0));
    LangError::new("preprocess", l, c, msg)
}

/// Split the token stream into logical lines (a new line starts at a token
/// with `line_start == true`).
fn split_lines(tokens: Vec<Token>) -> Vec<Vec<Token>> {
    let mut lines: Vec<Vec<Token>> = Vec::new();
    for t in tokens {
        if t.line_start || lines.is_empty() {
            lines.push(vec![t]);
        } else {
            lines.last_mut().unwrap().push(t);
        }
    }
    lines
}

/// Run the preprocessor over a lexed token stream.
pub fn preprocess(
    tokens: Vec<Token>,
    defines: &[(String, String)],
) -> Result<Vec<Token>, LangError> {
    let mut pp = Pp {
        macros: BTreeMap::new(),
        out: Vec::new(),
    };
    for (name, value) in defines {
        let body = if value.is_empty() {
            vec![Tok::Int {
                value: 1,
                unsigned: false,
            }]
        } else {
            crate::lexer::lex(value)
                .map_err(|e| err(None, format!("in -D {name}={value}: {}", e.message)))?
                .into_iter()
                .map(|t| t.tok)
                .collect()
        };
        pp.macros
            .insert(name.clone(), MacroDef { params: None, body });
    }

    // Conditional-inclusion stack: (currently_active, any_branch_taken).
    let mut conds: Vec<(bool, bool)> = Vec::new();

    for line in split_lines(tokens) {
        let is_directive = matches!(line.first(), Some(t) if t.tok == Tok::Punct(Punct::Hash));
        let active = conds.iter().all(|&(a, _)| a);
        if is_directive {
            pp.directive(&line, &mut conds, active)?;
        } else if active {
            let mut expanded = Vec::new();
            pp.expand(&line, &HashSet::new(), &mut expanded)?;
            pp.out.extend(expanded);
        }
    }
    if !conds.is_empty() {
        return Err(err(None, "unterminated #if/#ifdef block"));
    }
    Ok(pp.out)
}

impl Pp {
    fn directive(
        &mut self,
        line: &[Token],
        conds: &mut Vec<(bool, bool)>,
        active: bool,
    ) -> Result<(), LangError> {
        let name = match line.get(1).map(|t| &t.tok) {
            Some(Tok::Ident(s)) => s.clone(),
            None => return Ok(()), // bare '#': null directive
            _ => return Err(err(line.get(1), "expected directive name after '#'")),
        };
        let rest = &line[2..];
        match name.as_str() {
            "define" if active => self.define(line, rest),
            "undef" if active => {
                if let Some(Tok::Ident(n)) = rest.first().map(|t| &t.tok) {
                    self.macros.remove(n);
                    Ok(())
                } else {
                    Err(err(rest.first(), "expected macro name after #undef"))
                }
            }
            "ifdef" | "ifndef" => {
                let cond = if active {
                    match rest.first().map(|t| &t.tok) {
                        Some(Tok::Ident(n)) => {
                            let d = self.macros.contains_key(n);
                            if name == "ifdef" {
                                d
                            } else {
                                !d
                            }
                        }
                        _ => return Err(err(rest.first(), "expected macro name")),
                    }
                } else {
                    false
                };
                conds.push((cond, cond));
                Ok(())
            }
            "if" => {
                let cond = if active {
                    self.eval_condition(line, rest)?
                } else {
                    false
                };
                conds.push((cond, cond));
                Ok(())
            }
            "elif" => {
                let Some(&(_, taken)) = conds.last() else {
                    return Err(err(line.first(), "#elif without #if"));
                };
                let parent_active = conds[..conds.len() - 1].iter().all(|&(a, _)| a);
                let cond = if parent_active && !taken {
                    self.eval_condition(line, rest)?
                } else {
                    false
                };
                let last = conds.last_mut().unwrap();
                last.0 = cond;
                last.1 = taken || cond;
                Ok(())
            }
            "else" => {
                let Some(&(_, taken)) = conds.last() else {
                    return Err(err(line.first(), "#else without #if"));
                };
                let parent_active = conds[..conds.len() - 1].iter().all(|&(a, _)| a);
                let last = conds.last_mut().unwrap();
                last.0 = parent_active && !taken;
                last.1 = true;
                Ok(())
            }
            "endif" => {
                if conds.pop().is_none() {
                    return Err(err(line.first(), "#endif without #if"));
                }
                Ok(())
            }
            "pragma" if active => {
                // Forward `#pragma unroll [N]` to the parser; ignore others.
                if matches!(rest.first().map(|t| &t.tok), Some(Tok::Ident(s)) if s == "unroll") {
                    let tmpl = line.first().unwrap();
                    self.out.push(Token {
                        tok: Tok::ident(PRAGMA_UNROLL),
                        line: tmpl.line,
                        col: tmpl.col,
                        line_start: false,
                    });
                    // Optional count: `#pragma unroll 4` or `#pragma unroll(4)`.
                    for t in &rest[1..] {
                        if let Tok::Int { .. } = t.tok {
                            self.out.push(Token {
                                line_start: false,
                                ..t.clone()
                            });
                        }
                    }
                }
                Ok(())
            }
            "error" if active => {
                let msg: Vec<String> = rest.iter().map(|t| t.tok.to_string()).collect();
                Err(err(line.first(), format!("#error {}", msg.join(" "))))
            }
            // Inactive regions still balance their nesting but skip content.
            "define" | "undef" | "pragma" | "error" => Ok(()),
            other => {
                if active {
                    Err(err(line.get(1), format!("unknown directive #{other}")))
                } else {
                    Ok(())
                }
            }
        }
    }

    fn define(&mut self, line: &[Token], rest: &[Token]) -> Result<(), LangError> {
        let Some(Tok::Ident(name)) = rest.first().map(|t| &t.tok) else {
            return Err(err(line.first(), "expected macro name after #define"));
        };
        let name = name.clone();
        // Function-like iff '(' immediately follows the name (same column
        // adjacency is approximated by token adjacency, which is what we
        // have after lexing; C requires no space, we accept adjacency).
        let is_fn = rest.len() > 1
            && rest[1].tok == Tok::Punct(Punct::LParen)
            && rest[1].line == rest[0].line
            && rest[1].col == rest[0].col + name.len() as u32;
        if is_fn {
            let mut params = Vec::new();
            let mut i = 2;
            if rest.get(i).map(|t| &t.tok) == Some(&Tok::Punct(Punct::RParen)) {
                i += 1;
            } else {
                loop {
                    match rest.get(i).map(|t| &t.tok) {
                        Some(Tok::Ident(p)) => params.push(p.clone()),
                        _ => return Err(err(rest.get(i), "expected macro parameter name")),
                    }
                    i += 1;
                    match rest.get(i).map(|t| &t.tok) {
                        Some(Tok::Punct(Punct::Comma)) => i += 1,
                        Some(Tok::Punct(Punct::RParen)) => {
                            i += 1;
                            break;
                        }
                        _ => return Err(err(rest.get(i), "expected ',' or ')' in macro params")),
                    }
                }
            }
            let body = rest[i..].iter().map(|t| t.tok.clone()).collect();
            self.macros.insert(
                name,
                MacroDef {
                    params: Some(params),
                    body,
                },
            );
        } else {
            let body = rest[1..].iter().map(|t| t.tok.clone()).collect();
            self.macros.insert(name, MacroDef { params: None, body });
        }
        Ok(())
    }

    /// Expand macros in `line`, appending to `out`. `hide` carries the set
    /// of macro names already being expanded (self-reference protection).
    fn expand(
        &self,
        line: &[Token],
        hide: &HashSet<String>,
        out: &mut Vec<Token>,
    ) -> Result<(), LangError> {
        let mut i = 0;
        while i < line.len() {
            let t = &line[i];
            let Tok::Ident(name) = &t.tok else {
                out.push(t.clone());
                i += 1;
                continue;
            };
            let Some(def) = self.macros.get(name) else {
                out.push(t.clone());
                i += 1;
                continue;
            };
            if hide.contains(name) {
                out.push(t.clone());
                i += 1;
                continue;
            }
            match &def.params {
                None => {
                    let mut h = hide.clone();
                    h.insert(name.clone());
                    let body: Vec<Token> = def
                        .body
                        .iter()
                        .map(|tok| Token {
                            tok: tok.clone(),
                            line: t.line,
                            col: t.col,
                            line_start: false,
                        })
                        .collect();
                    self.expand(&body, &h, out)?;
                    i += 1;
                }
                Some(params) => {
                    // Function-like: only expands when followed by '('.
                    if line.get(i + 1).map(|t| &t.tok) != Some(&Tok::Punct(Punct::LParen)) {
                        out.push(t.clone());
                        i += 1;
                        continue;
                    }
                    let (args, consumed) = collect_args(&line[i + 1..]).ok_or_else(|| {
                        err(Some(t), format!("unterminated call to macro {name}"))
                    })?;
                    if args.len() != params.len()
                        && !(params.is_empty() && args.len() == 1 && args[0].is_empty())
                    {
                        return Err(err(
                            Some(t),
                            format!(
                                "macro {name} expects {} arguments, got {}",
                                params.len(),
                                args.len()
                            ),
                        ));
                    }
                    // Pre-expand arguments (call-by-value prescan).
                    let mut exp_args: Vec<Vec<Token>> = Vec::with_capacity(args.len());
                    for a in &args {
                        let mut e = Vec::new();
                        self.expand(a, hide, &mut e)?;
                        exp_args.push(e);
                    }
                    // Substitute parameters in the body.
                    let mut subst: Vec<Token> = Vec::new();
                    for btok in &def.body {
                        if let Tok::Ident(b) = btok {
                            if let Some(pi) = params.iter().position(|p| p == b) {
                                subst.extend(exp_args[pi].iter().cloned());
                                continue;
                            }
                        }
                        subst.push(Token {
                            tok: btok.clone(),
                            line: t.line,
                            col: t.col,
                            line_start: false,
                        });
                    }
                    let mut h = hide.clone();
                    h.insert(name.clone());
                    self.expand(&subst, &h, out)?;
                    i += 1 + consumed;
                }
            }
        }
        Ok(())
    }

    /// Evaluate the controlling expression `toks` of the directive `line`
    /// (C11 6.10.1): resolve `defined`, expand macros, make every
    /// identifier left `0` (keywords too, so no cast parses), then parse
    /// one constant-expression and fold it at 64 bits.
    fn eval_condition(&self, line: &[Token], toks: &[Token]) -> Result<bool, LangError> {
        // First pass: resolve `defined(X)` / `defined X` before expansion.
        let mut resolved: Vec<Token> = Vec::new();
        let mut i = 0;
        while i < toks.len() {
            if toks[i].tok.is_ident("defined") {
                let punct =
                    |at: usize, p: Punct| toks.get(at).map(|t| &t.tok) == Some(&Tok::Punct(p));
                let paren = punct(i + 1, Punct::LParen);
                let (name_tok, consumed) = if paren {
                    (toks.get(i + 2), 4)
                } else {
                    (toks.get(i + 1), 2)
                };
                let Some(Tok::Ident(n)) = name_tok.map(|t| &t.tok) else {
                    return Err(err(toks.get(i), "expected name after defined"));
                };
                if paren && !punct(i + 3, Punct::RParen) {
                    return Err(err(toks.get(i), "missing ')' after defined"));
                }
                let v = i64::from(self.macros.contains_key(n));
                resolved.push(Token {
                    tok: Tok::Int {
                        value: v,
                        unsigned: false,
                    },
                    line: toks[i].line,
                    col: toks[i].col,
                    line_start: false,
                });
                i += consumed;
            } else {
                resolved.push(toks[i].clone());
                i += 1;
            }
        }
        let mut expanded = Vec::new();
        self.expand(&resolved, &HashSet::new(), &mut expanded)?;
        for t in &mut expanded {
            if let Tok::Ident(_) = t.tok {
                t.tok = Tok::Int {
                    value: 0,
                    unsigned: false,
                };
            }
        }
        let e = crate::parser::parse_constant_expr(expanded).map_err(|e| LangError {
            stage: "preprocess",
            ..e
        })?;
        let msg = match constexpr::eval(&e, 64) {
            Some(Ok(v)) => return Ok(v != 0),
            Some(Err(Undefined::DivisionByZero)) => "division by zero in #if",
            Some(Err(Undefined::Overflow)) => "integer overflow in #if division",
            None => "#if needs an integer constant expression",
        };
        Err(err(line.first(), msg))
    }
}

/// Collect macro-call arguments. `toks[0]` must be '('. Returns the argument
/// token lists and the number of tokens consumed (including both parens).
fn collect_args(toks: &[Token]) -> Option<(Vec<Vec<Token>>, usize)> {
    debug_assert_eq!(toks[0].tok, Tok::Punct(Punct::LParen));
    let mut args: Vec<Vec<Token>> = vec![Vec::new()];
    let mut depth = 1usize;
    let mut i = 1;
    while i < toks.len() {
        match &toks[i].tok {
            Tok::Punct(Punct::LParen) => {
                depth += 1;
                args.last_mut().unwrap().push(toks[i].clone());
            }
            Tok::Punct(Punct::RParen) => {
                depth -= 1;
                if depth == 0 {
                    return Some((args, i + 1));
                }
                args.last_mut().unwrap().push(toks[i].clone());
            }
            Tok::Punct(Punct::Comma) if depth == 1 => args.push(Vec::new()),
            _ => args.last_mut().unwrap().push(toks[i].clone()),
        }
        i += 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn pp(src: &str, defs: &[(&str, &str)]) -> Result<String, LangError> {
        let defs: Vec<(String, String)> = defs
            .iter()
            .map(|(a, b)| (a.to_string(), b.to_string()))
            .collect();
        let toks = preprocess(lex(src)?, &defs)?;
        Ok(toks
            .iter()
            .map(|t| t.tok.to_string())
            .collect::<Vec<_>>()
            .join(" "))
    }

    #[test]
    fn object_macro_expansion() {
        assert_eq!(pp("#define N 5\nint x = N;", &[]).unwrap(), "int x = 5 ;");
    }

    #[test]
    fn command_line_define_wins_like_nvcc_d() {
        assert_eq!(
            pp("int x = TILE_W;", &[("TILE_W", "32")]).unwrap(),
            "int x = 32 ;"
        );
        // Bare flag define becomes 1.
        assert_eq!(pp("int x = FLAG;", &[("FLAG", "")]).unwrap(), "int x = 1 ;");
    }

    #[test]
    fn function_like_macro() {
        assert_eq!(
            pp("#define MUL(a, b) ((a) * (b))\nint x = MUL(3, 4 + 1);", &[]).unwrap(),
            "int x = ( ( 3 ) * ( 4 + 1 ) ) ;"
        );
    }

    #[test]
    fn function_like_without_call_left_alone() {
        assert_eq!(pp("#define F(x) x\nint F;", &[]).unwrap(), "int F ;");
    }

    #[test]
    fn nested_macros_expand() {
        assert_eq!(
            pp("#define A B\n#define B 7\nint x = A;", &[]).unwrap(),
            "int x = 7 ;"
        );
    }

    #[test]
    fn self_reference_does_not_loop() {
        assert_eq!(
            pp("#define X X + 1\nint y = X;", &[]).unwrap(),
            "int y = X + 1 ;"
        );
    }

    #[test]
    fn ifdef_selects_branch() {
        let src = "#ifdef CT_COUNT\nint a;\n#else\nint b;\n#endif";
        assert_eq!(pp(src, &[("CT_COUNT", "4")]).unwrap(), "int a ;");
        assert_eq!(pp(src, &[]).unwrap(), "int b ;");
    }

    #[test]
    fn if_expression_with_defined_and_arith() {
        let src =
            "#if defined(A) && A >= 20\nint hi;\n#elif defined(A)\nint lo;\n#else\nint no;\n#endif";
        assert_eq!(pp(src, &[("A", "32")]).unwrap(), "int hi ;");
        assert_eq!(pp(src, &[("A", "8")]).unwrap(), "int lo ;");
        assert_eq!(pp(src, &[]).unwrap(), "int no ;");
    }

    #[test]
    fn nested_conditionals() {
        let src = "#if 1\n#if 0\nint a;\n#else\nint b;\n#endif\n#endif";
        assert_eq!(pp(src, &[]).unwrap(), "int b ;");
    }

    #[test]
    fn undef_removes() {
        let src = "#define N 1\n#undef N\n#ifdef N\nint a;\n#else\nint b;\n#endif";
        assert_eq!(pp(src, &[]).unwrap(), "int b ;");
    }

    #[test]
    fn pragma_unroll_forwarded() {
        let s = pp("#pragma unroll 4\nfor", &[]).unwrap();
        assert_eq!(s, "__pragma_unroll 4 for");
        let s = pp("#pragma unroll\nfor", &[]).unwrap();
        assert_eq!(s, "__pragma_unroll for");
    }

    #[test]
    fn error_directive_fires_only_when_active() {
        assert!(pp("#error boom", &[]).is_err());
        assert_eq!(
            pp("#if 0\n#error boom\n#endif\nint x;", &[]).unwrap(),
            "int x ;"
        );
    }

    #[test]
    fn unterminated_if_is_error() {
        assert!(pp("#if 1\nint x;", &[]).is_err());
    }

    #[test]
    fn multiline_define_via_continuation() {
        let src = "#define SUM(a,b) \\\n ((a)+(b))\nint x = SUM(1,2);";
        assert_eq!(pp(src, &[]).unwrap(), "int x = ( ( 1 ) + ( 2 ) ) ;");
    }

    #[test]
    fn ternary_in_condition() {
        assert_eq!(pp("#if 1 ? 2 : 0\nint a;\n#endif", &[]).unwrap(), "int a ;");
    }

    #[test]
    fn undefined_ident_in_if_is_zero() {
        assert_eq!(
            pp("#if WAT\nint a;\n#else\nint b;\n#endif", &[]).unwrap(),
            "int b ;"
        );
    }

    #[test]
    fn zero_arg_function_macro() {
        assert_eq!(
            pp("#define F() 42\nint x = F();", &[]).unwrap(),
            "int x = 42 ;"
        );
    }

    #[test]
    fn non_unroll_pragmas_are_dropped() {
        assert_eq!(pp("#pragma once\nint x;", &[]).unwrap(), "int x ;");
    }

    #[test]
    fn nested_macro_calls_in_arguments() {
        let src = "#define TWICE(x) ((x)*2)\n#define INC(x) ((x)+1)\nint v = TWICE(INC(3));";
        assert_eq!(pp(src, &[]).unwrap(), "int v = ( ( ( ( 3 ) + 1 ) ) * 2 ) ;");
    }

    #[test]
    fn default_value_pattern_from_paper() {
        // The Appendix-B pattern: define a default when not specified.
        let src = "#ifndef LOOP_COUNT\n#define LOOP_COUNT loopCount\n#endif\nx = LOOP_COUNT;";
        assert_eq!(pp(src, &[]).unwrap(), "x = loopCount ;");
        assert_eq!(pp(src, &[("LOOP_COUNT", "5")]).unwrap(), "x = 5 ;");
    }
}
