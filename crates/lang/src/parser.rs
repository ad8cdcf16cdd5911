//! Recursive-descent parser: preprocessed tokens → AST. Its expression
//! grammar is ks-lang's only one: `#if` parses with it too.

use crate::ast::*;
use crate::preproc::PRAGMA_UNROLL;
use crate::token::{LangError, Punct, Tok, Token};

struct Parser {
    toks: Vec<Token>,
    pos: usize,
}

/// Parse a preprocessed token stream into a translation unit.
pub fn parse(toks: Vec<Token>) -> Result<TranslationUnit, LangError> {
    let mut p = Parser { toks, pos: 0 };
    let mut items = Vec::new();
    while !p.at_end() {
        items.push(p.item()?);
    }
    Ok(TranslationUnit { items })
}

/// Parse `toks`, all of them, as one constant-expression (C11 6.6, a
/// conditional-expression): the controlling expression of `#if`.
pub(crate) fn parse_constant_expr(toks: Vec<Token>) -> Result<Expr, LangError> {
    let mut p = Parser { toks, pos: 0 };
    let e = p.conditional()?;
    match p.peek() {
        None => Ok(e),
        Some(t) => Err(p.err(format!("unexpected {t:?} after the expression"))),
    }
}

impl Parser {
    fn at_end(&self) -> bool {
        self.pos >= self.toks.len()
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|t| &t.tok)
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).map(|t| t.tok.clone());
        self.pos += 1;
        t
    }

    fn err(&self, msg: impl Into<String>) -> LangError {
        let (l, c) = self
            .toks
            .get(self.pos.min(self.toks.len().saturating_sub(1)))
            .map(|t| (t.line, t.col))
            .unwrap_or((0, 0));
        LangError::new("parse", l, c, msg)
    }

    fn eat_punct(&mut self, p: Punct) -> bool {
        if self.peek() == Some(&Tok::Punct(p)) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, p: Punct) -> Result<(), LangError> {
        if self.eat_punct(p) {
            Ok(())
        } else {
            Err(self.err(format!(
                "expected '{}', found {:?}",
                p.as_str(),
                self.peek()
            )))
        }
    }

    fn eat_ident(&mut self, s: &str) -> bool {
        if matches!(self.peek(), Some(Tok::Ident(i)) if i == s) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_ident(&mut self) -> Result<String, LangError> {
        match self.bump() {
            Some(Tok::Ident(s)) => Ok(s),
            t => Err(self.err(format!("expected identifier, found {t:?}"))),
        }
    }

    /// Try to parse a type specifier starting at the current position.
    /// Returns `None` (without consuming) if the next tokens are not a type.
    fn try_type(&mut self) -> Option<TypeSpec> {
        let save = self.pos;
        let base = if self.eat_ident("void") {
            TypeSpec::Void
        } else if self.eat_ident("unsigned") {
            // `unsigned` or `unsigned int`
            self.eat_ident("int");
            TypeSpec::UInt
        } else if self.eat_ident("int") {
            TypeSpec::Int
        } else if self.eat_ident("float") {
            TypeSpec::Float
        } else if self.eat_ident("size_t") || self.eat_ident("unsigned_int") {
            TypeSpec::UInt
        } else {
            self.pos = save;
            return None;
        };
        let mut ty = base;
        while self.eat_punct(Punct::Star) {
            ty = ty.ptr();
        }
        Some(ty)
    }

    fn item(&mut self) -> Result<Item, LangError> {
        // Texture reference: `texture<float[, dims[, mode]]> name;`
        if self.eat_ident("texture") {
            self.expect_punct(Punct::Lt)?;
            let elem = self
                .try_type()
                .ok_or_else(|| self.err("expected element type in texture<>"))?;
            // Skip optional dimensionality / read-mode arguments.
            while self.eat_punct(Punct::Comma) {
                self.bump();
            }
            self.expect_punct(Punct::Gt)?;
            let name = self.expect_ident()?;
            self.expect_punct(Punct::Semi)?;
            return Ok(Item::Texture(TextureDecl { name, elem }));
        }
        // Qualifiers can appear in any order: __global__, __device__,
        // __constant__, __forceinline__, static, const.
        let mut kind: Option<FnKind> = None;
        let mut constant = false;
        loop {
            if self.eat_ident("__global__") {
                kind = Some(FnKind::Kernel);
            } else if self.eat_ident("__device__") {
                kind = Some(FnKind::Device);
            } else if self.eat_ident("__constant__") {
                constant = true;
            } else if self.eat_ident("__forceinline__")
                || self.eat_ident("__noinline__")
                || self.eat_ident("static")
                || self.eat_ident("inline")
                || self.eat_ident("const")
            {
                // accepted and ignored
            } else {
                break;
            }
        }
        let ty = self.try_type().ok_or_else(|| self.err("expected type"))?;
        let name = self.expect_ident()?;
        if constant {
            let mut dims = Vec::new();
            while self.eat_punct(Punct::LBracket) {
                dims.push(self.expr()?);
                self.expect_punct(Punct::RBracket)?;
            }
            self.expect_punct(Punct::Semi)?;
            if dims.is_empty() {
                return Err(self.err("__constant__ declarations must be arrays"));
            }
            return Ok(Item::Constant(ConstantDecl {
                name,
                elem: ty,
                dims,
            }));
        }
        let kind =
            kind.ok_or_else(|| self.err("top-level functions must be __global__ or __device__"))?;
        self.expect_punct(Punct::LParen)?;
        let mut params = Vec::new();
        if !self.eat_punct(Punct::RParen) {
            loop {
                // `const` in parameter types accepted and ignored.
                while self.eat_ident("const") {}
                let pty = self
                    .try_type()
                    .ok_or_else(|| self.err("expected parameter type"))?;
                while self.eat_ident("const") {}
                // `restrict` / `__restrict__` accepted and ignored.
                while self.eat_ident("__restrict__") || self.eat_ident("restrict") {}
                let pname = self.expect_ident()?;
                params.push(FnParam {
                    name: pname,
                    ty: pty,
                });
                if self.eat_punct(Punct::RParen) {
                    break;
                }
                self.expect_punct(Punct::Comma)?;
            }
        }
        self.expect_punct(Punct::LBrace)?;
        let body = self.block_body()?;
        Ok(Item::Func(FuncDef {
            kind,
            name,
            ret: ty,
            params,
            body,
        }))
    }

    fn block_body(&mut self) -> Result<Vec<Stmt>, LangError> {
        let mut stmts = Vec::new();
        while !self.eat_punct(Punct::RBrace) {
            if self.at_end() {
                return Err(self.err("unexpected end of input in block"));
            }
            stmts.push(self.stmt()?);
        }
        Ok(stmts)
    }

    fn stmt(&mut self) -> Result<Stmt, LangError> {
        // #pragma unroll [N]
        if self.eat_ident(PRAGMA_UNROLL) {
            let factor = if let Some(Tok::Int { value, .. }) = self.peek() {
                let v = *value as u32;
                self.pos += 1;
                Some(v)
            } else {
                None
            };
            let s = self.stmt()?;
            return match s {
                Stmt::For {
                    init,
                    cond,
                    step,
                    body,
                    ..
                } => Ok(Stmt::For {
                    init,
                    cond,
                    step,
                    body,
                    unroll: Some(factor),
                }),
                other => Ok(other), // pragma on a non-loop: ignored
            };
        }
        if self.eat_punct(Punct::Semi) {
            return Ok(Stmt::Empty);
        }
        if self.eat_punct(Punct::LBrace) {
            return Ok(Stmt::Block(self.block_body()?));
        }
        if self.eat_ident("if") {
            self.expect_punct(Punct::LParen)?;
            let cond = self.expr()?;
            self.expect_punct(Punct::RParen)?;
            let then_s = Box::new(self.stmt()?);
            let else_s = if self.eat_ident("else") {
                Some(Box::new(self.stmt()?))
            } else {
                None
            };
            return Ok(Stmt::If {
                cond,
                then_s,
                else_s,
            });
        }
        if self.eat_ident("for") {
            self.expect_punct(Punct::LParen)?;
            let init = if self.eat_punct(Punct::Semi) {
                None
            } else {
                Some(Box::new(self.decl_or_expr_stmt()?))
            };
            let cond = if self.peek() == Some(&Tok::Punct(Punct::Semi)) {
                None
            } else {
                Some(self.expr()?)
            };
            self.expect_punct(Punct::Semi)?;
            let step = if self.peek() == Some(&Tok::Punct(Punct::RParen)) {
                None
            } else {
                Some(self.expr()?)
            };
            self.expect_punct(Punct::RParen)?;
            let body = Box::new(self.stmt()?);
            return Ok(Stmt::For {
                init,
                cond,
                step,
                body,
                unroll: None,
            });
        }
        if self.eat_ident("while") {
            self.expect_punct(Punct::LParen)?;
            let cond = self.expr()?;
            self.expect_punct(Punct::RParen)?;
            let body = Box::new(self.stmt()?);
            return Ok(Stmt::While { cond, body });
        }
        if self.eat_ident("do") {
            let body = Box::new(self.stmt()?);
            if !self.eat_ident("while") {
                return Err(self.err("expected 'while' after do-body"));
            }
            self.expect_punct(Punct::LParen)?;
            let cond = self.expr()?;
            self.expect_punct(Punct::RParen)?;
            self.expect_punct(Punct::Semi)?;
            return Ok(Stmt::DoWhile { body, cond });
        }
        if self.eat_ident("return") {
            if self.eat_punct(Punct::Semi) {
                return Ok(Stmt::Return(None));
            }
            let e = self.expr()?;
            self.expect_punct(Punct::Semi)?;
            return Ok(Stmt::Return(Some(e)));
        }
        if self.eat_ident("break") {
            self.expect_punct(Punct::Semi)?;
            return Ok(Stmt::Break);
        }
        if self.eat_ident("continue") {
            self.expect_punct(Punct::Semi)?;
            return Ok(Stmt::Continue);
        }
        if self.eat_ident("__syncthreads") {
            self.expect_punct(Punct::LParen)?;
            self.expect_punct(Punct::RParen)?;
            self.expect_punct(Punct::Semi)?;
            return Ok(Stmt::Sync);
        }
        self.decl_or_expr_stmt()
    }

    /// A declaration or an expression statement, consuming the trailing ';'.
    fn decl_or_expr_stmt(&mut self) -> Result<Stmt, LangError> {
        let shared = self.eat_ident("__shared__");
        let is_const = self.eat_ident("const");
        // Allow `__shared__` after `const` too.
        let shared = shared || self.eat_ident("__shared__");
        if let Some(ty) = self.try_type() {
            // Declaration (possibly multiple declarators: int a = 1, b = 2;)
            let mut decls = Vec::new();
            loop {
                let mut dty = ty.clone();
                while self.eat_punct(Punct::Star) {
                    dty = dty.ptr();
                }
                let name = self.expect_ident()?;
                let mut dims = Vec::new();
                while self.eat_punct(Punct::LBracket) {
                    dims.push(self.expr()?);
                    self.expect_punct(Punct::RBracket)?;
                }
                let init = if self.eat_punct(Punct::Assign) {
                    Some(self.assignment()?)
                } else {
                    None
                };
                decls.push(Stmt::Decl(Decl {
                    name,
                    ty: dty,
                    dims,
                    init,
                    shared,
                    is_const,
                }));
                if self.eat_punct(Punct::Semi) {
                    break;
                }
                self.expect_punct(Punct::Comma)?;
            }
            return Ok(if decls.len() == 1 {
                decls.pop().unwrap()
            } else {
                Stmt::Multi(decls)
            });
        }
        if shared || is_const {
            return Err(self.err("expected type after qualifier"));
        }
        let e = self.expr()?;
        self.expect_punct(Punct::Semi)?;
        Ok(Stmt::Expr(e))
    }

    // ---- expressions (C precedence) ----

    fn expr(&mut self) -> Result<Expr, LangError> {
        self.assignment()
    }

    fn assignment(&mut self) -> Result<Expr, LangError> {
        let lhs = self.conditional()?;
        let op = match self.peek() {
            Some(Tok::Punct(Punct::Assign)) => AssignOp::Assign,
            Some(Tok::Punct(Punct::PlusAssign)) => AssignOp::Add,
            Some(Tok::Punct(Punct::MinusAssign)) => AssignOp::Sub,
            Some(Tok::Punct(Punct::StarAssign)) => AssignOp::Mul,
            Some(Tok::Punct(Punct::SlashAssign)) => AssignOp::Div,
            Some(Tok::Punct(Punct::PercentAssign)) => AssignOp::Rem,
            Some(Tok::Punct(Punct::ShlAssign)) => AssignOp::Shl,
            Some(Tok::Punct(Punct::ShrAssign)) => AssignOp::Shr,
            Some(Tok::Punct(Punct::AmpAssign)) => AssignOp::And,
            Some(Tok::Punct(Punct::PipeAssign)) => AssignOp::Or,
            Some(Tok::Punct(Punct::CaretAssign)) => AssignOp::Xor,
            _ => return Ok(lhs),
        };
        self.pos += 1;
        let rhs = self.assignment()?;
        Ok(Expr::Assign(op, Box::new(lhs), Box::new(rhs)))
    }

    fn conditional(&mut self) -> Result<Expr, LangError> {
        let c = self.binary(1)?;
        if self.eat_punct(Punct::Question) {
            let a = self.assignment()?;
            self.expect_punct(Punct::Colon)?;
            let b = self.conditional()?;
            Ok(Expr::Cond(Box::new(c), Box::new(a), Box::new(b)))
        } else {
            Ok(c)
        }
    }

    fn binary(&mut self, min_prec: u8) -> Result<Expr, LangError> {
        let mut lhs = self.unary()?;
        while let Some(&Tok::Punct(p)) = self.peek() {
            let (prec, op) = match p {
                Punct::Star => (10, BinaryOp::Mul),
                Punct::Slash => (10, BinaryOp::Div),
                Punct::Percent => (10, BinaryOp::Rem),
                Punct::Plus => (9, BinaryOp::Add),
                Punct::Minus => (9, BinaryOp::Sub),
                Punct::Shl => (8, BinaryOp::Shl),
                Punct::Shr => (8, BinaryOp::Shr),
                Punct::Lt => (7, BinaryOp::Lt),
                Punct::Le => (7, BinaryOp::Le),
                Punct::Gt => (7, BinaryOp::Gt),
                Punct::Ge => (7, BinaryOp::Ge),
                Punct::EqEq => (6, BinaryOp::Eq),
                Punct::NotEq => (6, BinaryOp::Ne),
                Punct::Amp => (5, BinaryOp::BitAnd),
                Punct::Caret => (4, BinaryOp::BitXor),
                Punct::Pipe => (3, BinaryOp::BitOr),
                Punct::AndAnd => (2, BinaryOp::LogicalAnd),
                Punct::OrOr => (1, BinaryOp::LogicalOr),
                _ => break,
            };
            if prec < min_prec {
                break;
            }
            self.pos += 1;
            let rhs = self.binary(prec + 1)?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Expr, LangError> {
        // Cast: '(' type ')' unary — distinguished from parenthesized expr
        // by attempting a type parse after '('.
        if self.peek() == Some(&Tok::Punct(Punct::LParen)) {
            let save = self.pos;
            self.pos += 1;
            if let Some(ty) = self.try_type() {
                if self.eat_punct(Punct::RParen) {
                    let inner = self.unary()?;
                    return Ok(Expr::Cast(ty, Box::new(inner)));
                }
            }
            self.pos = save;
        }
        match self.peek() {
            Some(Tok::Punct(Punct::Minus)) => {
                self.pos += 1;
                Ok(Expr::Unary(UnaryOp::Neg, Box::new(self.unary()?)))
            }
            Some(Tok::Punct(Punct::Plus)) => {
                self.pos += 1;
                self.unary()
            }
            Some(Tok::Punct(Punct::Not)) => {
                self.pos += 1;
                Ok(Expr::Unary(UnaryOp::LogicalNot, Box::new(self.unary()?)))
            }
            Some(Tok::Punct(Punct::Tilde)) => {
                self.pos += 1;
                Ok(Expr::Unary(UnaryOp::BitNot, Box::new(self.unary()?)))
            }
            Some(Tok::Punct(Punct::Star)) => {
                self.pos += 1;
                Ok(Expr::Unary(UnaryOp::Deref, Box::new(self.unary()?)))
            }
            Some(Tok::Punct(Punct::PlusPlus)) => {
                self.pos += 1;
                Ok(Expr::Unary(UnaryOp::PreInc, Box::new(self.unary()?)))
            }
            Some(Tok::Punct(Punct::MinusMinus)) => {
                self.pos += 1;
                Ok(Expr::Unary(UnaryOp::PreDec, Box::new(self.unary()?)))
            }
            _ => self.postfix(),
        }
    }

    fn postfix(&mut self) -> Result<Expr, LangError> {
        let mut e = self.primary()?;
        loop {
            if self.eat_punct(Punct::LBracket) {
                let idx = self.expr()?;
                self.expect_punct(Punct::RBracket)?;
                e = Expr::Index(Box::new(e), Box::new(idx));
            } else if self.peek() == Some(&Tok::Punct(Punct::PlusPlus)) {
                self.pos += 1;
                e = Expr::Unary(UnaryOp::PostInc, Box::new(e));
            } else if self.peek() == Some(&Tok::Punct(Punct::MinusMinus)) {
                self.pos += 1;
                e = Expr::Unary(UnaryOp::PostDec, Box::new(e));
            } else {
                break;
            }
        }
        Ok(e)
    }

    fn primary(&mut self) -> Result<Expr, LangError> {
        match self.bump() {
            Some(Tok::Int { value, unsigned }) => Ok(Expr::IntLit { value, unsigned }),
            Some(Tok::Float(v)) => Ok(Expr::FloatLit(v)),
            Some(Tok::Punct(Punct::LParen)) => {
                let e = self.expr()?;
                self.expect_punct(Punct::RParen)?;
                Ok(e)
            }
            Some(Tok::Ident(name)) => {
                // Built-in geometry variables with member access.
                let builtin = match name.as_str() {
                    "threadIdx" => Some(BuiltinVar::ThreadIdx),
                    "blockIdx" => Some(BuiltinVar::BlockIdx),
                    "blockDim" => Some(BuiltinVar::BlockDim),
                    "gridDim" => Some(BuiltinVar::GridDim),
                    _ => None,
                };
                if let Some(b) = builtin {
                    self.expect_punct(Punct::Dot)?;
                    let member = self.expect_ident()?;
                    let d = match member.as_str() {
                        "x" => Dim3::X,
                        "y" => Dim3::Y,
                        "z" => Dim3::Z,
                        m => return Err(self.err(format!("unknown component .{m}"))),
                    };
                    return Ok(Expr::Builtin(b, d));
                }
                // Function call?
                if self.peek() == Some(&Tok::Punct(Punct::LParen)) {
                    self.pos += 1;
                    let mut args = Vec::new();
                    if !self.eat_punct(Punct::RParen) {
                        loop {
                            args.push(self.assignment()?);
                            if self.eat_punct(Punct::RParen) {
                                break;
                            }
                            self.expect_punct(Punct::Comma)?;
                        }
                    }
                    return Ok(Expr::Call(name, args));
                }
                Ok(Expr::Ident(name))
            }
            t => Err(self.err(format!("unexpected token {t:?} in expression"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::preproc::preprocess;

    fn parse_src(src: &str) -> TranslationUnit {
        parse(preprocess(lex(src).unwrap(), &[]).unwrap()).unwrap()
    }

    #[test]
    fn parses_listing_4_1_kernel() {
        // The run-time-evaluated mathTest kernel from the dissertation.
        let src = r#"
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
        "#;
        let tu = parse_src(src);
        assert_eq!(tu.items.len(), 1);
        let Item::Func(f) = &tu.items[0] else {
            panic!()
        };
        assert_eq!(f.kind, FnKind::Kernel);
        assert_eq!(f.name, "mathTest");
        assert_eq!(f.params.len(), 5);
        assert_eq!(f.params[0].ty, TypeSpec::Int.ptr());
        // body: acc decl, stride decl, offset decl, for, assign, return
        assert_eq!(f.body.len(), 6);
        assert!(matches!(&f.body[3], Stmt::For { .. }));
    }

    #[test]
    fn shared_and_constant_decls() {
        let src = r#"
            __constant__ float filt[32];
            __global__ void k(float* p) {
                __shared__ float tile[4][8];
                tile[threadIdx.y][threadIdx.x] = p[0];
                __syncthreads();
            }
        "#;
        let tu = parse_src(src);
        let Item::Constant(c) = &tu.items[0] else {
            panic!()
        };
        assert_eq!(c.name, "filt");
        assert_eq!(c.dims.len(), 1);
        let Item::Func(f) = &tu.items[1] else {
            panic!()
        };
        let Stmt::Decl(d) = &f.body[0] else { panic!() };
        assert!(d.shared);
        assert_eq!(d.dims.len(), 2);
        assert!(matches!(f.body[2], Stmt::Sync));
    }

    #[test]
    fn pragma_unroll_binds_to_loop() {
        let src = r#"
            __global__ void k(int* p, int n) {
                #pragma unroll 4
                for (int i = 0; i < n; i++) { p[i] = i; }
            }
        "#;
        let tu = parse_src(src);
        let Item::Func(f) = &tu.items[0] else {
            panic!()
        };
        let Stmt::For { unroll, .. } = &f.body[0] else {
            panic!()
        };
        assert_eq!(*unroll, Some(Some(4)));
    }

    #[test]
    fn cast_vs_paren_disambiguation() {
        let src = r#"
            __global__ void k(int* out) {
                int a = (int)1.5f;
                int b = (a) + 2;
                float* p = (float*)out;
                p[0] = 0.0f;
            }
        "#;
        let tu = parse_src(src);
        let Item::Func(f) = &tu.items[0] else {
            panic!()
        };
        let Stmt::Decl(d) = &f.body[0] else { panic!() };
        assert!(matches!(d.init, Some(Expr::Cast(TypeSpec::Int, _))));
        let Stmt::Decl(d2) = &f.body[2] else { panic!() };
        assert!(matches!(&d2.init, Some(Expr::Cast(TypeSpec::Ptr(_), _))));
    }

    #[test]
    fn operator_precedence() {
        let src = "__global__ void k(int* o, int a, int b) { o[0] = a + b * 2 << 1; }";
        let tu = parse_src(src);
        let Item::Func(f) = &tu.items[0] else {
            panic!()
        };
        let Stmt::Expr(Expr::Assign(_, _, rhs)) = &f.body[0] else {
            panic!()
        };
        // ((a + (b*2)) << 1)
        let Expr::Binary(BinaryOp::Shl, l, _) = rhs.as_ref() else {
            panic!()
        };
        assert!(matches!(l.as_ref(), Expr::Binary(BinaryOp::Add, _, _)));
    }

    #[test]
    fn multiple_declarators() {
        let src = "__global__ void k(int* o) { int a = 1, b = 2; o[0] = a + b; }";
        let tu = parse_src(src);
        let Item::Func(f) = &tu.items[0] else {
            panic!()
        };
        assert!(matches!(&f.body[0], Stmt::Multi(v) if v.len() == 2));
    }

    #[test]
    fn ternary_and_compound_assign() {
        let src = "__global__ void k(int* o, int a) { o[0] += a > 0 ? a : -a; }";
        let tu = parse_src(src);
        let Item::Func(f) = &tu.items[0] else {
            panic!()
        };
        let Stmt::Expr(Expr::Assign(AssignOp::Add, _, rhs)) = &f.body[0] else {
            panic!()
        };
        assert!(matches!(rhs.as_ref(), Expr::Cond(..)));
    }

    #[test]
    fn device_function() {
        let src = r#"
            __device__ float square(float x) { return x * x; }
            __global__ void k(float* o) { o[0] = square(3.0f); }
        "#;
        let tu = parse_src(src);
        let Item::Func(f) = &tu.items[0] else {
            panic!()
        };
        assert_eq!(f.kind, FnKind::Device);
        assert_eq!(f.ret, TypeSpec::Float);
    }

    #[test]
    fn missing_semicolon_is_error() {
        let src = "__global__ void k(int* o) { o[0] = 1 }";
        let toks = preprocess(lex(src).unwrap(), &[]).unwrap();
        assert!(parse(toks).is_err());
    }

    #[test]
    fn while_and_do_while() {
        let src = r#"
            __global__ void k(int* o, int n) {
                int i = 0;
                while (i < n) { i++; }
                do { i--; } while (i > 0);
                o[0] = i;
            }
        "#;
        let tu = parse_src(src);
        let Item::Func(f) = &tu.items[0] else {
            panic!()
        };
        assert!(matches!(&f.body[1], Stmt::While { .. }));
        assert!(matches!(&f.body[2], Stmt::DoWhile { .. }));
    }
}
