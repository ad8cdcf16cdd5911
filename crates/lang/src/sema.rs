//! Semantic analysis: name resolution, type checking, device-function
//! inlining, and lowering of the untyped AST into a typed HIR that the
//! code generator consumes.
//!
//! The HIR keeps structured control flow (needed for AST-level loop
//! unrolling in `ks-codegen`) but resolves every name to a symbol id and
//! annotates every expression with a type. Array dimensions fold through
//! the front end's one constant evaluator (`constexpr`) at 32 bits, which
//! also decides an integer literal's type.

use crate::ast::{self, BinaryOp, Expr, FnKind, Item, Stmt, TranslationUnit, TypeSpec, UnaryOp};
use crate::constexpr;
use crate::token::LangError;
use std::collections::HashMap;

/// The typed intermediate representation.
pub mod hir {
    pub use crate::ast::{BuiltinVar, Dim3};

    /// Element type of pointers, arrays, and constant memory.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum Elem {
        Int,
        UInt,
        Float,
    }

    impl Elem {
        pub fn size_bytes(self) -> u32 {
            4
        }
    }

    /// Scalar expression types.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum HTy {
        Int,
        UInt,
        Float,
        Bool,
        Ptr(Elem),
    }

    impl HTy {
        pub fn from_elem(e: Elem) -> HTy {
            match e {
                Elem::Int => HTy::Int,
                Elem::UInt => HTy::UInt,
                Elem::Float => HTy::Float,
            }
        }

        pub(crate) fn as_elem(self) -> Option<Elem> {
            match self {
                HTy::Int => Some(Elem::Int),
                HTy::UInt => Some(Elem::UInt),
                HTy::Float => Some(Elem::Float),
                _ => None,
            }
        }
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
    pub struct LocalId(pub u32);
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub struct ParamId(pub u32);
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub struct SharedId(pub u32);
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub struct ConstId(pub u32);
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub struct TexId(pub u32);

    /// Built-in device functions.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum BuiltinFn {
        Sqrtf,
        Rsqrtf,
        Fabsf,
        Floorf,
        Fminf,
        Fmaxf,
        MinI,
        MaxI,
        MinU,
        MaxU,
        AbsI,
        Mul24,
        UMul24,
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum HBinOp {
        Add,
        Sub,
        Mul,
        Div,
        Rem,
        Shl,
        Shr,
        And,
        Or,
        Xor,
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum HUnOp {
        Neg,
        BitNot,
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum HCmp {
        Eq,
        Ne,
        Lt,
        Le,
        Gt,
        Ge,
    }

    /// An lvalue.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Place {
        /// Scalar local variable.
        Local(LocalId),
        /// Element of a per-thread local array (flattened element index).
        LocalElem(LocalId, Box<HExpr>),
        /// Element of a `__shared__` array (flattened element index).
        SharedElem(SharedId, Box<HExpr>),
        /// `*ptr` into global memory.
        Deref { ptr: Box<HExpr>, elem: Elem },
    }

    /// Typed expressions.
    #[derive(Debug, Clone, PartialEq)]
    pub enum HExpr {
        IntLit {
            value: i64,
            ty: HTy,
        },
        FloatLit(f32),
        /// Read a scalar local.
        Local(LocalId, HTy),
        /// Read a kernel parameter.
        Param(ParamId, HTy),
        Builtin(BuiltinVar, Dim3),
        Unary(HUnOp, HTy, Box<HExpr>),
        Binary(HBinOp, HTy, Box<HExpr>, Box<HExpr>),
        /// Comparison over operands of type `ty`; result is Bool.
        Cmp(HCmp, HTy, Box<HExpr>, Box<HExpr>),
        LogAnd(Box<HExpr>, Box<HExpr>),
        LogOr(Box<HExpr>, Box<HExpr>),
        LogNot(Box<HExpr>),
        /// `cond ? a : b` with result type `ty`.
        Cond(Box<HExpr>, Box<HExpr>, Box<HExpr>, HTy),
        /// Read through a place (local/shared array element, deref).
        Load(Place, HTy),
        /// Element of `__constant__` memory.
        ConstElem(ConstId, Box<HExpr>, Elem),
        /// `tex1Dfetch(texref, idx)` — unfiltered 1-D texture fetch.
        TexFetch(TexId, Box<HExpr>, Elem),
        Call(BuiltinFn, Vec<HExpr>, HTy),
        /// Numeric or pointer cast.
        Cast {
            to: HTy,
            from: HTy,
            val: Box<HExpr>,
        },
        /// Pointer + element offset (scaled by element size at codegen).
        PtrAdd {
            ptr: Box<HExpr>,
            offset: Box<HExpr>,
            elem: Elem,
        },
    }

    impl HExpr {
        pub fn ty(&self) -> HTy {
            match self {
                HExpr::IntLit { ty, .. } => *ty,
                HExpr::FloatLit(_) => HTy::Float,
                HExpr::Local(_, ty) | HExpr::Param(_, ty) => *ty,
                HExpr::Builtin(..) => HTy::UInt,
                HExpr::Unary(_, ty, _) | HExpr::Binary(_, ty, ..) => *ty,
                HExpr::Cmp(..) | HExpr::LogAnd(..) | HExpr::LogOr(..) | HExpr::LogNot(_) => {
                    HTy::Bool
                }
                HExpr::Cond(_, _, _, ty) => *ty,
                HExpr::Load(_, ty) => *ty,
                HExpr::ConstElem(_, _, e) => HTy::from_elem(*e),
                HExpr::TexFetch(_, _, e) => HTy::from_elem(*e),
                HExpr::Call(_, _, ty) => *ty,
                HExpr::Cast { to, .. } => *to,
                HExpr::PtrAdd { elem, .. } => HTy::Ptr(*elem),
            }
        }

        pub(crate) fn int(v: i64) -> HExpr {
            HExpr::IntLit {
                value: v,
                ty: HTy::Int,
            }
        }
    }

    /// Typed statements. Control flow stays structured for unrolling.
    #[derive(Debug, Clone, PartialEq)]
    pub enum HStmt {
        Assign {
            place: Place,
            value: HExpr,
        },
        If {
            cond: HExpr,
            then_s: Vec<HStmt>,
            else_s: Vec<HStmt>,
        },
        For {
            init: Vec<HStmt>,
            cond: Option<HExpr>,
            step: Vec<HStmt>,
            body: Vec<HStmt>,
            unroll: Option<Option<u32>>,
        },
        While {
            cond: HExpr,
            body: Vec<HStmt>,
        },
        DoWhile {
            body: Vec<HStmt>,
            cond: HExpr,
        },
        Break,
        Continue,
        /// `return;` from a kernel.
        Return,
        Sync,
    }

    /// A declared local (scalar or per-thread array).
    #[derive(Debug, Clone, PartialEq)]
    pub struct HLocal {
        pub name: String,
        pub elem: Elem,
        /// `HTy` of the scalar, or the element type for arrays. For pointer
        /// locals this is `Ptr(..)`.
        pub ty: HTy,
        /// Total flattened element count; 0 for scalars.
        pub array_len: u32,
    }

    /// A `__shared__` array.
    #[derive(Debug, Clone, PartialEq)]
    pub struct HShared {
        pub name: String,
        pub elem: Elem,
        pub len: u32,
    }

    /// A kernel parameter.
    #[derive(Debug, Clone, PartialEq)]
    pub struct HParam {
        pub name: String,
        pub ty: HTy,
    }

    /// A type-checked kernel.
    #[derive(Debug, Clone, PartialEq)]
    pub struct HFunc {
        pub name: String,
        pub params: Vec<HParam>,
        pub locals: Vec<HLocal>,
        pub shared: Vec<HShared>,
        pub body: Vec<HStmt>,
    }

    /// A `__constant__` declaration.
    #[derive(Debug, Clone, PartialEq)]
    pub struct HConst {
        pub name: String,
        pub elem: Elem,
        pub len: u32,
    }

    /// A texture reference.
    #[derive(Debug, Clone, PartialEq)]
    pub struct HTex {
        pub name: String,
        pub elem: Elem,
    }

    /// A fully checked translation unit (kernels only; device functions
    /// are inlined away during checking).
    #[derive(Debug, Clone, Default, PartialEq)]
    pub struct Program {
        pub kernels: Vec<HFunc>,
        pub consts: Vec<HConst>,
        pub textures: Vec<HTex>,
    }
}

use hir::*;

fn serr(msg: impl Into<String>) -> LangError {
    LangError::new("sema", 0, 0, msg)
}

/// Convert an AST type to an HIR type. Arrays are handled at declaration
/// sites; nested pointers are rejected.
fn lower_type(t: &TypeSpec) -> Result<HTy, LangError> {
    Ok(match t {
        TypeSpec::Int => HTy::Int,
        TypeSpec::UInt => HTy::UInt,
        TypeSpec::Float => HTy::Float,
        TypeSpec::Void => return Err(serr("void is not a value type")),
        TypeSpec::Ptr(inner) => match inner.as_ref() {
            TypeSpec::Int => HTy::Ptr(Elem::Int),
            TypeSpec::UInt => HTy::Ptr(Elem::UInt),
            TypeSpec::Float => HTy::Ptr(Elem::Float),
            _ => return Err(serr("only single-level pointers to scalars are supported")),
        },
    })
}

/// The dimensions of an array declaration, each folded once at 32 bits
/// ([`constexpr::eval`]), and its element count. Every dimension must be
/// a positive integer constant and the count must fit 32 bits; `what`
/// names the array.
fn array_dims(dims: &[Expr], what: &str) -> Result<(Vec<u32>, u32), LangError> {
    let mut sizes = Vec::with_capacity(dims.len());
    let mut len = 1u32;
    let too_big = || serr(format!("{what}: more than {} elements", u32::MAX));
    for dim in dims {
        let v = constexpr::eval(dim, 32)
            .and_then(Result::ok)
            .ok_or_else(|| match dim {
                Expr::IntLit { .. } => too_big(),
                _ => serr(format!(
                    "{what}: array size must be a compile-time constant \
                     (specialize the controlling parameter)"
                )),
            })?;
        if v <= 0 {
            return Err(serr(format!("{what}: non-positive dimension")));
        }
        let d = u32::try_from(v).map_err(|_| too_big())?;
        len = len.checked_mul(d).ok_or_else(too_big)?;
        sizes.push(d);
    }
    Ok((sizes, len))
}

#[derive(Clone)]
enum Sym {
    Local(LocalId),
    Param(ParamId),
    Shared(SharedId),
    Const(ConstId),
    Texture(TexId),
}

struct FnCtx<'a> {
    devices: &'a HashMap<String, &'a ast::FuncDef>,
    params: Vec<HParam>,
    locals: Vec<HLocal>,
    shared: Vec<HShared>,
    consts: &'a [HConst],
    textures: &'a [HTex],
    /// Lexical scopes mapping names to symbols.
    scopes: Vec<HashMap<String, Sym>>,
    /// Device-function inline stack (recursion guard).
    inline_stack: Vec<String>,
    /// Declared dimensions of each `__shared__` array (parallel to `shared`),
    /// kept so multi-dimensional indexing can be flattened.
    shared_dims: Vec<Vec<u32>>,
    /// Declared dimensions of local arrays.
    local_dims: HashMap<LocalId, Vec<u32>>,
}

impl<'a> FnCtx<'a> {
    fn lookup(&self, name: &str) -> Option<Sym> {
        for scope in self.scopes.iter().rev() {
            if let Some(s) = scope.get(name) {
                return Some(s.clone());
            }
        }
        None
    }

    fn declare(&mut self, name: &str, sym: Sym) {
        self.scopes
            .last_mut()
            .unwrap()
            .insert(name.to_string(), sym);
    }

    fn new_local(&mut self, name: &str, ty: HTy, array_len: u32, elem: Elem) -> LocalId {
        let id = LocalId(self.locals.len() as u32);
        self.locals.push(HLocal {
            name: name.to_string(),
            elem,
            ty,
            array_len,
        });
        self.declare(name, Sym::Local(id));
        id
    }

    fn local_ty(&self, id: LocalId) -> HTy {
        self.locals[id.0 as usize].ty
    }

    // ---- statements ----

    fn stmts(&mut self, stmts: &[Stmt], out: &mut Vec<HStmt>) -> Result<(), LangError> {
        self.scopes.push(HashMap::new());
        for s in stmts {
            self.stmt(s, out)?;
        }
        self.scopes.pop();
        Ok(())
    }

    fn stmt(&mut self, s: &Stmt, out: &mut Vec<HStmt>) -> Result<(), LangError> {
        match s {
            Stmt::Empty => Ok(()),
            Stmt::Block(v) => self.stmts(v, out),
            Stmt::Multi(v) => {
                for d in v {
                    self.stmt(d, out)?;
                }
                Ok(())
            }
            Stmt::Sync => {
                out.push(HStmt::Sync);
                Ok(())
            }
            Stmt::Break => {
                out.push(HStmt::Break);
                Ok(())
            }
            Stmt::Continue => {
                out.push(HStmt::Continue);
                Ok(())
            }
            Stmt::Return(None) => {
                out.push(HStmt::Return);
                Ok(())
            }
            Stmt::Return(Some(_)) => Err(serr(
                "kernels cannot return a value (device functions are inlined)",
            )),
            Stmt::Decl(d) => self.decl(d, out),
            Stmt::Expr(e) => self.expr_stmt(e, out),
            Stmt::If {
                cond,
                then_s,
                else_s,
            } => {
                let cond = self.condition(cond, out)?;
                let then_s = self.scoped(then_s)?;
                let else_s = match else_s {
                    Some(s) => self.scoped(s)?,
                    None => Vec::new(),
                };
                out.push(HStmt::If {
                    cond,
                    then_s,
                    else_s,
                });
                Ok(())
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
                unroll,
            } => {
                self.scopes.push(HashMap::new());
                let mut i = Vec::new();
                if let Some(s) = init {
                    self.stmt(s, &mut i)?;
                }
                let c = cond.as_ref().map(|c| self.loop_condition(c)).transpose()?;
                let mut st = Vec::new();
                if let Some(s) = step {
                    self.expr_stmt(s, &mut st)?;
                }
                let mut b = Vec::new();
                self.stmt(body, &mut b)?;
                self.scopes.pop();
                out.push(HStmt::For {
                    init: i,
                    cond: c,
                    step: st,
                    body: b,
                    unroll: *unroll,
                });
                Ok(())
            }
            Stmt::While { cond, body } => {
                let cond = self.loop_condition(cond)?;
                let body = self.scoped(body)?;
                out.push(HStmt::While { cond, body });
                Ok(())
            }
            Stmt::DoWhile { body, cond } => {
                let body = self.scoped(body)?;
                let cond = self.loop_condition(cond)?;
                out.push(HStmt::DoWhile { body, cond });
                Ok(())
            }
        }
    }

    /// `s` in a scope of its own.
    fn scoped(&mut self, s: &Stmt) -> Result<Vec<HStmt>, LangError> {
        let mut out = Vec::new();
        self.scopes.push(HashMap::new());
        self.stmt(s, &mut out)?;
        self.scopes.pop();
        Ok(out)
    }

    /// A loop condition: it re-executes every iteration, so it cannot emit
    /// pre-statements (the device-inline buffer).
    fn loop_condition(&mut self, e: &Expr) -> Result<HExpr, LangError> {
        let mut pre = Vec::new();
        let c = self.condition(e, &mut pre)?;
        match pre.is_empty() {
            true => Ok(c),
            false => Err(serr("loop conditions may not call device functions")),
        }
    }

    fn decl(&mut self, d: &ast::Decl, out: &mut Vec<HStmt>) -> Result<(), LangError> {
        if d.shared {
            if d.init.is_some() {
                return Err(serr(format!(
                    "__shared__ {} cannot have an initializer",
                    d.name
                )));
            }
            let elem = lower_type(&d.ty)?
                .as_elem()
                .ok_or_else(|| serr("__shared__ arrays must have scalar elements"))?;
            let (dims, len) = array_dims(&d.dims, &format!("__shared__ {}", d.name))?;
            if d.dims.is_empty() {
                return Err(serr(format!("__shared__ {} must be an array", d.name)));
            }
            let id = SharedId(self.shared.len() as u32);
            self.shared.push(HShared {
                name: d.name.clone(),
                elem,
                len,
            });
            // Record flattened row strides for multi-dim indexing.
            self.declare(&d.name, Sym::Shared(id));
            self.shared_dims.push(dims);
            return Ok(());
        }
        let ty = lower_type(&d.ty)?;
        if !d.dims.is_empty() {
            // Per-thread local array.
            let elem = ty
                .as_elem()
                .ok_or_else(|| serr("local arrays must have scalar elements"))?;
            let (dims, len) = array_dims(&d.dims, &d.name)?;
            let id = self.new_local(&d.name, HTy::from_elem(elem), len, elem);
            self.local_dims.insert(id, dims);
            if d.init.is_some() {
                return Err(serr("array initializers are not supported"));
            }
            return Ok(());
        }
        let elem = ty.as_elem().unwrap_or(Elem::Int);
        let id = self.new_local(&d.name, ty, 0, elem);
        if let Some(init) = &d.init {
            let v = self.expr(init, out)?;
            let v = self.coerce(v, ty)?;
            out.push(HStmt::Assign {
                place: Place::Local(id),
                value: v,
            });
        }
        Ok(())
    }

    /// Check an expression used as a statement: assignments, inc/dec, or
    /// (void) calls.
    fn expr_stmt(&mut self, e: &Expr, out: &mut Vec<HStmt>) -> Result<(), LangError> {
        match e {
            Expr::Assign(op, lhs, rhs) => {
                let (place, pty) = self.place(lhs, out)?;
                let r = self.expr(rhs, out)?;
                let value = match op.binary() {
                    None => self.coerce(r, pty)?,
                    Some(bop) => {
                        let cur = self.load_of(&place, pty);
                        let (a, b, ty) = self.usual_conversions(cur, r)?;
                        let combined = self.binary_typed(bop, a, b, ty)?;
                        self.coerce(combined, pty)?
                    }
                };
                out.push(HStmt::Assign { place, value });
                Ok(())
            }
            Expr::Unary(
                op @ (UnaryOp::PreInc | UnaryOp::PreDec | UnaryOp::PostInc | UnaryOp::PostDec),
                inner,
            ) => {
                let (place, pty) = self.place(inner, out)?;
                let delta = if matches!(op, UnaryOp::PreInc | UnaryOp::PostInc) {
                    1
                } else {
                    -1
                };
                let cur = self.load_of(&place, pty);
                let one = match pty {
                    HTy::Float => HExpr::FloatLit(delta as f32),
                    _ => HExpr::IntLit {
                        value: delta,
                        ty: pty,
                    },
                };
                let value = if pty == HTy::Ptr(Elem::Int)
                    || pty == HTy::Ptr(Elem::UInt)
                    || pty == HTy::Ptr(Elem::Float)
                {
                    let HTy::Ptr(e) = pty else { unreachable!() };
                    HExpr::PtrAdd {
                        ptr: Box::new(cur),
                        offset: Box::new(HExpr::int(delta)),
                        elem: e,
                    }
                } else {
                    HExpr::Binary(HBinOp::Add, pty, Box::new(cur), Box::new(one))
                };
                out.push(HStmt::Assign { place, value });
                Ok(())
            }
            Expr::Call(..) => {
                // Only void built-ins would land here; we have none besides
                // __syncthreads which the parser handles. Evaluate for
                // side effects of device functions.
                let _ = self.expr(e, out)?;
                Ok(())
            }
            _ => Err(serr("expression statement has no effect")),
        }
    }

    /// Read the current value of a place (scalar locals read as
    /// `HExpr::Local`, which the unroller and folder pattern-match on).
    fn load_of(&self, place: &Place, ty: HTy) -> HExpr {
        match place {
            Place::Local(id) => HExpr::Local(*id, ty),
            other => HExpr::Load(other.clone(), ty),
        }
    }

    /// Resolve an lvalue expression.
    fn place(&mut self, e: &Expr, out: &mut Vec<HStmt>) -> Result<(Place, HTy), LangError> {
        match e {
            Expr::Ident(name) => match self.lookup(name) {
                Some(Sym::Local(id)) => {
                    let ty = self.local_ty(id);
                    if self.locals[id.0 as usize].array_len > 0 {
                        Err(serr(format!("{name} is an array, not a scalar lvalue")))
                    } else {
                        Ok((Place::Local(id), ty))
                    }
                }
                Some(Sym::Param(_)) => Err(serr(format!(
                    "cannot assign to kernel parameter {name} (copy it to a local)"
                ))),
                Some(_) => Err(serr(format!("{name} is not assignable"))),
                None => Err(serr(format!("unknown identifier {name}"))),
            },
            Expr::Index(base, idx) => self.index_place(base, idx, out),
            Expr::Unary(UnaryOp::Deref, inner) => {
                let p = self.expr(inner, out)?;
                match p.ty() {
                    HTy::Ptr(elem) => Ok((
                        Place::Deref {
                            ptr: Box::new(p),
                            elem,
                        },
                        HTy::from_elem(elem),
                    )),
                    t => Err(serr(format!("cannot dereference non-pointer type {t:?}"))),
                }
            }
            _ => Err(serr("expression is not an lvalue")),
        }
    }

    /// `base[idx]` as an lvalue, handling multi-dimensional arrays by
    /// flattening: `a[i][j]` ⇒ element `i*dim1 + j`.
    fn index_place(
        &mut self,
        base: &Expr,
        idx: &Expr,
        out: &mut Vec<HStmt>,
    ) -> Result<(Place, HTy), LangError> {
        // Collect the index chain innermost-last.
        let mut indices = vec![idx];
        let mut root = base;
        while let Expr::Index(b, i) = root {
            indices.push(i);
            root = b;
        }
        indices.reverse();

        // Root must be an identifier (array or pointer) or pointer-valued expr.
        if let Expr::Ident(name) = root {
            match self.lookup(name) {
                Some(Sym::Shared(id)) => {
                    let dims = self.shared_dims[id.0 as usize].clone();
                    let flat = self.flatten_index(&dims, &indices, out)?;
                    let elem = self.shared[id.0 as usize].elem;
                    return Ok((Place::SharedElem(id, Box::new(flat)), HTy::from_elem(elem)));
                }
                Some(Sym::Local(id)) if self.locals[id.0 as usize].array_len > 0 => {
                    let dims = self.local_dims[&id].clone();
                    let flat = self.flatten_index(&dims, &indices, out)?;
                    let elem = self.locals[id.0 as usize].elem;
                    return Ok((Place::LocalElem(id, Box::new(flat)), HTy::from_elem(elem)));
                }
                Some(Sym::Const(_id)) => {
                    if indices.len() != 1 {
                        // Constant arrays were flattened at declaration.
                        return Err(serr("constant arrays use a single flat index"));
                    }
                    return Err(serr(format!("cannot assign to __constant__ {name}")));
                }
                _ => {}
            }
        }
        // Pointer indexing: p[i] = *(p + i). Only single index.
        if indices.len() != 1 {
            return Err(serr(
                "multi-dimensional indexing requires an array variable",
            ));
        }
        let p = self.expr(root, out)?;
        let HTy::Ptr(elem) = p.ty() else {
            return Err(serr(format!("cannot index non-pointer type {:?}", p.ty())));
        };
        let i = self.expr(indices[0], out)?;
        let i = self.coerce_int(i)?;
        let ptr = HExpr::PtrAdd {
            ptr: Box::new(p),
            offset: Box::new(i),
            elem,
        };
        Ok((
            Place::Deref {
                ptr: Box::new(ptr),
                elem,
            },
            HTy::from_elem(elem),
        ))
    }

    fn flatten_index(
        &mut self,
        dims: &[u32],
        indices: &[&Expr],
        out: &mut Vec<HStmt>,
    ) -> Result<HExpr, LangError> {
        if indices.len() != dims.len() {
            return Err(serr(format!(
                "array expects {} indices, got {}",
                dims.len(),
                indices.len()
            )));
        }
        let mut flat: Option<HExpr> = None;
        for (k, idx) in indices.iter().enumerate() {
            let i = self.expr(idx, out)?;
            let i = self.coerce_int(i)?;
            flat = Some(match flat {
                None => i,
                Some(acc) => {
                    let scaled = HExpr::Binary(
                        HBinOp::Mul,
                        HTy::Int,
                        Box::new(acc),
                        Box::new(HExpr::int(dims[k] as i64)),
                    );
                    HExpr::Binary(HBinOp::Add, HTy::Int, Box::new(scaled), Box::new(i))
                }
            });
        }
        Ok(flat.unwrap_or_else(|| HExpr::int(0)))
    }

    // ---- expressions ----

    /// A condition: any scalar; non-Bool is compared against zero.
    fn condition(&mut self, e: &Expr, out: &mut Vec<HStmt>) -> Result<HExpr, LangError> {
        let v = self.expr(e, out)?;
        Ok(match v.ty() {
            HTy::Bool => v,
            HTy::Float => HExpr::Cmp(
                HCmp::Ne,
                HTy::Float,
                Box::new(v),
                Box::new(HExpr::FloatLit(0.0)),
            ),
            t @ (HTy::Int | HTy::UInt) => HExpr::Cmp(
                HCmp::Ne,
                t,
                Box::new(v),
                Box::new(HExpr::IntLit { value: 0, ty: t }),
            ),
            HTy::Ptr(_) => {
                return Err(serr("pointers cannot be used as conditions"));
            }
        })
    }

    fn coerce_int(&self, e: HExpr) -> Result<HExpr, LangError> {
        match e.ty() {
            HTy::Int | HTy::UInt => Ok(e),
            HTy::Bool => Ok(HExpr::Cast {
                to: HTy::Int,
                from: HTy::Bool,
                val: Box::new(e),
            }),
            t => Err(serr(format!("expected integer index, got {t:?}"))),
        }
    }

    /// Insert an implicit conversion to `target`.
    fn coerce(&self, e: HExpr, target: HTy) -> Result<HExpr, LangError> {
        let from = e.ty();
        if from == target {
            return Ok(e);
        }
        let ok = matches!(
            (from, target),
            (HTy::Int, HTy::UInt)
                | (HTy::UInt, HTy::Int)
                | (HTy::Int, HTy::Float)
                | (HTy::UInt, HTy::Float)
                | (HTy::Float, HTy::Int)
                | (HTy::Float, HTy::UInt)
                | (HTy::Bool, HTy::Int)
                | (HTy::Bool, HTy::UInt)
                | (HTy::Bool, HTy::Float)
                | (HTy::Ptr(_), HTy::Ptr(_))
                | (HTy::Int, HTy::Ptr(_))
                | (HTy::UInt, HTy::Ptr(_))
        );
        if !ok {
            return Err(serr(format!(
                "cannot implicitly convert {from:?} to {target:?}"
            )));
        }
        Ok(HExpr::Cast {
            to: target,
            from,
            val: Box::new(e),
        })
    }

    /// C usual arithmetic conversions (simplified to our three scalars).
    fn usual_conversions(&self, a: HExpr, b: HExpr) -> Result<(HExpr, HExpr, HTy), LangError> {
        let (ta, tb) = (a.ty(), b.ty());
        // Pointer arithmetic handled by the caller.
        let target = match (ta, tb) {
            (HTy::Float, _) | (_, HTy::Float) => HTy::Float,
            (HTy::UInt, _) | (_, HTy::UInt) => HTy::UInt,
            _ => HTy::Int,
        };
        Ok((self.coerce(a, target)?, self.coerce(b, target)?, target))
    }

    fn binary_typed(&self, op: BinaryOp, a: HExpr, b: HExpr, ty: HTy) -> Result<HExpr, LangError> {
        let h = match op {
            BinaryOp::Add => HBinOp::Add,
            BinaryOp::Sub => HBinOp::Sub,
            BinaryOp::Mul => HBinOp::Mul,
            BinaryOp::Div => HBinOp::Div,
            BinaryOp::Rem => HBinOp::Rem,
            BinaryOp::Shl => HBinOp::Shl,
            BinaryOp::Shr => HBinOp::Shr,
            BinaryOp::BitAnd => HBinOp::And,
            BinaryOp::BitOr => HBinOp::Or,
            BinaryOp::BitXor => HBinOp::Xor,
            _ => return Err(serr("not an arithmetic operator")),
        };
        if ty == HTy::Float
            && matches!(
                h,
                HBinOp::Rem | HBinOp::Shl | HBinOp::Shr | HBinOp::And | HBinOp::Or | HBinOp::Xor
            )
        {
            return Err(serr(format!("operator {op:?} requires integer operands")));
        }
        Ok(HExpr::Binary(h, ty, Box::new(a), Box::new(b)))
    }

    fn expr(&mut self, e: &Expr, out: &mut Vec<HStmt>) -> Result<HExpr, LangError> {
        match e {
            Expr::IntLit { value, unsigned } => Ok(HExpr::IntLit {
                value: *value,
                ty: match constexpr::literal_unsigned(*value, *unsigned, 32) {
                    true => HTy::UInt,
                    false => HTy::Int,
                },
            }),
            Expr::FloatLit(v) => Ok(HExpr::FloatLit(*v)),
            Expr::Builtin(b, d) => Ok(HExpr::Builtin(*b, *d)),
            Expr::Ident(name) => match self.lookup(name) {
                Some(Sym::Local(id)) => {
                    let l = &self.locals[id.0 as usize];
                    if l.array_len > 0 {
                        Err(serr(format!("array {name} used without index")))
                    } else {
                        Ok(HExpr::Local(id, l.ty))
                    }
                }
                Some(Sym::Param(id)) => {
                    let ty = self.params[id.0 as usize].ty;
                    Ok(HExpr::Param(id, ty))
                }
                Some(Sym::Shared(_)) | Some(Sym::Const(_)) => {
                    Err(serr(format!("array {name} used without index")))
                }
                Some(Sym::Texture(_)) => Err(serr(format!(
                    "texture {name} can only be read via tex1Dfetch"
                ))),
                None => Err(serr(format!("unknown identifier {name}"))),
            },
            Expr::Index(base, idx) => {
                // Constant-memory reads are expression-only places.
                if let Expr::Ident(name) = base.as_ref() {
                    if let Some(Sym::Const(id)) = self.lookup(name) {
                        let i = self.expr(idx, out)?;
                        let i = self.coerce_int(i)?;
                        let elem = self.consts[id.0 as usize].elem;
                        return Ok(HExpr::ConstElem(id, Box::new(i), elem));
                    }
                }
                let (p, ty) = self.index_place(base, idx, out)?;
                Ok(HExpr::Load(p, ty))
            }
            Expr::Unary(UnaryOp::Deref, inner) => {
                let p = self.expr(inner, out)?;
                match p.ty() {
                    HTy::Ptr(elem) => Ok(HExpr::Load(
                        Place::Deref {
                            ptr: Box::new(p),
                            elem,
                        },
                        HTy::from_elem(elem),
                    )),
                    t => Err(serr(format!("cannot dereference {t:?}"))),
                }
            }
            Expr::Unary(UnaryOp::Neg, x) => {
                let v = self.expr(x, out)?;
                match v.ty() {
                    // C keeps the operand's type: `-x` of an `unsigned`
                    // is `unsigned` (it wraps, 2^32 - x).
                    t @ (HTy::Float | HTy::Int | HTy::UInt) => {
                        Ok(HExpr::Unary(HUnOp::Neg, t, Box::new(v)))
                    }
                    t => Err(serr(format!("cannot negate {t:?}"))),
                }
            }
            Expr::Unary(UnaryOp::BitNot, x) => {
                let v = self.expr(x, out)?;
                let t = v.ty();
                if !matches!(t, HTy::Int | HTy::UInt) {
                    return Err(serr("~ requires an integer operand"));
                }
                Ok(HExpr::Unary(HUnOp::BitNot, t, Box::new(v)))
            }
            Expr::Unary(UnaryOp::LogicalNot, x) => {
                let c = self.condition(x, out)?;
                Ok(HExpr::LogNot(Box::new(c)))
            }
            Expr::Unary(op, _) => Err(serr(format!(
                "operator {op:?} may only be used as a statement"
            ))),
            Expr::Binary(op, a, b) => {
                match op {
                    BinaryOp::LogicalAnd => {
                        let a = self.condition(a, out)?;
                        let b = self.condition(b, out)?;
                        return Ok(HExpr::LogAnd(Box::new(a), Box::new(b)));
                    }
                    BinaryOp::LogicalOr => {
                        let a = self.condition(a, out)?;
                        let b = self.condition(b, out)?;
                        return Ok(HExpr::LogOr(Box::new(a), Box::new(b)));
                    }
                    _ => {}
                }
                let va = self.expr(a, out)?;
                let vb = self.expr(b, out)?;
                let cmp = match op {
                    BinaryOp::Lt => Some(HCmp::Lt),
                    BinaryOp::Le => Some(HCmp::Le),
                    BinaryOp::Gt => Some(HCmp::Gt),
                    BinaryOp::Ge => Some(HCmp::Ge),
                    BinaryOp::Eq => Some(HCmp::Eq),
                    BinaryOp::Ne => Some(HCmp::Ne),
                    _ => None,
                };
                if let Some(c) = cmp {
                    // Pointer comparisons compare the addresses.
                    if let (HTy::Ptr(e), HTy::Ptr(_)) = (va.ty(), vb.ty()) {
                        return Ok(HExpr::Cmp(c, HTy::Ptr(e), Box::new(va), Box::new(vb)));
                    }
                    let (a, b, ty) = self.usual_conversions(va, vb)?;
                    return Ok(HExpr::Cmp(c, ty, Box::new(a), Box::new(b)));
                }
                // Pointer arithmetic: ptr ± int.
                if let HTy::Ptr(elem) = va.ty() {
                    return match op {
                        BinaryOp::Add => Ok(HExpr::PtrAdd {
                            ptr: Box::new(va),
                            offset: Box::new(self.coerce_int(vb)?),
                            elem,
                        }),
                        BinaryOp::Sub => {
                            let neg = HExpr::Unary(
                                HUnOp::Neg,
                                HTy::Int,
                                Box::new(self.coerce(vb, HTy::Int)?),
                            );
                            Ok(HExpr::PtrAdd {
                                ptr: Box::new(va),
                                offset: Box::new(neg),
                                elem,
                            })
                        }
                        _ => Err(serr("only + and - are defined on pointers")),
                    };
                }
                if let HTy::Ptr(elem) = vb.ty() {
                    if *op == BinaryOp::Add {
                        return Ok(HExpr::PtrAdd {
                            ptr: Box::new(vb),
                            offset: Box::new(self.coerce_int(va)?),
                            elem,
                        });
                    }
                    return Err(serr("invalid pointer operation"));
                }
                match op {
                    BinaryOp::Shl | BinaryOp::Shr => {
                        // Shift result type follows the left operand.
                        let t = va.ty();
                        if !matches!(t, HTy::Int | HTy::UInt) {
                            return Err(serr("shift requires integer operands"));
                        }
                        let vb = self.coerce_int(vb)?;
                        self.binary_typed(*op, va, vb, t)
                    }
                    _ => {
                        let (a, b, ty) = self.usual_conversions(va, vb)?;
                        self.binary_typed(*op, a, b, ty)
                    }
                }
            }
            Expr::Cond(c, a, b) => {
                let c = self.condition(c, out)?;
                let va = self.expr(a, out)?;
                let vb = self.expr(b, out)?;
                let (a, b, ty) = self.usual_conversions(va, vb)?;
                Ok(HExpr::Cond(Box::new(c), Box::new(a), Box::new(b), ty))
            }
            Expr::Cast(t, x) => {
                let v = self.expr(x, out)?;
                let to = lower_type(t)?;
                self.coerce_cast(v, to)
            }
            Expr::Assign(..) => Err(serr("assignment used as a value; split the statement")),
            Expr::Call(name, args) => self.call(name, args, out),
        }
    }

    /// Explicit casts allow everything `coerce` allows plus ptr↔int.
    fn coerce_cast(&self, v: HExpr, to: HTy) -> Result<HExpr, LangError> {
        let from = v.ty();
        if from == to {
            return Ok(v);
        }
        Ok(HExpr::Cast {
            to,
            from,
            val: Box::new(v),
        })
    }

    fn call(
        &mut self,
        name: &str,
        args: &[Expr],
        out: &mut Vec<HStmt>,
    ) -> Result<HExpr, LangError> {
        // Texture fetch: the first argument names a texture reference.
        if name == "tex1Dfetch" {
            if args.len() != 2 {
                return Err(serr("tex1Dfetch expects (texref, index)"));
            }
            let Expr::Ident(tex_name) = &args[0] else {
                return Err(serr(
                    "tex1Dfetch's first argument must be a texture reference",
                ));
            };
            let Some(Sym::Texture(id)) = self.lookup(tex_name) else {
                return Err(serr(format!("{tex_name} is not a texture reference")));
            };
            let idx = self.expr(&args[1], out)?;
            let idx = self.coerce_int(idx)?;
            let elem = self.textures[id.0 as usize].elem;
            return Ok(HExpr::TexFetch(id, Box::new(idx), elem));
        }
        // Built-ins first.
        let builtin: Option<(BuiltinFn, usize)> = match name {
            "sqrtf" => Some((BuiltinFn::Sqrtf, 1)),
            "rsqrtf" => Some((BuiltinFn::Rsqrtf, 1)),
            "fabsf" => Some((BuiltinFn::Fabsf, 1)),
            "floorf" => Some((BuiltinFn::Floorf, 1)),
            "fminf" => Some((BuiltinFn::Fminf, 2)),
            "fmaxf" => Some((BuiltinFn::Fmaxf, 2)),
            "min" => Some((BuiltinFn::MinI, 2)),
            "max" => Some((BuiltinFn::MaxI, 2)),
            "umin" => Some((BuiltinFn::MinU, 2)),
            "umax" => Some((BuiltinFn::MaxU, 2)),
            "abs" => Some((BuiltinFn::AbsI, 1)),
            "__mul24" => Some((BuiltinFn::Mul24, 2)),
            "__umul24" => Some((BuiltinFn::UMul24, 2)),
            _ => None,
        };
        if let Some((f, arity)) = builtin {
            if args.len() != arity {
                return Err(serr(format!("{name} expects {arity} argument(s)")));
            }
            // Every argument and the result have one type: `float` for
            // the math functions.
            let ty = match f {
                BuiltinFn::MinI | BuiltinFn::MaxI | BuiltinFn::AbsI | BuiltinFn::Mul24 => HTy::Int,
                BuiltinFn::MinU | BuiltinFn::MaxU | BuiltinFn::UMul24 => HTy::UInt,
                _ => HTy::Float,
            };
            let mut vals = Vec::new();
            for a in args {
                let v = self.expr(a, out)?;
                vals.push(self.coerce(v, ty)?);
            }
            return Ok(HExpr::Call(f, vals, ty));
        }
        // Device-function inlining.
        let Some(def) = self.devices.get(name).copied() else {
            return Err(serr(format!("unknown function {name}")));
        };
        if self.inline_stack.iter().any(|n| n == name) {
            return Err(serr(format!("recursive device function {name}")));
        }
        if args.len() != def.params.len() {
            return Err(serr(format!(
                "{name} expects {} argument(s), got {}",
                def.params.len(),
                args.len()
            )));
        }
        // Bind arguments to fresh locals in a fresh scope.
        self.inline_stack.push(name.to_string());
        self.scopes.push(HashMap::new());
        for (p, a) in def.params.iter().zip(args) {
            let ty = lower_type(&p.ty)?;
            let v = self.expr(a, out)?;
            let v = self.coerce(v, ty)?;
            let elem = ty.as_elem().unwrap_or(Elem::Int);
            // Unique backing name to keep diagnostics readable.
            let id = self.new_local(&format!("{name}.{}", p.name), ty, 0, elem);
            // Rebind the *parameter name* in the inline scope.
            self.declare(&p.name, Sym::Local(id));
            out.push(HStmt::Assign {
                place: Place::Local(id),
                value: v,
            });
        }
        // Body: all statements except a trailing `return expr;`.
        let (last, rest) = def
            .body
            .split_last()
            .ok_or_else(|| serr(format!("device function {name} has an empty body")))?;
        for s in rest {
            if matches!(s, Stmt::Return(_)) {
                return Err(serr(format!(
                    "device function {name}: early returns are not supported"
                )));
            }
            self.stmt(s, out)?;
        }
        let result = match last {
            Stmt::Return(Some(e)) => {
                let v = self.expr(e, out)?;
                let ret = lower_type(&def.ret)?;
                self.coerce(v, ret)?
            }
            _ => {
                return Err(serr(format!(
                    "device function {name} must end with `return expr;`"
                )))
            }
        };
        self.scopes.pop();
        self.inline_stack.pop();
        Ok(result)
    }
}

// Extra per-context tables that need interior setup.
impl<'a> FnCtx<'a> {
    fn new(
        devices: &'a HashMap<String, &'a ast::FuncDef>,
        consts: &'a [HConst],
        textures: &'a [HTex],
    ) -> Self {
        FnCtx {
            devices,
            params: Vec::new(),
            locals: Vec::new(),
            shared: Vec::new(),
            consts,
            textures,
            scopes: vec![HashMap::new()],
            inline_stack: Vec::new(),
            shared_dims: Vec::new(),
            local_dims: HashMap::new(),
        }
    }
}

/// Type-check a translation unit, producing a [`hir::Program`].
pub fn check(tu: &TranslationUnit) -> Result<Program, LangError> {
    let mut consts = Vec::new();
    let mut const_ids: HashMap<String, ConstId> = HashMap::new();
    let mut textures = Vec::new();
    let mut tex_ids: HashMap<String, TexId> = HashMap::new();
    let mut devices: HashMap<String, &ast::FuncDef> = HashMap::new();
    let mut kernels_src = Vec::new();

    for item in &tu.items {
        match item {
            Item::Texture(t) => {
                let elem = lower_type(&t.elem)?
                    .as_elem()
                    .ok_or_else(|| serr("texture element must be scalar"))?;
                if tex_ids.contains_key(&t.name) {
                    return Err(serr(format!("duplicate texture reference {}", t.name)));
                }
                let id = TexId(textures.len() as u32);
                tex_ids.insert(t.name.clone(), id);
                textures.push(HTex {
                    name: t.name.clone(),
                    elem,
                });
            }
            Item::Constant(c) => {
                let elem = lower_type(&c.elem)?
                    .as_elem()
                    .ok_or_else(|| serr("__constant__ element must be scalar"))?;
                let (_, len) = array_dims(&c.dims, &format!("__constant__ {}", c.name))?;
                if const_ids.contains_key(&c.name) {
                    return Err(serr(format!("duplicate __constant__ {}", c.name)));
                }
                let id = ConstId(consts.len() as u32);
                const_ids.insert(c.name.clone(), id);
                consts.push(HConst {
                    name: c.name.clone(),
                    elem,
                    len,
                });
            }
            Item::Func(f) => match f.kind {
                FnKind::Device => {
                    devices.insert(f.name.clone(), f);
                }
                FnKind::Kernel => kernels_src.push(f),
            },
        }
    }

    let mut kernels = Vec::new();
    for f in kernels_src {
        if f.ret != TypeSpec::Void {
            return Err(serr(format!("kernel {} must return void", f.name)));
        }
        let mut ctx = FnCtx::new(&devices, &consts, &textures);
        // Constants and textures visible inside every kernel.
        for (name, id) in &const_ids {
            ctx.declare(name, Sym::Const(*id));
        }
        for (name, id) in &tex_ids {
            ctx.declare(name, Sym::Texture(*id));
        }
        for p in &f.params {
            let ty = lower_type(&p.ty)?;
            let id = ParamId(ctx.params.len() as u32);
            ctx.params.push(HParam {
                name: p.name.clone(),
                ty,
            });
            ctx.declare(&p.name, Sym::Param(id));
        }
        let mut body = Vec::new();
        ctx.stmts(&f.body, &mut body)?;
        kernels.push(HFunc {
            name: f.name.clone(),
            params: ctx.params,
            locals: ctx.locals,
            shared: ctx.shared,
            body,
        });
    }
    Ok(Program {
        kernels,
        consts,
        textures,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse;
    use crate::preproc::preprocess;

    fn check_src(src: &str, defs: &[(&str, &str)]) -> Result<Program, LangError> {
        let defs: Vec<(String, String)> = defs
            .iter()
            .map(|(a, b)| (a.to_string(), b.to_string()))
            .collect();
        check(&parse(preprocess(lex(src).unwrap(), &defs).unwrap()).unwrap())
    }

    #[test]
    fn checks_mathtest_kernel() {
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
        let p = check_src(src, &[]).unwrap();
        assert_eq!(p.kernels.len(), 1);
        let k = &p.kernels[0];
        assert_eq!(k.params.len(), 5);
        assert_eq!(k.params[0].ty, HTy::Ptr(Elem::Int));
        // acc, stride, offset, i
        assert_eq!(k.locals.len(), 4);
    }

    #[test]
    fn shared_size_requires_constant() {
        let bad = "__global__ void k(int n) { __shared__ float t[n]; }";
        assert!(check_src(bad, &[]).is_err());
        let good = "__global__ void k(int n) { __shared__ float t[TILE]; t[0] = 1.0f; }";
        let p = check_src(good, &[("TILE", "16")]).unwrap();
        assert_eq!(p.kernels[0].shared[0].len, 16);
    }

    #[test]
    fn dimensions_fold_in_32_bit_int_and_unsigned() {
        let len = |dim: &str| {
            let src = format!("__global__ void k(float* o) {{ __shared__ float s[{dim}]; }}");
            check_src(&src, &[]).map(|p| p.kernels[0].shared[0].len)
        };
        // `~0u` is 0xFFFFFFFF, shifted logically.
        assert_eq!(len("~0u >> 28").unwrap(), 15);
        // Unsigned addition wraps at 32 bits.
        assert_eq!(len("0xFFFFFFFFu + 17u").unwrap(), 16);
        // An `int` shift is arithmetic, and an `int` that wraps negative
        // is not a size.
        assert!(len("~0 >> 28").is_err());
        assert!(len("0x7FFFFFFF + 1").is_err());
        assert_eq!(
            len("-1 < 0u").unwrap_err().to_string(),
            len("0").unwrap_err().to_string()
        );
    }

    #[test]
    fn literals_are_unsigned_when_no_int_holds_them() {
        for (lit, ty) in [
            ("2147483647", HTy::Int),
            ("2147483648", HTy::UInt),
            ("0x80000000", HTy::UInt),
            ("0xFFFFFFFF", HTy::UInt),
            ("7u", HTy::UInt),
        ] {
            let src = format!("__global__ void k(int* o) {{ o[0] = {lit}; }}");
            let p = check_src(&src, &[]).unwrap();
            let HStmt::Assign { value, .. } = &p.kernels[0].body[0] else {
                panic!()
            };
            let lit_ty = match value {
                HExpr::Cast { val, .. } => val.ty(),
                v => v.ty(),
            };
            assert_eq!(lit_ty, ty, "{lit}");
        }
    }

    #[test]
    fn multi_dim_shared_flattens() {
        let src = r#"
            __global__ void k(float* o) {
                __shared__ float t[4][8];
                t[threadIdx.y][threadIdx.x] = 1.0f;
                __syncthreads();
                o[0] = t[0][0];
            }
        "#;
        let p = check_src(src, &[]).unwrap();
        assert_eq!(p.kernels[0].shared[0].len, 32);
        // The store index should be y*8 + x.
        let HStmt::Assign {
            place: Place::SharedElem(_, idx),
            ..
        } = &p.kernels[0].body[0]
        else {
            panic!()
        };
        assert!(matches!(idx.as_ref(), HExpr::Binary(HBinOp::Add, ..)));
    }

    #[test]
    fn local_array_registered() {
        let src = "__global__ void k(float* o) { float acc[4]; acc[0] = 1.0f; o[0] = acc[0]; }";
        let p = check_src(src, &[]).unwrap();
        let k = &p.kernels[0];
        assert_eq!(k.locals[0].array_len, 4);
    }

    #[test]
    fn constant_memory_read_only() {
        let src = r#"
            __constant__ float filt[8];
            __global__ void k(float* o) { o[0] = filt[3]; }
        "#;
        let p = check_src(src, &[]).unwrap();
        assert_eq!(p.consts[0].len, 8);
        let bad = r#"
            __constant__ float filt[8];
            __global__ void k(float* o) { filt[0] = 1.0f; o[0] = 0.0f; }
        "#;
        assert!(check_src(bad, &[]).is_err());
    }

    #[test]
    fn unknown_identifier_rejected() {
        assert!(check_src("__global__ void k(int* o) { o[0] = wat; }", &[]).is_err());
    }

    #[test]
    fn device_function_inlined() {
        let src = r#"
            __device__ float sq(float x) { return x * x; }
            __global__ void k(float* o) { o[0] = sq(3.0f) + sq(2.0f); }
        "#;
        let p = check_src(src, &[]).unwrap();
        let k = &p.kernels[0];
        // Two inlined calls → two bound-arg locals.
        assert_eq!(k.locals.len(), 2);
        assert_eq!(k.body.len(), 3); // two arg assignments + the store
    }

    #[test]
    fn recursive_device_function_rejected() {
        let src = r#"
            __device__ int f(int x) { return f(x); }
            __global__ void k(int* o) { o[0] = f(1); }
        "#;
        assert!(check_src(src, &[]).is_err());
    }

    #[test]
    fn usual_conversions_int_uint_float() {
        let src = r#"
            __global__ void k(float* o, int a, unsigned int b) {
                o[0] = a + b;     // int + uint -> uint -> float store
                o[1] = a + 1.5f;  // int + float -> float
            }
        "#;
        let p = check_src(src, &[]).unwrap();
        assert_eq!(p.kernels.len(), 1);
    }

    #[test]
    fn assignment_to_param_rejected() {
        assert!(check_src("__global__ void k(int* o, int a) { a = 3; o[0] = a; }", &[]).is_err());
    }

    #[test]
    fn pointer_arithmetic_and_cast() {
        let src = r#"
            __global__ void k(int* out) {
                int* p = (int*)PTR_IN;
                out[threadIdx.x] = *(p + threadIdx.x);
            }
        "#;
        let p = check_src(src, &[("PTR_IN", "0x200ca0200")]).unwrap();
        assert_eq!(p.kernels.len(), 1);
    }

    #[test]
    fn kernel_with_value_return_rejected() {
        assert!(check_src("__global__ void k(int* o) { return 3; }", &[]).is_err());
    }

    #[test]
    fn break_continue_in_loops() {
        let src = r#"
            __global__ void k(int* o, int n) {
                int s = 0;
                for (int i = 0; i < n; i++) {
                    if (i == 3) { continue; }
                    if (i > 7) { break; }
                    s += i;
                }
                o[0] = s;
            }
        "#;
        assert!(check_src(src, &[]).is_ok());
    }

    #[test]
    fn shift_result_follows_lhs_type() {
        let src = "__global__ void k(int* o, unsigned int u) { o[0] = (int)(u >> 2); }";
        assert!(check_src(src, &[]).is_ok());
    }
}
