//! Untyped abstract syntax tree produced by the parser.

/// Type specifiers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TypeSpec {
    Void,
    Int,
    UInt,
    Float,
    Ptr(Box<TypeSpec>),
}

impl TypeSpec {
    pub fn ptr(self) -> TypeSpec {
        TypeSpec::Ptr(Box::new(self))
    }
}

/// The four CUDA built-in thread-geometry variables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BuiltinVar {
    ThreadIdx,
    BlockIdx,
    BlockDim,
    GridDim,
}

/// Component of a built-in variable (`.x`, `.y`, `.z`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dim3 {
    X,
    Y,
    Z,
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    Neg,
    LogicalNot,
    BitNot,
    /// `*p`
    Deref,
    PreInc,
    PreDec,
    PostInc,
    PostDec,
}

/// Binary operators (excluding assignment, handled separately).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinaryOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Shl,
    Shr,
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
    BitAnd,
    BitXor,
    BitOr,
    LogicalAnd,
    LogicalOr,
}

/// Assignment operators. `Assign` is plain `=`; the rest are compound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AssignOp {
    Assign,
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

impl AssignOp {
    /// The underlying binary op for a compound assignment.
    pub(crate) fn binary(self) -> Option<BinaryOp> {
        Some(match self {
            AssignOp::Assign => return None,
            AssignOp::Add => BinaryOp::Add,
            AssignOp::Sub => BinaryOp::Sub,
            AssignOp::Mul => BinaryOp::Mul,
            AssignOp::Div => BinaryOp::Div,
            AssignOp::Rem => BinaryOp::Rem,
            AssignOp::Shl => BinaryOp::Shl,
            AssignOp::Shr => BinaryOp::Shr,
            AssignOp::And => BinaryOp::BitAnd,
            AssignOp::Or => BinaryOp::BitOr,
            AssignOp::Xor => BinaryOp::BitXor,
        })
    }
}

/// Expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// `unsigned`: written with a `u` suffix. The literal's type also
    /// depends on the width it is read at (`constexpr::literal_unsigned`).
    IntLit {
        value: i64,
        unsigned: bool,
    },
    FloatLit(f32),
    Ident(String),
    Builtin(BuiltinVar, Dim3),
    Unary(UnaryOp, Box<Expr>),
    Binary(BinaryOp, Box<Expr>, Box<Expr>),
    Assign(AssignOp, Box<Expr>, Box<Expr>),
    Cond(Box<Expr>, Box<Expr>, Box<Expr>),
    Index(Box<Expr>, Box<Expr>),
    Call(String, Vec<Expr>),
    Cast(TypeSpec, Box<Expr>),
}

impl Expr {
    pub fn int(v: i64) -> Expr {
        Expr::IntLit {
            value: v,
            unsigned: false,
        }
    }
}

/// A variable declaration (statement form).
#[derive(Debug, Clone, PartialEq)]
pub struct Decl {
    pub name: String,
    pub ty: TypeSpec,
    /// Array dimensions; empty for scalars. Sizes must be compile-time
    /// constants (checked in sema), mirroring the CUDA restriction.
    pub dims: Vec<Expr>,
    pub init: Option<Expr>,
    pub shared: bool,
    pub is_const: bool,
}

/// Statements.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    Decl(Decl),
    Expr(Expr),
    If {
        cond: Expr,
        then_s: Box<Stmt>,
        else_s: Option<Box<Stmt>>,
    },
    For {
        init: Option<Box<Stmt>>,
        cond: Option<Expr>,
        step: Option<Expr>,
        body: Box<Stmt>,
        /// `#pragma unroll` preceding the loop: `None` = no pragma,
        /// `Some(None)` = full unroll requested, `Some(Some(n))` = factor n.
        unroll: Option<Option<u32>>,
    },
    While {
        cond: Expr,
        body: Box<Stmt>,
    },
    DoWhile {
        body: Box<Stmt>,
        cond: Expr,
    },
    Return(Option<Expr>),
    Break,
    Continue,
    Block(Vec<Stmt>),
    /// Several declarations from one `int a = 1, b = 2;` statement —
    /// unlike `Block`, introduces no scope.
    Multi(Vec<Stmt>),
    /// `__syncthreads();`
    Sync,
    /// Empty statement (`;`).
    Empty,
}

/// Function parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct FnParam {
    pub name: String,
    pub ty: TypeSpec,
}

/// Function kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FnKind {
    /// `__global__` kernel entry point.
    Kernel,
    /// `__device__` helper, force-inlined at call sites.
    Device,
}

/// A function definition.
#[derive(Debug, Clone, PartialEq)]
pub struct FuncDef {
    pub kind: FnKind,
    pub name: String,
    pub ret: TypeSpec,
    pub params: Vec<FnParam>,
    pub body: Vec<Stmt>,
}

/// A module-scope `__constant__` array declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct ConstantDecl {
    pub name: String,
    pub elem: TypeSpec,
    pub dims: Vec<Expr>,
}

/// A module-scope texture reference: `texture<float> name;`.
#[derive(Debug, Clone, PartialEq)]
pub struct TextureDecl {
    pub name: String,
    pub elem: TypeSpec,
}

/// Top-level item.
#[derive(Debug, Clone, PartialEq)]
pub enum Item {
    Func(FuncDef),
    Constant(ConstantDecl),
    Texture(TextureDecl),
}

/// A parsed translation unit.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TranslationUnit {
    pub items: Vec<Item>,
}
