//! Tokens and the shared front-end error type.

use std::fmt;

/// Punctuators and operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Punct {
    Plus,
    Minus,
    Star,
    Slash,
    Percent,
    PlusPlus,
    MinusMinus,
    EqEq,
    NotEq,
    Lt,
    Le,
    Gt,
    Ge,
    AndAnd,
    OrOr,
    Not,
    Amp,
    Pipe,
    Caret,
    Tilde,
    Shl,
    Shr,
    Assign,
    PlusAssign,
    MinusAssign,
    StarAssign,
    SlashAssign,
    PercentAssign,
    AmpAssign,
    PipeAssign,
    CaretAssign,
    ShlAssign,
    ShrAssign,
    LParen,
    RParen,
    LBrace,
    RBrace,
    LBracket,
    RBracket,
    Semi,
    Comma,
    Dot,
    Question,
    Colon,
    Hash,
}

impl Punct {
    pub(crate) fn as_str(self) -> &'static str {
        use Punct::*;
        match self {
            Plus => "+",
            Minus => "-",
            Star => "*",
            Slash => "/",
            Percent => "%",
            PlusPlus => "++",
            MinusMinus => "--",
            EqEq => "==",
            NotEq => "!=",
            Lt => "<",
            Le => "<=",
            Gt => ">",
            Ge => ">=",
            AndAnd => "&&",
            OrOr => "||",
            Not => "!",
            Amp => "&",
            Pipe => "|",
            Caret => "^",
            Tilde => "~",
            Shl => "<<",
            Shr => ">>",
            Assign => "=",
            PlusAssign => "+=",
            MinusAssign => "-=",
            StarAssign => "*=",
            SlashAssign => "/=",
            PercentAssign => "%=",
            AmpAssign => "&=",
            PipeAssign => "|=",
            CaretAssign => "^=",
            ShlAssign => "<<=",
            ShrAssign => ">>=",
            LParen => "(",
            RParen => ")",
            LBrace => "{",
            RBrace => "}",
            LBracket => "[",
            RBracket => "]",
            Semi => ";",
            Comma => ",",
            Dot => ".",
            Question => "?",
            Colon => ":",
            Hash => "#",
        }
    }
}

/// A lexical token.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Tok {
    Ident(String),
    /// Integer literal: its bits, and whether it has a `u`/`U` suffix.
    Int {
        value: i64,
        unsigned: bool,
    },
    Float(f32),
    /// String literal: the text between the quotes, escapes as written.
    Str(String),
    Punct(Punct),
}

impl Tok {
    pub(crate) fn ident(s: &str) -> Tok {
        Tok::Ident(s.to_string())
    }

    pub(crate) fn is_ident(&self, s: &str) -> bool {
        matches!(self, Tok::Ident(i) if i == s)
    }
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(s) => f.write_str(s),
            Tok::Int { value, unsigned } => {
                write!(f, "{value}{}", if *unsigned { "u" } else { "" })
            }
            Tok::Float(v) => write!(f, "{v}f"),
            Tok::Str(s) => write!(f, "\"{s}\""),
            Tok::Punct(p) => f.write_str(p.as_str()),
        }
    }
}

/// A token with source position (1-based line/column).
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    pub(crate) tok: Tok,
    pub(crate) line: u32,
    pub(crate) col: u32,
    /// True if this token is the first on its (physical) line — used by the
    /// preprocessor to recognize directives.
    pub(crate) line_start: bool,
}

impl Token {
    /// The identifier (or keyword) this token spells, if it is one.
    pub fn ident(&self) -> Option<&str> {
        match &self.tok {
            Tok::Ident(s) => Some(s),
            _ => None,
        }
    }
}

/// Front-end error: lexing, preprocessing, parsing, or semantic.
#[derive(Debug, Clone, PartialEq)]
pub struct LangError {
    pub stage: &'static str,
    pub line: u32,
    pub col: u32,
    pub message: String,
}

impl LangError {
    pub(crate) fn new(stage: &'static str, line: u32, col: u32, msg: impl Into<String>) -> Self {
        LangError {
            stage,
            line,
            col,
            message: msg.into(),
        }
    }
}

impl fmt::Display for LangError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} error at {}:{}: {}",
            self.stage, self.line, self.col, self.message
        )
    }
}

impl std::error::Error for LangError {}
