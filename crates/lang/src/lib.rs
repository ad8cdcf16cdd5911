//! # ks-lang — CUDA-C-subset kernel language front end
//!
//! The developer-facing surface of the kernel-specialization toolchain:
//! kernels are written once, in a C dialect close to CUDA C, *in terms of
//! undefined constants* (all-caps macro names by convention, §4). At run
//! time the specialization engine supplies `-D NAME=value` definitions and
//! this crate's preprocessor + parser produce an AST in which those
//! parameters are literal constants — unlocking loop unrolling, constant
//! folding, strength reduction, and register blocking downstream.
//!
//! Pipeline: [`lexer`] → [`preproc`] (a real token-level C preprocessor:
//! object- and function-like macros, `#if/#ifdef/#elif/#else/#endif`,
//! `defined()`, command-line defines) → [`parser`] → [`sema`] (name
//! resolution + type checking producing a typed HIR). One evaluator
//! (`constexpr`) folds integer constant expressions for both `#if` and
//! array sizes.

pub mod ast;
mod constexpr;
pub mod lexer;
pub mod parser;
pub mod preproc;
pub mod pretty;
pub mod sema;
mod token;

pub use ast::*;
pub use sema::hir;
pub use token::{LangError, Token};

/// Convenience: run the full front end.
///
/// `defines` are the command-line `-D NAME=value` pairs (value may be empty,
/// meaning `1`, as with `nvcc -D FLAG`).
pub fn frontend(
    source: &str,
    defines: &[(String, String)],
) -> Result<sema::hir::Program, LangError> {
    let toks = lexer::lex(source)?;
    let pp = preproc::preprocess(toks, defines)?;
    let unit = parser::parse(pp)?;
    sema::check(&unit)
}
