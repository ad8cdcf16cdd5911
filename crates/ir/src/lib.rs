//! # ks-ir — PTX-like intermediate representation
//!
//! A typed, virtual-register IR modeled on NVIDIA PTX, the target of the
//! `ks-codegen` lowering and the input to both the `ks-opt` optimization
//! passes and the `ks-sim` GPU simulator.
//!
//! Design points mirroring PTX (dissertation §2.4, Appendices C/D):
//!
//! * **Virtual registers** — register names are virtual; physical register
//!   assignment happens later, during the "PTX → binary" translation
//!   implemented by `ks-sim`'s linear-scan allocator. This is what lets the
//!   specialization results report *reduced per-thread register usage*.
//! * **Typed instructions** — every arithmetic instruction carries an
//!   operand type (`s32`, `u32`, `f32`, …), and loads/stores carry a
//!   state space (`global`, `shared`, `const`, `local`, `param`).
//! * **Load/store semantics** — destination first, then sources.
//! * **Explicit control flow** — basic blocks terminated by branches;
//!   a fully specialized kernel typically lowers to a single block with
//!   no control flow at all (cf. Appendix D).

pub mod cfg;
pub mod eval;
pub mod inst;
pub mod module;
pub mod printer;
pub mod types;
pub mod verify;

pub use inst::{Address, BinOp, CmpOp, Inst, Operand, SpecialReg, Terminator, UnOp, VReg};
pub use module::{BasicBlock, BlockId, ConstDecl, Function, KernelParam, Module, SharedDecl};
pub use types::{Space, Ty};
pub use verify::{verify_function, verify_module, VerifyCode, VerifyError};
