//! IR verifier: structural and type sanity checks. The lowering runs
//! [`verify_module`] on every module it returns; the ks-core pipeline
//! runs [`verify_function`] after each optimization pass that changed a
//! function — in debug builds always, in release builds whenever an
//! analysis configuration is attached to the compiler — and
//! [`verify_module`] once more on the final module in every build.

#[cfg(test)]
use crate::inst::Terminator;
use crate::inst::{Inst, Operand, VReg};
use crate::module::{BlockId, Function, Module};
use crate::types::{Space, Ty};
use std::fmt;

/// Stable diagnostic codes for IR-verifier findings, in the same style as
/// the ks-analysis `KSA0xx` lint codes and the ks-verify `KSV0xx`
/// translation-validation codes, so all three families render and export
/// uniformly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VerifyCode {
    /// Structural problems: missing blocks, block-id/index mismatch.
    Structure,
    /// A virtual register outside the declared register file.
    RegisterRange,
    /// Operand/destination/immediate type incompatibilities.
    TypeMismatch,
    /// Memory-space misuse: stores to read-only spaces, reg-relative
    /// param loads.
    MemorySpace,
    /// Control-flow problems: branches to nonexistent blocks, non-pred
    /// branch predicates.
    ControlFlow,
    /// Hardware resource limits (e.g. the 64 KB constant-memory window).
    ResourceLimit,
}

impl VerifyCode {
    /// Stable textual code (`KSI001`..`KSI006`).
    pub fn code(self) -> &'static str {
        match self {
            VerifyCode::Structure => "KSI001",
            VerifyCode::RegisterRange => "KSI002",
            VerifyCode::TypeMismatch => "KSI003",
            VerifyCode::MemorySpace => "KSI004",
            VerifyCode::ControlFlow => "KSI005",
            VerifyCode::ResourceLimit => "KSI006",
        }
    }
}

impl fmt::Display for VerifyCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// A verification failure with structured context: stable code, function,
/// block, and instruction index (when the failure is attributable to a
/// specific instruction).
#[derive(Debug, Clone, PartialEq)]
pub struct VerifyError {
    pub code: VerifyCode,
    pub function: String,
    pub block: Option<BlockId>,
    /// Index of the offending instruction within the block; `None` for
    /// block/terminator/module-level findings.
    pub inst: Option<usize>,
    pub message: String,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Same rendering shape as ks-analysis lints:
        //   error[KSI003]: kernel/BB0#2: message
        write!(f, "error[{}]: {}", self.code, self.function)?;
        if let Some(b) = self.block {
            write!(f, "/{b}")?;
            if let Some(i) = self.inst {
                write!(f, "#{i}")?;
            }
        }
        write!(f, ": {}", self.message)
    }
}

impl std::error::Error for VerifyError {}

struct Checker<'a> {
    f: &'a Function,
    errors: Vec<VerifyError>,
    block: Option<BlockId>,
    inst: Option<usize>,
}

impl<'a> Checker<'a> {
    fn err(&mut self, code: VerifyCode, msg: impl Into<String>) {
        self.errors.push(VerifyError {
            code,
            function: self.f.name.clone(),
            block: self.block,
            inst: self.inst,
            message: msg.into(),
        });
    }

    fn check_reg(&mut self, r: VReg) -> Option<Ty> {
        if (r.0 as usize) < self.f.vreg_types.len() {
            Some(self.f.vreg_types[r.0 as usize])
        } else {
            self.err(
                VerifyCode::RegisterRange,
                format!(
                    "register {r} out of range ({} declared)",
                    self.f.vreg_types.len()
                ),
            );
            None
        }
    }

    fn check_operand(&mut self, o: &Operand, expect: Ty) {
        match o {
            Operand::Reg(r) => {
                if let Some(ty) = self.check_reg(*r) {
                    let compatible = ty == expect
                        // Integer registers are interchangeable at the bit
                        // level (PTX allows untyped register reuse); pointer
                        // arithmetic also mixes ptr and integer regs.
                        || (ty.is_integer() && expect.is_integer())
                        || (ty.is_ptr() && (expect.is_ptr() || expect.is_integer()))
                        || (expect.is_ptr() && ty.is_integer());
                    if !compatible {
                        self.err(
                            VerifyCode::TypeMismatch,
                            format!("operand {r} has type {ty}, instruction expects {expect}"),
                        );
                    }
                }
            }
            Operand::ImmI(_) => {
                if expect == Ty::F32 {
                    self.err(
                        VerifyCode::TypeMismatch,
                        "integer immediate used where f32 expected".to_string(),
                    );
                }
            }
            Operand::ImmF(_) => {
                if expect != Ty::F32 {
                    self.err(
                        VerifyCode::TypeMismatch,
                        format!("float immediate used where {expect} expected"),
                    );
                }
            }
        }
    }

    fn check_dst(&mut self, dst: VReg, expect: Ty) {
        if let Some(ty) = self.check_reg(dst) {
            let ok = ty == expect
                || (ty.is_integer() && expect.is_integer())
                || (ty.is_ptr() && expect.is_integer())
                || (expect.is_ptr() && ty.is_integer())
                || (ty.is_ptr() && expect.is_ptr());
            if !ok {
                self.err(
                    VerifyCode::TypeMismatch,
                    format!("dst {dst} has type {ty}, instruction writes {expect}"),
                );
            }
        }
    }

    fn check_inst(&mut self, i: &Inst) {
        match i {
            Inst::Mov { ty, dst, src } => {
                self.check_dst(*dst, *ty);
                self.check_operand(src, *ty);
            }
            Inst::Bin { op, ty, dst, a, b } => {
                self.check_dst(*dst, *ty);
                self.check_operand(a, *ty);
                self.check_operand(b, *ty);
                // PTX permits and/or/xor on predicates; everything else is
                // arithmetic and needs a numeric type.
                if *ty == Ty::Pred
                    && !matches!(
                        op,
                        crate::inst::BinOp::And | crate::inst::BinOp::Or | crate::inst::BinOp::Xor
                    )
                {
                    self.err(
                        VerifyCode::TypeMismatch,
                        "binary arithmetic on predicate type",
                    );
                }
            }
            Inst::Un { ty, dst, a, .. } => {
                self.check_dst(*dst, *ty);
                self.check_operand(a, *ty);
            }
            Inst::Mad { ty, dst, a, b, c } => {
                self.check_dst(*dst, *ty);
                self.check_operand(a, *ty);
                self.check_operand(b, *ty);
                self.check_operand(c, *ty);
            }
            Inst::Setp { ty, dst, a, b, .. } => {
                if let Some(t) = self.check_reg(*dst) {
                    if t != Ty::Pred {
                        self.err(
                            VerifyCode::TypeMismatch,
                            format!("setp dst {dst} must be pred, is {t}"),
                        );
                    }
                }
                self.check_operand(a, *ty);
                self.check_operand(b, *ty);
            }
            Inst::Selp {
                ty,
                dst,
                a,
                b,
                pred,
            } => {
                self.check_dst(*dst, *ty);
                self.check_operand(a, *ty);
                self.check_operand(b, *ty);
                if let Some(t) = self.check_reg(*pred) {
                    if t != Ty::Pred {
                        self.err(
                            VerifyCode::TypeMismatch,
                            format!("selp pred {pred} must be pred, is {t}"),
                        );
                    }
                }
            }
            Inst::Cvt {
                dst_ty,
                src_ty,
                dst,
                src,
            } => {
                self.check_dst(*dst, *dst_ty);
                self.check_operand(src, *src_ty);
            }
            Inst::Ld {
                space,
                ty,
                dst,
                addr,
            } => {
                self.check_dst(*dst, *ty);
                if let Some(b) = addr.base {
                    self.check_reg(b);
                }
                if *space == Space::Param && addr.base.is_some() {
                    self.err(
                        VerifyCode::MemorySpace,
                        "param-space loads must use absolute offsets",
                    );
                }
            }
            Inst::St {
                space,
                ty,
                addr,
                src,
            } => {
                self.check_operand(src, *ty);
                if let Some(b) = addr.base {
                    self.check_reg(b);
                }
                if matches!(space, Space::Const | Space::Param) {
                    self.err(
                        VerifyCode::MemorySpace,
                        format!("store to read-only space {space}"),
                    );
                }
            }
            Inst::Bar => {}
            Inst::Special { dst, .. } => {
                self.check_dst(*dst, Ty::U32);
            }
            Inst::Tex { ty, dst, idx, .. } => {
                self.check_dst(*dst, *ty);
                self.check_operand(idx, Ty::S32);
            }
        }
    }
}

/// Verify one function. Returns all problems found (empty = valid).
pub fn verify_function(f: &Function) -> Vec<VerifyError> {
    let mut c = Checker {
        f,
        errors: vec![],
        block: None,
        inst: None,
    };
    if f.blocks.is_empty() {
        c.err(VerifyCode::Structure, "function has no blocks");
        return c.errors;
    }
    if f.blocks[0].id != BlockId(0) {
        c.err(VerifyCode::Structure, "entry block must have id 0");
    }
    for (i, b) in f.blocks.iter().enumerate() {
        if b.id.0 as usize != i {
            c.errors.push(VerifyError {
                code: VerifyCode::Structure,
                function: f.name.clone(),
                block: Some(b.id),
                inst: None,
                message: format!("block id {} does not match index {i}", b.id),
            });
        }
    }
    for b in &f.blocks {
        c.block = Some(b.id);
        for (pos, i) in b.insts.iter().enumerate() {
            c.inst = Some(pos);
            c.check_inst(i);
        }
        c.inst = None;
        for s in b.term.successors() {
            if s.0 as usize >= f.blocks.len() {
                c.err(
                    VerifyCode::ControlFlow,
                    format!("branch to nonexistent block {s}"),
                );
            }
        }
        if let Some(p) = b.term.use_reg() {
            if let Some(t) = c.check_reg(p) {
                if t != Ty::Pred {
                    c.err(
                        VerifyCode::ControlFlow,
                        format!("branch predicate {p} must be pred, is {t}"),
                    );
                }
            }
        }
    }
    c.errors
}

/// Verify a whole module, including the CUDA 64 KB constant-memory limit.
pub fn verify_module(m: &Module) -> Vec<VerifyError> {
    let mut errors = vec![];
    for f in &m.functions {
        errors.extend(verify_function(f));
    }
    if m.const_bytes() > 64 * 1024 {
        errors.push(VerifyError {
            code: VerifyCode::ResourceLimit,
            function: "<module>".into(),
            block: None,
            inst: None,
            message: format!(
                "constant memory {} bytes exceeds the 64 KB CUDA limit",
                m.const_bytes()
            ),
        });
    }
    errors
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{Address, BinOp};
    use crate::module::{BasicBlock, ConstDecl};

    fn func(insts: Vec<Inst>, vreg_types: Vec<Ty>) -> Function {
        Function {
            name: "t".into(),
            params: vec![],
            blocks: vec![BasicBlock {
                id: BlockId(0),
                insts,
                term: Terminator::Ret,
            }],
            vreg_types,
            shared: vec![],
            local_bytes: 0,
        }
    }

    #[test]
    fn valid_function_passes() {
        let f = func(
            vec![Inst::Bin {
                op: BinOp::Add,
                ty: Ty::S32,
                dst: VReg(0),
                a: Operand::ImmI(1),
                b: Operand::ImmI(2),
            }],
            vec![Ty::S32],
        );
        assert!(verify_function(&f).is_empty());
    }

    #[test]
    fn out_of_range_register_caught() {
        let f = func(
            vec![Inst::Mov {
                ty: Ty::S32,
                dst: VReg(5),
                src: Operand::ImmI(0),
            }],
            vec![Ty::S32],
        );
        let errs = verify_function(&f);
        assert_eq!(errs.len(), 1);
        assert!(errs[0].message.contains("out of range"));
    }

    #[test]
    fn type_mismatch_caught() {
        let f = func(
            vec![Inst::Mov {
                ty: Ty::F32,
                dst: VReg(0),
                src: Operand::ImmI(3),
            }],
            vec![Ty::F32],
        );
        let errs = verify_function(&f);
        assert!(errs.iter().any(|e| e.message.contains("integer immediate")));
    }

    #[test]
    fn store_to_const_space_rejected() {
        let f = func(
            vec![Inst::St {
                space: Space::Const,
                ty: Ty::F32,
                addr: Address::abs(0),
                src: Operand::ImmF(0.0),
            }],
            vec![],
        );
        let errs = verify_function(&f);
        assert!(errs.iter().any(|e| e.message.contains("read-only")));
    }

    #[test]
    fn branch_to_missing_block_rejected() {
        let mut f = func(vec![], vec![]);
        f.blocks[0].term = Terminator::Br { target: BlockId(9) };
        let errs = verify_function(&f);
        assert!(errs.iter().any(|e| e.message.contains("nonexistent")));
    }

    #[test]
    fn const_memory_limit_enforced() {
        let m = Module {
            functions: vec![],
            consts: vec![ConstDecl {
                name: "big".into(),
                offset: 0,
                size_bytes: 65 * 1024,
            }],
            textures: vec![],
        };
        let errs = verify_module(&m);
        assert!(errs.iter().any(|e| e.message.contains("64 KB")));
    }

    #[test]
    fn structured_rendering_and_export() {
        let f = func(
            vec![Inst::Mov {
                ty: Ty::S32,
                dst: VReg(5),
                src: Operand::ImmI(0),
            }],
            vec![Ty::S32],
        );
        let errs = verify_function(&f);
        assert_eq!(errs[0].code, VerifyCode::RegisterRange);
        assert_eq!(errs[0].inst, Some(0));
        let rendered = errs[0].to_string();
        assert!(
            rendered.starts_with("error[KSI002]: t/BB0#0:"),
            "got: {rendered}"
        );
    }

    #[test]
    fn setp_requires_pred_dst() {
        let f = func(
            vec![Inst::Setp {
                cmp: crate::inst::CmpOp::Lt,
                ty: Ty::S32,
                dst: VReg(0),
                a: Operand::ImmI(0),
                b: Operand::ImmI(1),
            }],
            vec![Ty::S32],
        );
        let errs = verify_function(&f);
        assert!(errs.iter().any(|e| e.message.contains("must be pred")));
    }
}
