//! Persistent artifact tier: `Binary` (de)serialization over the
//! ks-store record format, and the read-through/write-through glue the
//! cache uses.
//!
//! The payload encoding is hand-rolled over [`ks_store::ByteWriter`] /
//! [`ks_store::ByteReader`]: little-endian, length-prefixed strings,
//! explicit `u8` tags for every enum. Serialization is deterministic
//! (the `regalloc` map is emitted name-sorted), so the same `Binary`
//! always produces the same record bytes — which is what lets the CI
//! store tier assert byte-identical reloads across process restarts.
//!
//! Decoding never panics on payload content: every structural problem
//! is a typed [`StoreError`] that the cache counts as `store_errors`
//! and degrades to a recompile.

use crate::{Binary, CompileMetrics, Defines};
use ks_sim::RegAlloc;
use ks_store::{ByteReader, ByteWriter, Fingerprint, Store, StoreError};
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

/// Version of the `Binary` payload encoding below. Folded into both the
/// record payload (checked on load) and the cache-key fingerprint (so a
/// bump simply makes old records unreachable rather than unreadable
/// errors).
pub const BINARY_SCHEMA_VERSION: u32 = 1;

/// Canonical description of the fixed pass pipeline, folded into every
/// cache-key fingerprint. The HIR stage list mirrors
/// `ks_codegen::compile_observed` and the IR pass list mirrors
/// `ks_opt::optimize_with_observer`; reordering, adding, or removing a
/// stage must change this string so stale artifacts are invalidated.
/// (Per-pass *toggles* are fingerprinted separately via `OptConfig` /
/// `CodegenOptions`.)
pub const PASS_PIPELINE: &str =
    "hir:consteval,unroll,consteval,scalarize,consteval;ir:constfold,strength,addrfold,cse,dce";

/// The persistent tier a [`crate::Compiler`] consults between its
/// in-memory cache and a real compile.
pub(crate) struct StoreTier {
    store: Store,
}

impl StoreTier {
    pub(crate) fn open(dir: impl Into<std::path::PathBuf>) -> Result<StoreTier, StoreError> {
        Ok(StoreTier {
            store: Store::open(dir)?,
        })
    }

    pub(crate) fn root(&self) -> &Path {
        self.store.root()
    }

    /// Load and decode the binary persisted under `fp`, if any.
    pub(crate) fn load(&self, fp: Fingerprint) -> Result<Option<Arc<Binary>>, StoreError> {
        match self.store.load(fp)? {
            None => Ok(None),
            Some(payload) => Ok(Some(Arc::new(deserialize_binary(&payload)?))),
        }
    }

    /// Persist `bin` under `fp` (no-op if a record already exists).
    pub(crate) fn save(&self, fp: Fingerprint, bin: &Binary) -> Result<(), StoreError> {
        self.store.save(fp, &serialize_binary(bin)).map(drop)
    }

    /// Full-payload integrity walk over the underlying store; corrupt
    /// records move to `quarantine/`. See [`ks_store::Store::scrub`].
    pub(crate) fn scrub(&self) -> Result<ks_store::ScrubReport, StoreError> {
        self.store.scrub()
    }
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

fn put_duration(w: &mut ByteWriter, d: Duration) {
    w.u64(d.as_nanos().min(u128::from(u64::MAX)) as u64);
}

fn put_ty(w: &mut ByteWriter, ty: ks_ir::Ty) {
    match ty {
        ks_ir::Ty::S32 => w.u8(0),
        ks_ir::Ty::U32 => w.u8(1),
        ks_ir::Ty::F32 => w.u8(2),
        ks_ir::Ty::Pred => w.u8(3),
        ks_ir::Ty::Ptr(s) => {
            w.u8(4);
            put_space(w, s);
        }
    }
}

fn put_space(w: &mut ByteWriter, s: ks_ir::Space) {
    w.u8(match s {
        ks_ir::Space::Global => 0,
        ks_ir::Space::Shared => 1,
        ks_ir::Space::Const => 2,
        ks_ir::Space::Local => 3,
        ks_ir::Space::Param => 4,
    });
}

fn put_operand(w: &mut ByteWriter, o: ks_ir::Operand) {
    match o {
        ks_ir::Operand::Reg(r) => {
            w.u8(0);
            w.u32(r.0);
        }
        ks_ir::Operand::ImmI(v) => {
            w.u8(1);
            w.i64(v);
        }
        ks_ir::Operand::ImmF(v) => {
            w.u8(2);
            w.f32_bits(v);
        }
    }
}

fn put_address(w: &mut ByteWriter, a: ks_ir::Address) {
    match a.base {
        None => w.u8(0),
        Some(r) => {
            w.u8(1);
            w.u32(r.0);
        }
    }
    w.i64(a.offset);
}

fn bin_op_tag(op: ks_ir::BinOp) -> u8 {
    use ks_ir::BinOp::*;
    match op {
        Add => 0,
        Sub => 1,
        Mul => 2,
        Mul24 => 3,
        Div => 4,
        Rem => 5,
        Min => 6,
        Max => 7,
        And => 8,
        Or => 9,
        Xor => 10,
        Shl => 11,
        Shr => 12,
    }
}

fn un_op_tag(op: ks_ir::UnOp) -> u8 {
    use ks_ir::UnOp::*;
    match op {
        Neg => 0,
        Not => 1,
        Abs => 2,
        Sqrt => 3,
        Rsqrt => 4,
        Floor => 5,
    }
}

fn cmp_op_tag(op: ks_ir::CmpOp) -> u8 {
    use ks_ir::CmpOp::*;
    match op {
        Eq => 0,
        Ne => 1,
        Lt => 2,
        Le => 3,
        Gt => 4,
        Ge => 5,
    }
}

fn special_reg_tag(r: ks_ir::SpecialReg) -> u8 {
    use ks_ir::SpecialReg::*;
    match r {
        TidX => 0,
        TidY => 1,
        TidZ => 2,
        CtaIdX => 3,
        CtaIdY => 4,
        CtaIdZ => 5,
        NtidX => 6,
        NtidY => 7,
        NtidZ => 8,
        NctaIdX => 9,
        NctaIdY => 10,
        NctaIdZ => 11,
    }
}

fn put_inst(w: &mut ByteWriter, inst: &ks_ir::Inst) {
    use ks_ir::Inst;
    match inst {
        Inst::Mov { ty, dst, src } => {
            w.u8(0);
            put_ty(w, *ty);
            w.u32(dst.0);
            put_operand(w, *src);
        }
        Inst::Bin { op, ty, dst, a, b } => {
            w.u8(1);
            w.u8(bin_op_tag(*op));
            put_ty(w, *ty);
            w.u32(dst.0);
            put_operand(w, *a);
            put_operand(w, *b);
        }
        Inst::Un { op, ty, dst, a } => {
            w.u8(2);
            w.u8(un_op_tag(*op));
            put_ty(w, *ty);
            w.u32(dst.0);
            put_operand(w, *a);
        }
        Inst::Mad { ty, dst, a, b, c } => {
            w.u8(3);
            put_ty(w, *ty);
            w.u32(dst.0);
            put_operand(w, *a);
            put_operand(w, *b);
            put_operand(w, *c);
        }
        Inst::Setp { cmp, ty, dst, a, b } => {
            w.u8(4);
            w.u8(cmp_op_tag(*cmp));
            put_ty(w, *ty);
            w.u32(dst.0);
            put_operand(w, *a);
            put_operand(w, *b);
        }
        Inst::Selp {
            ty,
            dst,
            a,
            b,
            pred,
        } => {
            w.u8(5);
            put_ty(w, *ty);
            w.u32(dst.0);
            put_operand(w, *a);
            put_operand(w, *b);
            w.u32(pred.0);
        }
        Inst::Cvt {
            dst_ty,
            src_ty,
            dst,
            src,
        } => {
            w.u8(6);
            put_ty(w, *dst_ty);
            put_ty(w, *src_ty);
            w.u32(dst.0);
            put_operand(w, *src);
        }
        Inst::Ld {
            space,
            ty,
            dst,
            addr,
        } => {
            w.u8(7);
            put_space(w, *space);
            put_ty(w, *ty);
            w.u32(dst.0);
            put_address(w, *addr);
        }
        Inst::St {
            space,
            ty,
            addr,
            src,
        } => {
            w.u8(8);
            put_space(w, *space);
            put_ty(w, *ty);
            put_address(w, *addr);
            put_operand(w, *src);
        }
        Inst::Bar => w.u8(9),
        Inst::Special { dst, reg } => {
            w.u8(10);
            w.u32(dst.0);
            w.u8(special_reg_tag(*reg));
        }
        Inst::Tex { ty, dst, tex, idx } => {
            w.u8(11);
            put_ty(w, *ty);
            w.u32(dst.0);
            w.u32(*tex);
            put_operand(w, *idx);
        }
    }
}

fn put_terminator(w: &mut ByteWriter, t: &ks_ir::Terminator) {
    match t {
        ks_ir::Terminator::Br { target } => {
            w.u8(0);
            w.u32(target.0);
        }
        ks_ir::Terminator::CondBr {
            pred,
            negate,
            then_t,
            else_t,
        } => {
            w.u8(1);
            w.u32(pred.0);
            w.bool(*negate);
            w.u32(then_t.0);
            w.u32(else_t.0);
        }
        ks_ir::Terminator::Ret => w.u8(2),
    }
}

fn put_function(w: &mut ByteWriter, f: &ks_ir::Function) {
    w.str(&f.name);
    w.usize(f.params.len());
    for p in &f.params {
        w.str(&p.name);
        put_ty(w, p.ty);
        w.u32(p.offset);
    }
    w.usize(f.blocks.len());
    for b in &f.blocks {
        w.u32(b.id.0);
        w.usize(b.insts.len());
        for i in &b.insts {
            put_inst(w, i);
        }
        put_terminator(w, &b.term);
    }
    w.usize(f.vreg_types.len());
    for ty in &f.vreg_types {
        put_ty(w, *ty);
    }
    w.usize(f.shared.len());
    for s in &f.shared {
        w.str(&s.name);
        w.u32(s.offset);
        w.u32(s.size_bytes);
    }
    w.u32(f.local_bytes);
}

fn put_module(w: &mut ByteWriter, m: &ks_ir::Module) {
    w.usize(m.functions.len());
    for f in &m.functions {
        put_function(w, f);
    }
    w.usize(m.consts.len());
    for c in &m.consts {
        w.str(&c.name);
        w.u32(c.offset);
        w.u32(c.size_bytes);
    }
    w.usize(m.textures.len());
    for t in &m.textures {
        w.str(t);
    }
}

fn put_defines(w: &mut ByteWriter, d: &Defines) {
    let items = d.items();
    w.usize(items.len());
    for (n, v) in items {
        w.str(n);
        w.str(v);
    }
    // A persisted binary compiled, so its define set had no invalid
    // entries — nothing further to encode.
}

fn put_metrics(w: &mut ByteWriter, m: &CompileMetrics) {
    put_duration(w, m.preproc);
    put_duration(w, m.parse);
    put_duration(w, m.sema);
    put_duration(w, m.lower);
    put_duration(w, m.opt);
    put_duration(w, m.analysis);
    put_duration(w, m.verify);
    put_duration(w, m.regalloc);
    put_duration(w, m.total);
}

fn severity_tag(s: ks_analysis::Severity) -> u8 {
    match s {
        ks_analysis::Severity::Allow => 0,
        ks_analysis::Severity::Warn => 1,
        ks_analysis::Severity::Deny => 2,
    }
}

/// Serialize a compiled binary into a store payload.
pub(crate) fn serialize_binary(bin: &Binary) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u32(BINARY_SCHEMA_VERSION);
    put_module(&mut w, &bin.module);
    w.str(&bin.ptx);
    // Name-sorted for deterministic bytes (HashMap order is random).
    let mut names: Vec<&String> = bin.regalloc.keys().collect();
    names.sort();
    w.usize(names.len());
    for name in names {
        let ra = &bin.regalloc[name];
        w.str(name);
        w.u32(ra.gpr_count);
        w.u32(ra.pred_count);
        w.usize(ra.assignment.len());
        for a in &ra.assignment {
            w.u32(*a);
        }
    }
    put_defines(&mut w, &bin.defines);
    w.str(&bin.device);
    put_duration(&mut w, bin.compile_time);
    put_metrics(&mut w, &bin.metrics);
    w.usize(bin.diagnostics.len());
    for d in &bin.diagnostics {
        w.str(d.code.code());
        w.u8(severity_tag(d.severity));
        w.str(&d.function);
        match d.block {
            None => w.u8(0),
            Some(b) => {
                w.u8(1);
                w.u32(b.0);
            }
        }
        match d.inst {
            None => w.u8(0),
            Some(i) => {
                w.u8(1);
                w.usize(i);
            }
        }
        w.str(&d.message);
    }
    w.usize(bin.verification.len());
    for f in &bin.verification {
        w.str(f.code);
        w.str(&f.context);
        w.str(&f.env);
        w.str(&f.function);
        w.str(&f.message);
    }
    w.into_vec()
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

fn corrupt(what: &str, v: impl std::fmt::Display) -> StoreError {
    StoreError::Corrupt(format!("bad {what} {v}"))
}

fn get_duration(r: &mut ByteReader) -> Result<Duration, StoreError> {
    Ok(Duration::from_nanos(r.u64()?))
}

fn get_ty(r: &mut ByteReader) -> Result<ks_ir::Ty, StoreError> {
    Ok(match r.u8()? {
        0 => ks_ir::Ty::S32,
        1 => ks_ir::Ty::U32,
        2 => ks_ir::Ty::F32,
        3 => ks_ir::Ty::Pred,
        4 => ks_ir::Ty::Ptr(get_space(r)?),
        t => return Err(corrupt("type tag", t)),
    })
}

fn get_space(r: &mut ByteReader) -> Result<ks_ir::Space, StoreError> {
    Ok(match r.u8()? {
        0 => ks_ir::Space::Global,
        1 => ks_ir::Space::Shared,
        2 => ks_ir::Space::Const,
        3 => ks_ir::Space::Local,
        4 => ks_ir::Space::Param,
        t => return Err(corrupt("space tag", t)),
    })
}

fn get_vreg(r: &mut ByteReader) -> Result<ks_ir::VReg, StoreError> {
    Ok(ks_ir::VReg(r.u32()?))
}

fn get_operand(r: &mut ByteReader) -> Result<ks_ir::Operand, StoreError> {
    Ok(match r.u8()? {
        0 => ks_ir::Operand::Reg(get_vreg(r)?),
        1 => ks_ir::Operand::ImmI(r.i64()?),
        2 => ks_ir::Operand::ImmF(r.f32_bits()?),
        t => return Err(corrupt("operand tag", t)),
    })
}

fn get_address(r: &mut ByteReader) -> Result<ks_ir::Address, StoreError> {
    let base = match r.u8()? {
        0 => None,
        1 => Some(get_vreg(r)?),
        t => return Err(corrupt("address tag", t)),
    };
    Ok(ks_ir::Address {
        base,
        offset: r.i64()?,
    })
}

fn get_bin_op(r: &mut ByteReader) -> Result<ks_ir::BinOp, StoreError> {
    use ks_ir::BinOp::*;
    Ok(match r.u8()? {
        0 => Add,
        1 => Sub,
        2 => Mul,
        3 => Mul24,
        4 => Div,
        5 => Rem,
        6 => Min,
        7 => Max,
        8 => And,
        9 => Or,
        10 => Xor,
        11 => Shl,
        12 => Shr,
        t => return Err(corrupt("binop tag", t)),
    })
}

fn get_un_op(r: &mut ByteReader) -> Result<ks_ir::UnOp, StoreError> {
    use ks_ir::UnOp::*;
    Ok(match r.u8()? {
        0 => Neg,
        1 => Not,
        2 => Abs,
        3 => Sqrt,
        4 => Rsqrt,
        5 => Floor,
        t => return Err(corrupt("unop tag", t)),
    })
}

fn get_cmp_op(r: &mut ByteReader) -> Result<ks_ir::CmpOp, StoreError> {
    use ks_ir::CmpOp::*;
    Ok(match r.u8()? {
        0 => Eq,
        1 => Ne,
        2 => Lt,
        3 => Le,
        4 => Gt,
        5 => Ge,
        t => return Err(corrupt("cmpop tag", t)),
    })
}

fn get_special_reg(r: &mut ByteReader) -> Result<ks_ir::SpecialReg, StoreError> {
    use ks_ir::SpecialReg::*;
    Ok(match r.u8()? {
        0 => TidX,
        1 => TidY,
        2 => TidZ,
        3 => CtaIdX,
        4 => CtaIdY,
        5 => CtaIdZ,
        6 => NtidX,
        7 => NtidY,
        8 => NtidZ,
        9 => NctaIdX,
        10 => NctaIdY,
        11 => NctaIdZ,
        t => return Err(corrupt("special-reg tag", t)),
    })
}

fn get_inst(r: &mut ByteReader) -> Result<ks_ir::Inst, StoreError> {
    use ks_ir::Inst;
    Ok(match r.u8()? {
        0 => Inst::Mov {
            ty: get_ty(r)?,
            dst: get_vreg(r)?,
            src: get_operand(r)?,
        },
        1 => Inst::Bin {
            op: get_bin_op(r)?,
            ty: get_ty(r)?,
            dst: get_vreg(r)?,
            a: get_operand(r)?,
            b: get_operand(r)?,
        },
        2 => Inst::Un {
            op: get_un_op(r)?,
            ty: get_ty(r)?,
            dst: get_vreg(r)?,
            a: get_operand(r)?,
        },
        3 => Inst::Mad {
            ty: get_ty(r)?,
            dst: get_vreg(r)?,
            a: get_operand(r)?,
            b: get_operand(r)?,
            c: get_operand(r)?,
        },
        4 => Inst::Setp {
            cmp: get_cmp_op(r)?,
            ty: get_ty(r)?,
            dst: get_vreg(r)?,
            a: get_operand(r)?,
            b: get_operand(r)?,
        },
        5 => Inst::Selp {
            ty: get_ty(r)?,
            dst: get_vreg(r)?,
            a: get_operand(r)?,
            b: get_operand(r)?,
            pred: get_vreg(r)?,
        },
        6 => Inst::Cvt {
            dst_ty: get_ty(r)?,
            src_ty: get_ty(r)?,
            dst: get_vreg(r)?,
            src: get_operand(r)?,
        },
        7 => Inst::Ld {
            space: get_space(r)?,
            ty: get_ty(r)?,
            dst: get_vreg(r)?,
            addr: get_address(r)?,
        },
        8 => Inst::St {
            space: get_space(r)?,
            ty: get_ty(r)?,
            addr: get_address(r)?,
            src: get_operand(r)?,
        },
        9 => Inst::Bar,
        10 => Inst::Special {
            dst: get_vreg(r)?,
            reg: get_special_reg(r)?,
        },
        11 => Inst::Tex {
            ty: get_ty(r)?,
            dst: get_vreg(r)?,
            tex: r.u32()?,
            idx: get_operand(r)?,
        },
        t => return Err(corrupt("instruction tag", t)),
    })
}

fn get_terminator(r: &mut ByteReader) -> Result<ks_ir::Terminator, StoreError> {
    Ok(match r.u8()? {
        0 => ks_ir::Terminator::Br {
            target: ks_ir::BlockId(r.u32()?),
        },
        1 => ks_ir::Terminator::CondBr {
            pred: get_vreg(r)?,
            negate: r.bool()?,
            then_t: ks_ir::BlockId(r.u32()?),
            else_t: ks_ir::BlockId(r.u32()?),
        },
        2 => ks_ir::Terminator::Ret,
        t => return Err(corrupt("terminator tag", t)),
    })
}

fn get_function(r: &mut ByteReader) -> Result<ks_ir::Function, StoreError> {
    let name = r.str()?;
    let mut params = Vec::new();
    for _ in 0..r.usize()? {
        params.push(ks_ir::KernelParam {
            name: r.str()?,
            ty: get_ty(r)?,
            offset: r.u32()?,
        });
    }
    let mut blocks = Vec::new();
    for _ in 0..r.usize()? {
        let id = ks_ir::BlockId(r.u32()?);
        let mut insts = Vec::new();
        for _ in 0..r.usize()? {
            insts.push(get_inst(r)?);
        }
        blocks.push(ks_ir::BasicBlock {
            id,
            insts,
            term: get_terminator(r)?,
        });
    }
    let mut vreg_types = Vec::new();
    for _ in 0..r.usize()? {
        vreg_types.push(get_ty(r)?);
    }
    let mut shared = Vec::new();
    for _ in 0..r.usize()? {
        shared.push(ks_ir::SharedDecl {
            name: r.str()?,
            offset: r.u32()?,
            size_bytes: r.u32()?,
        });
    }
    Ok(ks_ir::Function {
        name,
        params,
        blocks,
        vreg_types,
        shared,
        local_bytes: r.u32()?,
    })
}

fn get_module(r: &mut ByteReader) -> Result<ks_ir::Module, StoreError> {
    let mut functions = Vec::new();
    for _ in 0..r.usize()? {
        functions.push(get_function(r)?);
    }
    let mut consts = Vec::new();
    for _ in 0..r.usize()? {
        consts.push(ks_ir::ConstDecl {
            name: r.str()?,
            offset: r.u32()?,
            size_bytes: r.u32()?,
        });
    }
    let mut textures = Vec::new();
    for _ in 0..r.usize()? {
        textures.push(r.str()?);
    }
    Ok(ks_ir::Module {
        functions,
        consts,
        textures,
    })
}

fn get_metrics(r: &mut ByteReader) -> Result<CompileMetrics, StoreError> {
    Ok(CompileMetrics {
        preproc: get_duration(r)?,
        parse: get_duration(r)?,
        sema: get_duration(r)?,
        lower: get_duration(r)?,
        opt: get_duration(r)?,
        analysis: get_duration(r)?,
        verify: get_duration(r)?,
        regalloc: get_duration(r)?,
        total: get_duration(r)?,
    })
}

fn get_severity(r: &mut ByteReader) -> Result<ks_analysis::Severity, StoreError> {
    Ok(match r.u8()? {
        0 => ks_analysis::Severity::Allow,
        1 => ks_analysis::Severity::Warn,
        2 => ks_analysis::Severity::Deny,
        t => return Err(corrupt("severity tag", t)),
    })
}

/// Re-intern a persisted KSV code to its `&'static str`; an unknown
/// code means the record was written by something we don't understand.
fn intern_ksv_code(code: &str) -> Result<&'static str, StoreError> {
    for known in ["KSV001", "KSV002", "KSV003", "KSV101"] {
        if code == known {
            return Ok(known);
        }
    }
    Err(corrupt("verification code", code))
}

/// Decode a store payload back into a [`Binary`].
pub(crate) fn deserialize_binary(payload: &[u8]) -> Result<Binary, StoreError> {
    let mut r = ByteReader::new(payload);
    let schema = r.u32()?;
    if schema != BINARY_SCHEMA_VERSION {
        // Unreachable through the normal cache path (the schema version
        // is part of the fingerprint), but a misfiled record must still
        // fail typed, not garbled.
        return Err(StoreError::Version {
            found: schema,
            expected: BINARY_SCHEMA_VERSION,
        });
    }
    let module = get_module(&mut r)?;
    let ptx = r.str()?;
    let mut regalloc = HashMap::new();
    for _ in 0..r.usize()? {
        let name = r.str()?;
        let gpr_count = r.u32()?;
        let pred_count = r.u32()?;
        let mut assignment = Vec::new();
        for _ in 0..r.usize()? {
            assignment.push(r.u32()?);
        }
        regalloc.insert(
            name,
            RegAlloc {
                gpr_count,
                pred_count,
                assignment,
            },
        );
    }
    let mut defines = Defines::new();
    for _ in 0..r.usize()? {
        let name = r.str()?;
        let value = r.str()?;
        defines = defines.def(&name, value);
    }
    let device = r.str()?;
    let compile_time = get_duration(&mut r)?;
    let metrics = get_metrics(&mut r)?;
    let mut diagnostics = Vec::new();
    for _ in 0..r.usize()? {
        let code_str = r.str()?;
        let code = ks_analysis::LintCode::parse(&code_str)
            .ok_or_else(|| corrupt("lint code", &code_str))?;
        let severity = get_severity(&mut r)?;
        let function = r.str()?;
        let block = match r.u8()? {
            0 => None,
            1 => Some(ks_ir::BlockId(r.u32()?)),
            t => return Err(corrupt("diagnostic block tag", t)),
        };
        let inst = match r.u8()? {
            0 => None,
            1 => Some(r.usize()?),
            t => return Err(corrupt("diagnostic inst tag", t)),
        };
        diagnostics.push(ks_analysis::Diagnostic {
            code,
            severity,
            function,
            block,
            inst,
            message: r.str()?,
        });
    }
    let mut verification = Vec::new();
    for _ in 0..r.usize()? {
        let code = intern_ksv_code(&r.str()?)?;
        verification.push(ks_verify::Finding {
            code,
            context: r.str()?,
            env: r.str()?,
            function: r.str()?,
            message: r.str()?,
        });
    }
    r.expect_end()?;
    Ok(Binary {
        plans: crate::plan_slots(&module),
        module,
        ptx,
        regalloc,
        defines,
        device,
        compile_time,
        metrics,
        diagnostics,
        verification,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Compiler;
    use ks_sim::DeviceConfig;

    const KERNEL: &str = r#"
        #ifndef LOOP_COUNT
        #define LOOP_COUNT loopCount
        #endif
        __global__ void k(int* in, int* out, int loopCount) {
            int acc = 0;
            const unsigned int offset = blockIdx.x * blockDim.x + threadIdx.x;
            for (int i = 0; i < LOOP_COUNT; i++) {
                acc += *(in + offset + i);
            }
            *(out + offset) = acc;
        }
    "#;

    fn assert_binaries_equal(a: &Binary, b: &Binary) {
        assert_eq!(a.module, b.module);
        assert_eq!(a.ptx, b.ptx);
        assert_eq!(a.regalloc.len(), b.regalloc.len());
        for (k, ra) in &a.regalloc {
            let rb = &b.regalloc[k];
            assert_eq!(
                (ra.gpr_count, ra.pred_count, &ra.assignment),
                (rb.gpr_count, rb.pred_count, &rb.assignment)
            );
        }
        assert_eq!(a.defines, b.defines);
        assert_eq!(a.device, b.device);
        assert_eq!(a.compile_time, b.compile_time);
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(a.diagnostics, b.diagnostics);
        assert_eq!(a.verification, b.verification);
    }

    #[test]
    fn compiled_binary_roundtrips() {
        let c = Compiler::new(DeviceConfig::tesla_c1060());
        let bin = c
            .compile(KERNEL, Defines::new().def("LOOP_COUNT", 4))
            .unwrap();
        let bytes = serialize_binary(&bin);
        let back = deserialize_binary(&bytes).unwrap();
        assert_binaries_equal(&bin, &back);
        // Determinism: serializing again produces identical bytes (the
        // regalloc map is emitted sorted).
        assert_eq!(bytes, serialize_binary(&back));
    }

    #[test]
    fn binary_with_diagnostics_and_findings_roundtrips() {
        // A bank-conflict-prone kernel compiled with analysis at warn
        // level, so diagnostics ride on the binary.
        let src = r#"
            __global__ void k(float* out) {
                __shared__ float s[1024];
                int t = (int)threadIdx.x;
                s[t * 32] = 1.0f;
                __syncthreads();
                out[t] = s[t * 32];
            }
        "#;
        let c =
            Compiler::new(DeviceConfig::tesla_c2070()).with_analysis(ks_analysis::AnalysisConfig {
                block_dim: Some((32, 1, 1)),
                ..Default::default()
            });
        let bin = c.compile(src, Defines::new()).unwrap();
        assert!(
            !bin.diagnostics.is_empty(),
            "test kernel must produce at least one warning"
        );
        let back = deserialize_binary(&serialize_binary(&bin)).unwrap();
        assert_binaries_equal(&bin, &back);
    }

    #[test]
    fn truncated_payload_is_a_typed_error() {
        let c = Compiler::new(DeviceConfig::tesla_c1060());
        let bin = c.compile(KERNEL, Defines::new()).unwrap();
        let bytes = serialize_binary(&bin);
        for cut in [0, 1, 4, 16, bytes.len() / 2, bytes.len() - 1] {
            match deserialize_binary(&bytes[..cut]) {
                Err(StoreError::Truncated { .. } | StoreError::Corrupt(_)) => {}
                other => panic!("cut at {cut}: expected typed error, got {other:?}"),
            }
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let c = Compiler::new(DeviceConfig::tesla_c1060());
        let bin = c.compile(KERNEL, Defines::new()).unwrap();
        let mut bytes = serialize_binary(&bin);
        bytes.push(0);
        assert!(matches!(
            deserialize_binary(&bytes),
            Err(StoreError::Corrupt(_))
        ));
    }

    #[test]
    fn wrong_schema_version_is_rejected() {
        let c = Compiler::new(DeviceConfig::tesla_c1060());
        let bin = c.compile(KERNEL, Defines::new()).unwrap();
        let mut bytes = serialize_binary(&bin);
        bytes[0] = BINARY_SCHEMA_VERSION as u8 + 1;
        assert!(matches!(
            deserialize_binary(&bytes),
            Err(StoreError::Version { .. })
        ));
    }

    #[test]
    fn unknown_enum_tags_are_corrupt_not_panics() {
        let c = Compiler::new(DeviceConfig::tesla_c1060());
        let bin = c.compile(KERNEL, Defines::new()).unwrap();
        let bytes = serialize_binary(&bin);
        // Flip every byte, one at a time is too slow; sample positions.
        for pos in (4..bytes.len()).step_by(7) {
            let mut evil = bytes.clone();
            evil[pos] = evil[pos].wrapping_add(0x40);
            // Must never panic; any Err (or even an Ok whose content
            // differs) is acceptable — the record checksum catches
            // content drift at the store layer above.
            let _ = deserialize_binary(&evil);
        }
    }
}
