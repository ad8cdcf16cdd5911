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
//! is a typed [`StoreError`]. On load it is one the cache counts as
//! `store_errors` and degrades to a recompile. The module IR is one
//! length-prefixed section that a load keeps encoded ([`LazyModule`]):
//! a section that fails to decode on first access fails typed there.

use crate::{Binary, CompileMetrics, Defines};
use ks_analysis::Severity;
use ks_ir::{BinOp, CmpOp, Space, SpecialReg, UnOp};
use ks_sim::RegAlloc;
use ks_store::{ByteReader, ByteWriter, Fingerprint, Store, StoreError};
use std::collections::HashMap;
use std::path::Path;
use std::sync::{Arc, LazyLock, OnceLock};
use std::time::Duration;

/// Version of the `Binary` payload encoding below. Folded into both the
/// record payload (checked on load) and the cache-key fingerprint (so a
/// bump simply makes old records unreachable rather than unreadable
/// errors). Version 2 wrote the module IR as one length-prefixed section,
/// which a load keeps encoded until first access; version 3 drops the
/// printed PTX (a [`Listing`] prints it from the module on first read)
/// and the device name (the compiler that loads a record knows it).
pub(crate) const BINARY_SCHEMA_VERSION: u32 = 3;

/// A [`Binary`]'s module IR. A compile fills it directly; a disk hit
/// keeps the record's encoded module section and decodes it once, on
/// first access, through a `OnceLock` — so a binary that is resolved but
/// never read (most of a restart's) pays nothing for its IR. Derefs to
/// [`ks_ir::Module`]: `bin.module.functions` and `&bin.module` read as
/// they would on a plain module. The binary's [`Listing`] shares it
/// (and its one decode) through the `Arc`.
///
/// The record checksum was verified when the section was loaded, so it
/// fails to decode only if something other than this encoder wrote it (a
/// forged record or a writer bug). Such a section derefs to an empty
/// module; [`LazyModule::get`] and [`Binary::plan`] return its typed
/// [`StoreError`].
pub struct LazyModule(Arc<ModuleCell>);

struct ModuleCell {
    /// The encoded section; empty for a compiled module.
    section: Box<[u8]>,
    decoded: OnceLock<Result<ks_ir::Module, StoreError>>,
}

/// What a module section that failed to decode derefs to.
static EMPTY_MODULE: ks_ir::Module = ks_ir::Module {
    functions: Vec::new(),
    consts: Vec::new(),
    textures: Vec::new(),
};

impl LazyModule {
    /// A module that is already decoded (a fresh compile).
    pub(crate) fn decoded(module: ks_ir::Module) -> LazyModule {
        LazyModule(Arc::new(ModuleCell {
            section: Box::default(),
            decoded: OnceLock::from(Ok(module)),
        }))
    }

    /// An encoded module section, decoded on first access.
    fn encoded(section: &[u8]) -> LazyModule {
        LazyModule(Arc::new(ModuleCell {
            section: section.into(),
            decoded: OnceLock::new(),
        }))
    }

    /// The module, decoding the section on the first call; every caller
    /// gets the same `&Module` (or the same error).
    pub fn get(&self) -> Result<&ks_ir::Module, &StoreError> {
        let cell = &*self.0;
        cell.decoded
            .get_or_init(|| decode_module(&cell.section))
            .as_ref()
    }
}

impl std::ops::Deref for LazyModule {
    type Target = ks_ir::Module;

    fn deref(&self) -> &ks_ir::Module {
        self.get().unwrap_or(&EMPTY_MODULE)
    }
}

impl std::fmt::Debug for LazyModule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.0.decoded.get() {
            Some(decoded) => decoded.fmt(f),
            None => write!(f, "<module section, {} bytes>", self.0.section.len()),
        }
    }
}

/// A [`Binary`]'s PTX-like listing (Appendices C/D style). Nothing on
/// the launch path reads it, so neither a compile nor a record holds the
/// text: the first read prints it from the binary's module (decoding a
/// loaded module first) through a `OnceLock`, and every later read gets
/// the same `&str`. Derefs to `str`, displays as the text, and compares
/// by text with another listing (and a `String` with it).
///
/// A module section that fails to decode has no listing: its text is one
/// `// <StoreError>` line, never the listing of the empty module it
/// derefs to.
pub struct Listing {
    module: LazyModule,
    text: OnceLock<String>,
}

impl Listing {
    /// The listing of `module`, printed on first read.
    pub(crate) fn of(module: &LazyModule) -> Listing {
        Listing {
            module: LazyModule(Arc::clone(&module.0)),
            text: OnceLock::new(),
        }
    }
}

impl std::ops::Deref for Listing {
    type Target = str;

    fn deref(&self) -> &str {
        self.text.get_or_init(|| match self.module.get() {
            Ok(module) => ks_ir::printer::print_module(module),
            Err(e) => format!("// {e}"),
        })
    }
}

impl std::fmt::Display for Listing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self)
    }
}

impl std::fmt::Debug for Listing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.text.get() {
            Some(text) => text.fmt(f),
            None => f.write_str("<listing, printed on first read>"),
        }
    }
}

impl PartialEq for Listing {
    fn eq(&self, other: &Listing) -> bool {
        **self == **other
    }
}

impl PartialEq<Listing> for String {
    fn eq(&self, other: &Listing) -> bool {
        **self == **other
    }
}

/// Canonical description of the fixed pass pipeline, folded into every
/// cache-key fingerprint: the names of `ks_codegen::STAGES`, then those
/// of `ks_opt::PASSES`, in the order the drivers run them
/// (`hir:consteval,unroll,…;ir:constfold,…`). Reordering, adding, or
/// removing a stage changes it, so stale artifacts are invalidated.
/// (Per-pass *toggles* are fingerprinted separately via `OptConfig` /
/// `CodegenOptions`.)
pub(crate) static PASS_PIPELINE: LazyLock<String> = LazyLock::new(|| {
    let hir: Vec<&str> = ks_codegen::STAGES.iter().map(|s| s.name).collect();
    let ir: Vec<&str> = ks_opt::PASSES.iter().map(|p| p.name).collect();
    format!("hir:{};ir:{}", hir.join(","), ir.join(","))
});

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
            Some(payload) => {
                let mut bin = deserialize_binary(&payload)?;
                bin.key = fp;
                Ok(Some(Arc::new(bin)))
            }
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

/// A fieldless enum the record stores as a one-byte tag. Its one tag
/// table, [`Tag::ALL`], is read both ways: a variant encodes as its index
/// there and a tag decodes to the variant at that index
/// ([`get_tag`]). The cache key's analysis config reads the Severity one.
pub(crate) trait Tag: Copy + PartialEq + 'static {
    /// How a tag outside the table is reported (`bad {WHAT} {tag}`).
    const WHAT: &'static str;
    /// Every variant, in tag order.
    const ALL: &'static [Self];

    fn tag(self) -> u8 {
        let i = Self::ALL.iter().position(|&v| v == self);
        i.expect("tag_table! lists every variant") as u8
    }
}

/// `tag_table!(Enum, "what", [A, B, ..])`: `Enum`'s [`Tag`] table. The
/// exhaustive match beside it makes a variant left out of the list a
/// compile error, and a variant listed twice an unreachable pattern.
macro_rules! tag_table {
    ($ty:ident, $what:literal, [$($v:ident),+ $(,)?]) => {
        impl Tag for $ty {
            const WHAT: &'static str = $what;
            const ALL: &'static [Self] = &[$($ty::$v),+];
        }
        const _: fn($ty) = |v| match v {
            $($ty::$v)|+ => {}
        };
    };
}

tag_table!(Space, "space tag", [Global, Shared, Const, Local, Param]);
tag_table!(
    BinOp,
    "binop tag",
    [Add, Sub, Mul, Mul24, Div, Rem, Min, Max, And, Or, Xor, Shl, Shr]
);
tag_table!(UnOp, "unop tag", [Neg, Not, Abs, Sqrt, Rsqrt, Floor]);
tag_table!(CmpOp, "cmpop tag", [Eq, Ne, Lt, Le, Gt, Ge]);
tag_table!(
    SpecialReg,
    "special-reg tag",
    [TidX, TidY, TidZ, CtaIdX, CtaIdY, CtaIdZ, NtidX, NtidY, NtidZ, NctaIdX, NctaIdY, NctaIdZ]
);
tag_table!(Severity, "severity tag", [Allow, Warn, Deny]);

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
            w.u8(s.tag());
        }
    }
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
            w.u8(op.tag());
            put_ty(w, *ty);
            w.u32(dst.0);
            put_operand(w, *a);
            put_operand(w, *b);
        }
        Inst::Un { op, ty, dst, a } => {
            w.u8(2);
            w.u8(op.tag());
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
            w.u8(cmp.tag());
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
            w.u8(space.tag());
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
            w.u8(space.tag());
            put_ty(w, *ty);
            put_address(w, *addr);
            put_operand(w, *src);
        }
        Inst::Bar => w.u8(9),
        Inst::Special { dst, reg } => {
            w.u8(10);
            w.u32(dst.0);
            w.u8(reg.tag());
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

/// Serialize a compiled binary into a store payload.
pub(crate) fn serialize_binary(bin: &Binary) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u32(BINARY_SCHEMA_VERSION);
    w.section(|w| put_module(w, &bin.module));
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
    put_duration(&mut w, bin.compile_time);
    put_metrics(&mut w, &bin.metrics);
    w.usize(bin.diagnostics.len());
    for d in &bin.diagnostics {
        w.str(d.code.code());
        w.u8(d.severity.tag());
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

#[cold]
#[inline(never)]
fn corrupt(what: &str, v: impl std::fmt::Display) -> StoreError {
    StoreError::Corrupt(format!("bad {what} {v}"))
}

/// A counted sequence: its count, bounded by the bytes left before
/// anything is allocated for it ([`ByteReader::count`]), then that many
/// items decoded by `item`.
#[inline]
fn get_seq<'a, T>(
    r: &mut ByteReader<'a>,
    mut item: impl FnMut(&mut ByteReader<'a>) -> Result<T, StoreError>,
) -> Result<Vec<T>, StoreError> {
    let n = r.count()?;
    let mut items = Vec::with_capacity(n);
    for _ in 0..n {
        items.push(item(r)?);
    }
    Ok(items)
}

/// A [`Tag`]: the variant at the byte's index in the table.
#[inline]
fn get_tag<T: Tag>(r: &mut ByteReader) -> Result<T, StoreError> {
    let t = r.u8()?;
    T::ALL
        .get(usize::from(t))
        .copied()
        .ok_or_else(|| corrupt(T::WHAT, t))
}

#[inline]
fn get_duration(r: &mut ByteReader) -> Result<Duration, StoreError> {
    Ok(Duration::from_nanos(r.u64()?))
}

#[inline]
fn get_ty(r: &mut ByteReader) -> Result<ks_ir::Ty, StoreError> {
    Ok(match r.u8()? {
        0 => ks_ir::Ty::S32,
        1 => ks_ir::Ty::U32,
        2 => ks_ir::Ty::F32,
        3 => ks_ir::Ty::Pred,
        4 => ks_ir::Ty::Ptr(get_tag(r)?),
        t => return Err(corrupt("type tag", t)),
    })
}

#[inline]
fn get_vreg(r: &mut ByteReader) -> Result<ks_ir::VReg, StoreError> {
    Ok(ks_ir::VReg(r.u32()?))
}

#[inline]
fn get_operand(r: &mut ByteReader) -> Result<ks_ir::Operand, StoreError> {
    Ok(match r.u8()? {
        0 => ks_ir::Operand::Reg(get_vreg(r)?),
        1 => ks_ir::Operand::ImmI(r.i64()?),
        2 => ks_ir::Operand::ImmF(r.f32_bits()?),
        t => return Err(corrupt("operand tag", t)),
    })
}

#[inline]
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

#[inline]
fn get_inst(r: &mut ByteReader) -> Result<ks_ir::Inst, StoreError> {
    use ks_ir::Inst;
    Ok(match r.u8()? {
        0 => Inst::Mov {
            ty: get_ty(r)?,
            dst: get_vreg(r)?,
            src: get_operand(r)?,
        },
        1 => Inst::Bin {
            op: get_tag(r)?,
            ty: get_ty(r)?,
            dst: get_vreg(r)?,
            a: get_operand(r)?,
            b: get_operand(r)?,
        },
        2 => Inst::Un {
            op: get_tag(r)?,
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
            cmp: get_tag(r)?,
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
            space: get_tag(r)?,
            ty: get_ty(r)?,
            dst: get_vreg(r)?,
            addr: get_address(r)?,
        },
        8 => Inst::St {
            space: get_tag(r)?,
            ty: get_ty(r)?,
            addr: get_address(r)?,
            src: get_operand(r)?,
        },
        9 => Inst::Bar,
        10 => Inst::Special {
            dst: get_vreg(r)?,
            reg: get_tag(r)?,
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

#[inline]
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
    Ok(ks_ir::Function {
        name: r.str()?,
        params: get_seq(r, |r| {
            Ok(ks_ir::KernelParam {
                name: r.str()?,
                ty: get_ty(r)?,
                offset: r.u32()?,
            })
        })?,
        blocks: get_seq(r, |r| {
            Ok(ks_ir::BasicBlock {
                id: ks_ir::BlockId(r.u32()?),
                insts: get_seq(r, get_inst)?,
                term: get_terminator(r)?,
            })
        })?,
        vreg_types: get_seq(r, get_ty)?,
        shared: get_seq(r, |r| {
            Ok(ks_ir::SharedDecl {
                name: r.str()?,
                offset: r.u32()?,
                size_bytes: r.u32()?,
            })
        })?,
        local_bytes: r.u32()?,
    })
}

fn get_module(r: &mut ByteReader) -> Result<ks_ir::Module, StoreError> {
    Ok(ks_ir::Module {
        functions: get_seq(r, get_function)?,
        consts: get_seq(r, |r| {
            Ok(ks_ir::ConstDecl {
                name: r.str()?,
                offset: r.u32()?,
                size_bytes: r.u32()?,
            })
        })?,
        textures: get_seq(r, ByteReader::str)?,
    })
}

/// Decode a module section written by [`serialize_binary`].
fn decode_module(section: &[u8]) -> Result<ks_ir::Module, StoreError> {
    let mut r = ByteReader::new(section);
    let module = get_module(&mut r)?;
    r.expect_end()?;
    // Every module the compiler stores passed the verifier, so one that
    // fails it was not written by this encoder (a forged record, a writer
    // bug), and planning it could panic.
    if let Some(e) = ks_ir::verify_module(&module).first() {
        return Err(StoreError::Corrupt(format!(
            "module section is not valid IR: {e}"
        )));
    }
    Ok(module)
}

#[inline]
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

/// Re-intern a persisted KSV code to its `&'static str`; an unknown
/// code means the record was written by something we don't understand.
fn intern_ksv_code(code: &str) -> Result<&'static str, StoreError> {
    let known = ks_verify::CODES.iter().find(|&&known| known == code);
    known
        .copied()
        .ok_or_else(|| corrupt("verification code", code))
}

/// Decode a store payload back into a [`Binary`]: everything but the
/// module section, which stays encoded until first access (and its
/// listing, printed from it on first read).
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
    let module = LazyModule::encoded(r.bytes()?);
    let regalloc: HashMap<String, RegAlloc> = get_seq(&mut r, |r| {
        Ok((
            r.str()?,
            RegAlloc {
                gpr_count: r.u32()?,
                pred_count: r.u32()?,
                assignment: get_seq(r, ByteReader::u32)?,
            },
        ))
    })?
    .into_iter()
    .collect();
    let mut defines = Defines::new();
    for (name, value) in get_seq(&mut r, |r| Ok((r.str()?, r.str()?)))? {
        defines = defines.def(&name, value);
    }
    let compile_time = get_duration(&mut r)?;
    let metrics = get_metrics(&mut r)?;
    let diagnostics = get_seq(&mut r, |r| {
        let code_str = r.str()?;
        let code = ks_analysis::LintCode::parse(&code_str)
            .ok_or_else(|| corrupt("lint code", &code_str))?;
        let severity = get_tag(r)?;
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
        Ok(ks_analysis::Diagnostic {
            code,
            severity,
            function,
            block,
            inst,
            message: r.str()?,
        })
    })?;
    let verification = get_seq(&mut r, |r| {
        Ok(ks_verify::Finding {
            code: intern_ksv_code(&r.str()?)?,
            context: r.str()?,
            env: r.str()?,
            function: r.str()?,
            message: r.str()?,
        })
    })?;
    r.expect_end()?;
    Ok(Binary {
        // The record is filed under the key; the loader sets it.
        key: Fingerprint::from_u128(0),
        plans: OnceLock::new(),
        ptx: Listing::of(&module),
        module,
        regalloc,
        defines,
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
    use ks_store::StableHasher;

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
        assert_eq!(*a.module, *b.module);
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

    /// The module section of a serialized payload (it follows the
    /// schema stamp).
    fn module_section(payload: &[u8]) -> &[u8] {
        ByteReader::new(&payload[4..]).bytes().unwrap()
    }

    /// Read a binary's module the ways a caller can: deref, `get`, the
    /// per-kernel accessors and, when the section fails to decode,
    /// `plan`. Nothing may panic. (A section that decodes is well-formed
    /// but need not be valid IR, which the decoder does not check: its
    /// plan is not built here.)
    fn read_module(bin: &Binary) {
        if bin.module.get().is_err() {
            assert!(bin.plan("k").is_err());
            assert!(bin.module.functions.is_empty());
        }
        let _ = (bin.static_insts("k"), bin.shared_bytes("k"));
        let _ = (bin.local_bytes("k"), bin.module.textures.len());
    }

    #[test]
    fn truncated_payload_is_a_typed_error() {
        let c = Compiler::new(DeviceConfig::tesla_c1060());
        let bin = c.compile(KERNEL, Defines::new()).unwrap();
        let mut bytes = serialize_binary(&bin);
        for cut in 0..bytes.len() {
            match deserialize_binary(&bytes[..cut]) {
                Err(StoreError::Truncated { .. } | StoreError::Corrupt(_)) => {}
                other => panic!("cut at {cut}: expected typed error, got {other:?}"),
            }
        }
        // The cuts above end inside the module section's declared length,
        // so none reaches its decoder, which runs on first access: cut the
        // section itself at every byte.
        let section = module_section(&bytes);
        for cut in 0..section.len() {
            let module = LazyModule::encoded(&section[..cut]);
            match module.get() {
                Err(StoreError::Truncated { .. } | StoreError::Corrupt(_)) => {}
                other => panic!("section cut at {cut}: expected typed error, got {other:?}"),
            }
            assert!(module.functions.is_empty(), "section cut at {cut}");
        }
        // An absurd instruction count fails as `Truncated`, never
        // allocating for it first. Locate the first block's count by
        // writing the fields before it.
        let f = &bin.module.functions[0];
        let mut w = ByteWriter::new();
        w.u32(BINARY_SCHEMA_VERSION);
        w.u64(section.len() as u64);
        w.usize(bin.module.functions.len());
        w.str(&f.name);
        w.usize(f.params.len());
        for p in &f.params {
            w.str(&p.name);
            put_ty(&mut w, p.ty);
            w.u32(p.offset);
        }
        w.usize(f.blocks.len());
        w.u32(f.blocks[0].id.0);
        let at = w.len();
        let count = &mut bytes[at..at + 8];
        assert_eq!(*count, (f.blocks[0].insts.len() as u64).to_le_bytes());
        count.copy_from_slice(&u64::MAX.to_le_bytes());
        let back = deserialize_binary(&bytes).expect("the section is opaque to the load");
        let got = back.module.get();
        assert!(matches!(got, Err(StoreError::Truncated { .. })), "{got:?}");
        assert!(matches!(back.plan("k"), Err(StoreError::Truncated { .. })));
        read_module(&back);
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
            if let Ok(back) = deserialize_binary(&evil) {
                read_module(&back);
            }
        }
        // The module section is opaque to the load, so flip each of its
        // bytes on its own and decode it: every tag, count and operand
        // reaches the decoder on first access. 0xff is no tag of any enum.
        let section = module_section(&bytes);
        let mut corrupt = 0;
        for pos in 0..section.len() {
            for flip in [section[pos].wrapping_add(0x40), 0xff] {
                let mut evil = section.to_vec();
                evil[pos] = flip;
                let module = LazyModule::encoded(&evil);
                corrupt += usize::from(module.get().is_err());
                let _ = module.functions.len();
            }
        }
        assert!(corrupt > 0, "no flip of the section was caught");
    }

    #[test]
    fn a_section_that_does_not_decode_has_no_listing() {
        let c = Compiler::new(DeviceConfig::tesla_c1060());
        let bin = c.compile(KERNEL, Defines::new()).unwrap();
        let bytes = serialize_binary(&bin);
        let rest = &bytes[4 + 8 + module_section(&bytes).len()..];
        // A function count with no function after it (truncated), and a
        // parameter whose type tag, 0xff, names no type (corrupt).
        let mut bad_tag = ByteWriter::new();
        bad_tag.usize(1);
        bad_tag.str("k");
        bad_tag.usize(1);
        bad_tag.str("in");
        bad_tag.u8(0xff);
        for section in [vec![1, 0, 0, 0, 0, 0, 0, 0], bad_tag.into_vec()] {
            let mut w = ByteWriter::new();
            w.u32(BINARY_SCHEMA_VERSION);
            w.bytes(&section);
            let mut forged = w.into_vec();
            forged.extend_from_slice(rest);
            let back = deserialize_binary(&forged).expect("the section is opaque to the load");
            let e = back.module.get().expect_err("the section does not decode");
            let text = e.to_string();
            assert_eq!(
                &*back.ptx,
                format!("// {text}"),
                "one line naming the error"
            );
            assert_eq!(back.plan("k").map(drop).unwrap_err().to_string(), text);
            read_module(&back);
        }
    }

    #[test]
    fn a_disk_hit_leaves_the_module_undecoded_until_read() {
        let dir = std::env::temp_dir().join(format!("ks-core-lazy-module-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let d = Defines::new().def("LOOP_COUNT", 4);
        let cold = Compiler::new(DeviceConfig::tesla_c1060())
            .with_store(&dir)
            .unwrap();
        let compiled = cold.compile(KERNEL, &d).unwrap();
        assert!(
            compiled.module.0.decoded.get().is_some(),
            "a compile holds its IR"
        );
        assert!(
            compiled.ptx.text.get().is_none(),
            "a compile prints nothing"
        );
        // The record carries no listing text.
        let record = std::fs::read(Store::open(&dir).unwrap().record_path(compiled.key())).unwrap();
        let payload = Store::decode_record(compiled.key(), &record).unwrap();
        assert!(!payload.windows(6).any(|w| w == b".entry"));
        let warm = Compiler::new(DeviceConfig::tesla_c1060())
            .with_store(&dir)
            .unwrap();
        let bin = warm.compile(KERNEL, &d).unwrap();
        assert_eq!(warm.cache_stats().disk_hits, 1);
        // Everything but the IR is decoded on load; nothing is printed.
        assert_eq!(bin.regs_per_thread("k"), compiled.regs_per_thread("k"));
        assert!(bin.module.0.decoded.get().is_none(), "{:?}", bin.module);
        assert!(bin.ptx.text.get().is_none(), "{:?}", bin.ptx);
        assert!(bin.plans.get().is_none());
        // A memory hit of the same binary decodes nothing either.
        let again = warm.compile(KERNEL, &d).unwrap();
        assert!(Arc::ptr_eq(&bin, &again) && again.module.0.decoded.get().is_none());
        // The first listing read decodes the IR, once, and prints the
        // cold compile's listing.
        assert_eq!(bin.ptx, compiled.ptx);
        assert!(bin.module.0.decoded.get().is_some());
        assert!(bin.ptx.contains(".entry k"));
        assert_eq!(*bin.module, *compiled.module);
        assert!(std::ptr::eq(&*bin.module, bin.module.get().unwrap()));
        assert!(bin.plan("k").unwrap().is_some());
        assert!(matches!(bin.plan("absent"), Ok(None)), "no such kernel");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The module section of each app kernel's RE and SK record on the
    /// C2070 (SK with the `-D` sets `ci.sh` lints), pinned by its
    /// `StableHasher` fingerprint. The section holds no duration, so its
    /// bytes move only when the IR or its encoding does.
    #[test]
    fn app_module_sections_are_pinned() {
        const APPS: [(&str, &str, &str); 3] = [
            (
                "template_match",
                include_str!("../../apps/src/kernels/template_match.cu"),
                "TILE_W=16 TILE_H=16 SHIFT_W=16 NUM_TILES=16 TEMPL_W=64 TEMPL_H=56 THREADS=128",
            ),
            (
                "piv",
                include_str!("../../apps/src/kernels/piv.cu"),
                "RB=4 THREADS=64 MASK_W=16 MASK_H=16 OFFS_W=9",
            ),
            (
                "backproj",
                include_str!("../../apps/src/kernels/backproj.cu"),
                "PPL=8 ZB=4 VOL_N=32",
            ),
        ];
        let c = Compiler::new(DeviceConfig::tesla_c2070());
        let mut got = Vec::new();
        for (app, src, defs) in APPS {
            let sk = defs.split(' ').filter_map(|d| d.split_once('='));
            let sk = sk.fold(Defines::new(), |d, (n, v)| d.def(n, v));
            for (variant, d) in [("RE", Defines::new()), ("SK", sk)] {
                let payload = serialize_binary(&c.compile(src, &d).unwrap());
                let fp = StableHasher::new().bytes(module_section(&payload)).finish();
                got.push(format!("{app} {variant} {}", fp.to_hex()));
            }
        }
        assert_eq!(
            got,
            [
                "template_match RE d513fba65a9a8f31bce2b913d5491014",
                "template_match SK 3de300a1bd147c6977033ada68c2e90c",
                "piv RE 5d7243a71152a1289c7850d141fdb850",
                "piv SK 857639f9fc6dd6497d22ab839ec88575",
                "backproj RE 1f40aa2d3ef874ddc97ccfe8e2412657",
                "backproj SK 3285edaada68d11fb3778c3ed7786192",
            ]
        );
    }

    /// Every variant of every tag table decodes from its own tag, in the
    /// order the tables have always written; 0xff is no table's tag.
    #[test]
    fn every_tag_table_round_trips() {
        fn check<T: Tag + std::fmt::Debug>(order: &str) {
            assert_eq!(format!("{:?}", T::ALL), order);
            for &v in T::ALL {
                assert_eq!(get_tag::<T>(&mut ByteReader::new(&[v.tag()])).unwrap(), v);
            }
            let e = get_tag::<T>(&mut ByteReader::new(&[0xff])).unwrap_err();
            let want = format!("bad {} 255", T::WHAT);
            assert!(matches!(&e, StoreError::Corrupt(m) if *m == want), "{e:?}");
        }
        check::<Space>("[Global, Shared, Const, Local, Param]");
        check::<BinOp>("[Add, Sub, Mul, Mul24, Div, Rem, Min, Max, And, Or, Xor, Shl, Shr]");
        check::<UnOp>("[Neg, Not, Abs, Sqrt, Rsqrt, Floor]");
        check::<CmpOp>("[Eq, Ne, Lt, Le, Gt, Ge]");
        check::<SpecialReg>(
            "[TidX, TidY, TidZ, CtaIdX, CtaIdY, CtaIdZ, NtidX, NtidY, NtidZ, NctaIdX, NctaIdY, NctaIdZ]",
        );
        check::<Severity>("[Allow, Warn, Deny]");
    }
}
