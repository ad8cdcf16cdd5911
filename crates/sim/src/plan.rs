//! Decode-once launch plans.
//!
//! Everything about a kernel that does not depend on the launch — the
//! CFG flattened into one pc-indexed op array, `(opcode, type)` fused
//! into one discriminant, operands resolved to register-file rows,
//! immediates materialised as broadcast rows, each branch's
//! reconvergence pc, cost *classes* instead of cycles — is decided here,
//! once, and then only read by the control core (`crate::simt`) and its
//! domains: the simulator's executor (`crate::interp`) and `ks-analysis`'s
//! abstract lanes. A plan holds no device parameter, so one plan serves
//! every `DeviceConfig`, and it is derived data: it is never serialized.
//!
//! Registers live in two banks, placed here. A register whose every
//! writer leaves a 32-bit value extended one way — zero or sign — keeps
//! only that 32-bit value, in the 32-bit bank; pointers, and any register
//! whose writers disagree or write 64 bits, keep 64 bits in the 64-bit
//! bank. Read as 64 bits, a 32-bit-bank register is its value extended
//! the way its writers extend it: exactly the bits a 64-bit register
//! file would hold. The plan numbers its register rows bank by bank, so
//! an op's operand fields say which bank they name, and gives each op the
//! [`Form`] in which the executor runs it.

use crate::device::{IssueClass, LatencyClass};
use crate::memo::{timing_is_data_independent, ConstReads, TimingMemo};
use crate::regalloc::{allocate, RegAlloc};
use ks_ir::cfg::{ipdoms, Cfg};
use ks_ir::fxhash::FxHashMap;
use ks_ir::{
    BinOp, BlockId, CmpOp, Function, Inst, KernelParam, Operand, Space, SpecialReg, Terminator, Ty,
    UnOp,
};
use BinKind::*;

/// One value per lane of a warp, in the 32-bit bank.
pub(crate) type Row32 = [u32; 32];
/// One value per lane of a warp, in the 64-bit bank.
pub(crate) type Row64 = [u64; 32];

/// "No row" / "no pc". As an operand it lies beyond every register and
/// immediate row, so scoreboard lookups skip it like an immediate.
pub const NONE: u32 = u32::MAX;

/// `Bin` with its type folded in. A 32-bit result is kept as 32 bits in
/// the 32-bit bank; read as 64 bits, an S32 result is sign-extended and
/// every other 32-bit result zero-extended (`ks_ir::eval`'s form).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinKind {
    FAdd,
    FSub,
    FMul,
    FDiv,
    FMin,
    FMax,
    UAdd,
    USub,
    UMul,
    UMul24,
    UDiv,
    URem,
    UMin,
    UMax,
    UAnd,
    UOr,
    UXor,
    UShl,
    UShr,
    SAdd,
    SSub,
    SMul,
    SMul24,
    SDiv,
    SRem,
    SMin,
    SMax,
    SAnd,
    SOr,
    SXor,
    SShl,
    SShr,
    PtrAdd,
    PtrSub,
    PredAnd,
    PredOr,
    PredXor,
}

/// `Un` with its type folded in. `signed` picks the extension of the
/// 32-bit integer result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnKind {
    FNeg,
    FAbs,
    FSqrt,
    FRsqrt,
    FFloor,
    FNot,
    PredNot,
    /// Any other op on a predicate yields 0.
    PredZero,
    INeg {
        signed: bool,
    },
    INot {
        signed: bool,
    },
    IAbs {
        signed: bool,
    },
    /// `sqrt`/`rsqrt`/`floor` on an integer: the low 32 bits, re-extended.
    ILow {
        signed: bool,
    },
}

/// The value domain a `mad` multiplies and adds in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MadKind {
    F32,
    U32,
    S32,
}

/// The value domain a `setp` compares in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpDomain {
    F32,
    U32,
    /// S32 and predicates.
    S32,
    /// Pointers: the full 64 bits, unsigned.
    U64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CvtKind {
    SToF,
    UToF,
    FToS,
    FToU,
    /// Low 32 bits sign-extended (S32 ↔ pointer).
    Sext,
    /// Low 32 bits zero-extended (U32 ↔ pointer).
    Zext,
    Copy,
}

/// What an op does, matched once per warp-instruction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// `dst = a`
    Mov,
    Special(SpecialReg),
    /// `dst = a op b`
    Bin(BinKind),
    /// `dst = op a`
    Un(UnKind),
    /// `dst = a * b + c`, two roundings.
    Mad(MadKind),
    /// `dst = a cmp b`
    Setp(CmpOp, CmpDomain),
    /// `dst = c ? a : b`
    Selp,
    /// `dst = cvt a`
    Cvt(CvtKind),
    /// `dst = [a + imm]`; `wide` reads a 64-bit pointer parameter.
    Ld {
        space: Space,
        sext: bool,
        wide: bool,
    },
    /// `[a + imm] = b`, to a writable space.
    St {
        space: Space,
    },
    /// `dst = textures[imm][a]`
    Tex {
        sext: bool,
    },
    Bar,
    /// An instruction the interpreter rejects when (and only when) it is
    /// executed, with `LaunchPlan::traps[imm]`.
    Trap,
    /// Jump to pc `imm`.
    Br,
    /// Branch on predicate row `a` to `LaunchPlan::branches[imm]`.
    CondBr {
        negate: bool,
    },
    Ret,
}

/// Where a conditional branch goes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Branch {
    pub then_pc: u32,
    pub else_pc: u32,
    /// Pc of the immediate post-dominator, [`NONE`] when the paths only
    /// meet at function exit.
    pub reconv: u32,
}

/// Which `ExecStats` unit counter an op bumps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Unit {
    Alu,
    Mul,
    DivSqrt,
    /// Memory ops, barriers and terminators count themselves.
    Other,
}

/// How a pure op's operands sit in the two banks, which picks the row
/// kernel that runs it. Memory ops look at their operands' rows instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Form {
    /// Sources and destination in the 32-bit bank.
    W32,
    /// Sources and destination in the 64-bit bank; for `setp.u64` the
    /// destination, for `selp` the predicate, in the 32-bit one.
    W64,
    /// A 32-bit source read as 64 bits into a 64-bit destination: a
    /// pointer offset, or a conversion to a pointer.
    Widen,
    /// A conversion from a 64-bit source into the 32-bit bank.
    Narrow,
    /// Any other placement (only hand-built IR mixes widths this way): lane
    /// by lane through `ks_ir::eval`, each source widened to 64 bits.
    Mixed,
}

/// One decoded instruction or terminator. Plans live as long as the
/// binaries that own them, so this stays at 32 bytes: wide payloads go
/// through `imm`.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    pub kind: Kind,
    pub(crate) form: Form,
    pub(crate) unit: Unit,
    pub(crate) issue: IssueClass,
    /// Latency of the result; for a store, of a load that must observe it.
    pub(crate) latency: LatencyClass,
    /// Destination register row, or [`NONE`].
    pub dst: u32,
    /// Source rows: registers are `0..num_vregs` (the 32-bit bank's, then
    /// the 64-bit bank's; [`LaunchPlan::row`] maps an IR register to its
    /// row), immediates follow them, [`NONE`] is absent. These are exactly
    /// the registers the scoreboard waits for.
    pub a: u32,
    pub b: u32,
    pub c: u32,
    /// The op's one immediate, by kind: byte offset of a memory operand,
    /// texture index, branch target or table index.
    pub imm: i64,
}

const _: () = assert!(std::mem::size_of::<Op>() == 32);

/// A kernel decoded for launching. Build it once per compiled kernel with
/// [`LaunchPlan::new`] and hand it to [`crate::launch_planned`] as often
/// as needed, on any device.
#[derive(Debug)]
pub struct LaunchPlan {
    pub(crate) kernel: String,
    pub(crate) params: Vec<KernelParam>,
    pub(crate) param_bytes: u32,
    /// Physical general-purpose and predicate registers per thread.
    pub(crate) gpr_count: u32,
    pub(crate) pred_count: u32,
    pub(crate) shared_bytes: u32,
    pub(crate) local_bytes: u32,
    pub(crate) static_insts: usize,
    pub(crate) num_vregs: usize,
    /// Instructions and terminators in block-layout order.
    pub(crate) ops: Vec<Op>,
    /// First pc of each basic block.
    pub(crate) block_pc: Vec<u32>,
    /// Broadcast rows of the distinct immediates, addressed after the
    /// register rows.
    pub(crate) imm_rows: Vec<Row64>,
    /// The same immediates' low words, as the 32-bit bank reads them.
    pub(crate) imm32_rows: Vec<Row32>,
    /// Where the register rows split: the 32-bit bank is
    /// `0..wide_from`, its sign-extending registers `signed_from..`, and
    /// the 64-bit bank `wide_from..num_vregs`.
    pub(crate) signed_from: u32,
    pub(crate) wide_from: u32,
    /// Each register row's IR type.
    pub(crate) row_tys: Vec<Ty>,
    /// Targets of the [`Kind::CondBr`] ops.
    pub(crate) branches: Vec<Branch>,
    /// Messages of the [`Kind::Trap`] ops.
    pub(crate) traps: Vec<String>,
    /// Registers live into the entry block: some path reads them before
    /// writing them. A reused register file must hold 0 there at block
    /// entry; every other register is written by each lane before that
    /// lane reads it.
    pub(crate) entry_live: Vec<u32>,
    /// The constant bytes the kernel can read: part of the memo key.
    pub(crate) const_reads: ConstReads,
    /// The launches' remembered timing samples; present exactly when the
    /// kernel's timing cannot depend on data (`crate::memo`).
    pub(crate) timing_memo: Option<TimingMemo>,
}

impl LaunchPlan {
    /// Decode `f` when no allocation is at hand (a bare `Module`): runs
    /// the register allocator first.
    pub fn from_function(f: &Function) -> LaunchPlan {
        LaunchPlan::new(f, &allocate(f))
    }

    /// Decode `f`. `regalloc` is the allocation the compile already
    /// produced for it (`Binary::regalloc`).
    pub fn new(f: &Function, regalloc: &RegAlloc) -> LaunchPlan {
        let cfg = Cfg::build(f);
        let pdom = ipdoms(f, &cfg);
        let mut block_pc = Vec::with_capacity(f.blocks.len());
        let mut pc = 0u32;
        for b in &f.blocks {
            block_pc.push(pc);
            pc += b.insts.len() as u32 + 1;
        }
        let start = |b: BlockId| block_pc[b.0 as usize];

        let mut d = Decoder {
            num_vregs: f.num_vregs() as u32,
            imm_index: FxHashMap::default(),
            imm_rows: Vec::new(),
            traps: Vec::new(),
        };
        let mut ops = Vec::with_capacity(pc as usize);
        let mut branches = Vec::new();
        for b in &f.blocks {
            for inst in &b.insts {
                ops.push(d.inst(inst));
            }
            let mut op = Op::new(Kind::Ret, Unit::Other);
            match &b.term {
                Terminator::Ret => {}
                Terminator::Br { target } => {
                    op.kind = Kind::Br;
                    op.imm = start(*target) as i64;
                }
                Terminator::CondBr {
                    pred,
                    negate,
                    then_t,
                    else_t,
                } => {
                    op.kind = Kind::CondBr { negate: *negate };
                    op.a = pred.0;
                    op.imm = branches.len() as i64;
                    branches.push(Branch {
                        then_pc: start(*then_t),
                        else_pc: start(*else_t),
                        reconv: pdom[b.id.0 as usize].map_or(NONE, start),
                    });
                }
            }
            ops.push(op);
        }

        let banks = Banks::place(&mut ops, f, &d.imm_rows);
        let timing_memo = timing_is_data_independent(&ops, f.num_vregs()).then(TimingMemo::default);
        let const_reads = ConstReads::of(&ops);
        let entry_live = ks_ir::cfg::liveness(f, &cfg)
            .live_in(0)
            .map(|r| banks.rows[r as usize])
            .collect();
        let imm32_rows = d.imm_rows.iter().map(|r| r.map(|v| v as u32)).collect();
        LaunchPlan {
            kernel: f.name.clone(),
            params: f.params.clone(),
            param_bytes: f.param_bytes(),
            gpr_count: regalloc.gpr_count,
            pred_count: regalloc.pred_count,
            shared_bytes: f.shared_bytes(),
            local_bytes: f.local_bytes,
            static_insts: f.static_inst_count(),
            num_vregs: f.num_vregs(),
            ops,
            block_pc,
            imm_rows: d.imm_rows,
            imm32_rows,
            signed_from: banks.signed_from,
            wide_from: banks.wide_from,
            row_tys: banks.row_tys,
            branches,
            traps: d.traps,
            entry_live,
            const_reads,
            timing_memo,
        }
    }

    /// Whether no value the kernel loads from global, shared or local
    /// memory or fetches from a texture can reach a branch or an address.
    /// Launches of such a plan remember their timing sample and a repeat
    /// of the same (device, geometry, arguments, constants) reuses it.
    pub fn timing_is_data_independent(&self) -> bool {
        self.timing_memo.is_some()
    }

    /// How many timing samples the plan remembers (at most 8).
    pub fn timing_memo_len(&self) -> usize {
        self.timing_memo.as_ref().map_or(0, TimingMemo::len)
    }

    /// The basic block containing `pc` (for diagnostics).
    pub(crate) fn block_of(&self, pc: u32) -> BlockId {
        BlockId(self.block_pc.partition_point(|&start| start <= pc) as u32 - 1)
    }

    /// Where `pc` sits in the function: its block and its index there
    /// (the block's terminator follows its instructions).
    pub fn site(&self, pc: u32) -> (BlockId, usize) {
        let b = self.block_of(pc);
        (b, (pc - self.block_pc[b.0 as usize]) as usize)
    }

    /// The bits of operand row `row` when it is an immediate; `None` for a
    /// register.
    pub fn imm(&self, row: u32) -> Option<u64> {
        let i = (row as usize).checked_sub(self.num_vregs)?;
        Some(self.imm_rows[i][0])
    }

    /// The IR type of the register in row `row`; `None` for an immediate.
    pub fn row_ty(&self, row: u32) -> Option<Ty> {
        self.row_tys.get(row as usize).copied()
    }

    /// Where the registers live, and how many ops mix widths.
    pub fn bank_census(&self) -> BankCensus {
        let wide_base =
            |op: &Op| matches!(op.kind, Kind::Ld { .. } | Kind::St { .. }) && op.a < self.wide_from;
        let regs32 = self.wide_from as usize;
        BankCensus {
            regs32,
            regs64: self.num_vregs - regs32,
            widened: self
                .ops
                .iter()
                .filter(|op| op.form == Form::Widen || wide_base(op))
                .count(),
            mixed: self.ops.iter().filter(|op| op.form == Form::Mixed).count(),
        }
    }
}

/// How a decoded kernel's registers split between the banks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BankCensus {
    /// Registers kept as 32 bits.
    pub regs32: usize,
    /// Registers kept as 64 bits.
    pub regs64: usize,
    /// Ops that read a 32-bit register as 64 bits: pointer offsets,
    /// conversions to a pointer, address bases.
    pub(crate) widened: usize,
    /// Ops whose operands sit in banks their kind does not read, which
    /// run lane by lane ([`Form::Mixed`]).
    pub mixed: usize,
}

impl BinKind {
    /// The `(op, type)` the kind decodes from, for `ks_ir::eval` (pointer
    /// kinds answer in the global space, which `eval` does not read).
    pub fn op_ty(self) -> (BinOp, Ty) {
        let (kind, op, ty) = BINS[self as usize];
        debug_assert_eq!(kind, self, "BINS follows the declaration order");
        (op, ty)
    }
}

impl UnKind {
    /// An `(op, type)` the kind decodes from, for `ks_ir::eval`.
    pub fn op_ty(self) -> (UnOp, Ty) {
        let int = |signed| if signed { Ty::S32 } else { Ty::U32 };
        match self {
            UnKind::FNeg => (UnOp::Neg, Ty::F32),
            UnKind::FAbs => (UnOp::Abs, Ty::F32),
            UnKind::FSqrt => (UnOp::Sqrt, Ty::F32),
            UnKind::FRsqrt => (UnOp::Rsqrt, Ty::F32),
            UnKind::FFloor => (UnOp::Floor, Ty::F32),
            UnKind::FNot => (UnOp::Not, Ty::F32),
            UnKind::PredNot => (UnOp::Not, Ty::Pred),
            UnKind::PredZero => (UnOp::Neg, Ty::Pred),
            UnKind::INeg { signed } => (UnOp::Neg, int(signed)),
            UnKind::INot { signed } => (UnOp::Not, int(signed)),
            UnKind::IAbs { signed } => (UnOp::Abs, int(signed)),
            UnKind::ILow { signed } => (UnOp::Floor, int(signed)),
        }
    }
}

impl MadKind {
    /// The type the `mad` multiplies and adds in.
    pub fn ty(self) -> Ty {
        match self {
            MadKind::F32 => Ty::F32,
            MadKind::U32 => Ty::U32,
            MadKind::S32 => Ty::S32,
        }
    }
}

impl CmpDomain {
    /// A type that compares in this domain, for `ks_ir::eval::cmp`.
    pub fn ty(self) -> Ty {
        match self {
            CmpDomain::F32 => Ty::F32,
            CmpDomain::U32 => Ty::U32,
            CmpDomain::S32 => Ty::S32,
            CmpDomain::U64 => PTR,
        }
    }
}

impl CvtKind {
    /// A `(dst, src)` type pair the conversion decodes from, for
    /// `ks_ir::eval::cvt`; `None` for [`CvtKind::Copy`], which is no
    /// conversion.
    pub fn tys(self) -> Option<(Ty, Ty)> {
        Some(match self {
            CvtKind::SToF => (Ty::F32, Ty::S32),
            CvtKind::UToF => (Ty::F32, Ty::U32),
            CvtKind::FToS => (Ty::S32, Ty::F32),
            CvtKind::FToU => (Ty::U32, Ty::F32),
            CvtKind::Sext => (PTR, Ty::S32),
            CvtKind::Zext => (PTR, Ty::U32),
            CvtKind::Copy => return None,
        })
    }
}

impl Op {
    fn new(kind: Kind, unit: Unit) -> Op {
        Op {
            kind,
            form: Form::W32,
            unit,
            issue: IssueClass::Plain,
            latency: LatencyClass::Alu,
            dst: NONE,
            a: NONE,
            b: NONE,
            c: NONE,
            imm: 0,
        }
    }
}

struct Decoder {
    num_vregs: u32,
    imm_index: FxHashMap<u64, u32>,
    imm_rows: Vec<Row64>,
    traps: Vec<String>,
}

impl Decoder {
    fn row(&mut self, o: &Operand) -> u32 {
        let bits = match o {
            Operand::Reg(r) => return r.0,
            Operand::ImmI(v) => *v as u64,
            Operand::ImmF(v) => v.to_bits() as u64,
        };
        let next = self.num_vregs + self.imm_rows.len() as u32;
        let rows = &mut self.imm_rows;
        *self.imm_index.entry(bits).or_insert_with(|| {
            rows.push([bits; 32]);
            next
        })
    }

    /// Turn `op` into a trap with `msg`.
    fn trap(&mut self, op: &mut Op, msg: String) -> Kind {
        op.imm = self.traps.len() as i64;
        self.traps.push(msg);
        Kind::Trap
    }

    fn inst(&mut self, inst: &Inst) -> Op {
        let mut op = Op::new(Kind::Bar, Unit::Alu);
        op.issue = IssueClass::of(inst);
        op.latency = LatencyClass::of(inst);
        op.dst = inst.def().map_or(NONE, |d| d.0);
        op.kind = match inst {
            Inst::Mov { src, .. } => {
                op.a = self.row(src);
                Kind::Mov
            }
            Inst::Special { reg, .. } => Kind::Special(*reg),
            Inst::Bin {
                op: bin, ty, a, b, ..
            } => {
                op.a = self.row(a);
                op.b = self.row(b);
                op.unit = match bin {
                    BinOp::Div | BinOp::Rem => Unit::DivSqrt,
                    BinOp::Mul | BinOp::Mul24 => Unit::Mul,
                    _ => Unit::Alu,
                };
                match bin_kind(*bin, *ty) {
                    Ok(k) => Kind::Bin(k),
                    Err(msg) => self.trap(&mut op, msg),
                }
            }
            Inst::Un { op: un, ty, a, .. } => {
                op.a = self.row(a);
                if matches!(un, UnOp::Sqrt | UnOp::Rsqrt) {
                    op.unit = Unit::DivSqrt;
                }
                Kind::Un(un_kind(*un, *ty))
            }
            Inst::Mad { ty, a, b, c, .. } => {
                op.a = self.row(a);
                op.b = self.row(b);
                op.c = self.row(c);
                op.unit = Unit::Mul;
                // A mad is a `mul` then an `add` of the same type, and
                // fails the way the first unsupported one would.
                match ty {
                    Ty::F32 => Kind::Mad(MadKind::F32),
                    Ty::U32 => Kind::Mad(MadKind::U32),
                    Ty::S32 => Kind::Mad(MadKind::S32),
                    _ => match bin_kind(BinOp::Mul, *ty) {
                        Err(msg) => self.trap(&mut op, msg),
                        Ok(k) => unreachable!("mul.{ty} decodes to {k:?}"),
                    },
                }
            }
            Inst::Setp { cmp, ty, a, b, .. } => {
                op.a = self.row(a);
                op.b = self.row(b);
                let domain = match ty {
                    Ty::F32 => CmpDomain::F32,
                    Ty::U32 => CmpDomain::U32,
                    Ty::Ptr(_) => CmpDomain::U64,
                    Ty::S32 | Ty::Pred => CmpDomain::S32,
                };
                Kind::Setp(*cmp, domain)
            }
            Inst::Selp { a, b, pred, .. } => {
                op.a = self.row(a);
                op.b = self.row(b);
                op.c = pred.0;
                Kind::Selp
            }
            Inst::Cvt {
                dst_ty,
                src_ty,
                src,
                ..
            } => {
                op.a = self.row(src);
                Kind::Cvt(match (src_ty, dst_ty) {
                    (Ty::S32, Ty::F32) => CvtKind::SToF,
                    (Ty::U32, Ty::F32) => CvtKind::UToF,
                    (Ty::F32, Ty::S32) => CvtKind::FToS,
                    (Ty::F32, Ty::U32) => CvtKind::FToU,
                    (Ty::S32, Ty::Ptr(_)) | (Ty::Ptr(_), Ty::S32) => CvtKind::Sext,
                    (Ty::U32, Ty::Ptr(_)) | (Ty::Ptr(_), Ty::U32) => CvtKind::Zext,
                    _ => CvtKind::Copy,
                })
            }
            Inst::Ld {
                space, ty, addr, ..
            } => {
                op.unit = Unit::Other;
                op.a = addr.base.map_or(NONE, |b| b.0);
                op.imm = addr.offset;
                Kind::Ld {
                    space: *space,
                    sext: *ty == Ty::S32,
                    wide: ty.is_ptr(),
                }
            }
            Inst::St {
                space, addr, src, ..
            } => {
                op.unit = Unit::Other;
                op.a = addr.base.map_or(NONE, |b| b.0);
                op.b = self.row(src);
                op.imm = addr.offset;
                op.latency = LatencyClass::load(*space);
                match space {
                    Space::Global | Space::Shared | Space::Local => Kind::St { space: *space },
                    Space::Const | Space::Param => {
                        self.trap(&mut op, "store to read-only space".into())
                    }
                }
            }
            Inst::Tex { ty, tex, idx, .. } => {
                op.unit = Unit::Other;
                op.a = self.row(idx);
                op.imm = *tex as i64;
                Kind::Tex {
                    sext: *ty == Ty::S32,
                }
            }
            Inst::Bar => {
                op.unit = Unit::Other;
                Kind::Bar
            }
        };
        op
    }
}

/// The extensions by which a 32-bit value widens back to 64 bits.
const ZEXT: u8 = 1;
const SEXT: u8 = 2;
const EITHER: u8 = ZEXT | SEXT;

/// The extensions that rebuild `v` from its low word.
fn exts_of(v: u64) -> u8 {
    let low = v as u32;
    let zext = if v == u64::from(low) { ZEXT } else { 0 };
    let sext = if v == low as i32 as u64 { SEXT } else { 0 };
    zext | sext
}

impl Kind {
    /// The extensions every result of this kind has as 64 bits; `None`
    /// for a copy, whose result is one of its sources.
    fn result_exts(self) -> Option<u8> {
        let of = |ty: Ty| match ty {
            Ty::S32 => SEXT,
            Ty::Pred => EITHER,
            Ty::Ptr(_) => 0,
            Ty::U32 | Ty::F32 => ZEXT,
        };
        Some(match self {
            Kind::Mov | Kind::Selp | Kind::Cvt(CvtKind::Copy) => return None,
            Kind::Bin(k) => of(k.op_ty().1),
            Kind::Un(k) => of(k.op_ty().1),
            Kind::Mad(k) => of(k.ty()),
            // A thread index is below the block's thread count, which a
            // launch caps at the device's 1 024 or fewer: bit 31 is clear.
            Kind::Setp(..)
            | Kind::Special(SpecialReg::TidX | SpecialReg::TidY | SpecialReg::TidZ) => EITHER,
            Kind::Cvt(CvtKind::FToS | CvtKind::Sext) => SEXT,
            Kind::Cvt(_) | Kind::Special(_) => ZEXT,
            Kind::Ld {
                space: Space::Param,
                wide: true,
                ..
            } => 0,
            Kind::Ld { sext, .. } | Kind::Tex { sext } => {
                if sext {
                    SEXT
                } else {
                    ZEXT
                }
            }
            // Writes nothing.
            Kind::St { .. }
            | Kind::Bar
            | Kind::Trap
            | Kind::Br
            | Kind::CondBr { .. }
            | Kind::Ret => EITHER,
        })
    }

    /// Whether the op tests its sources for nonzero on all 64 bits.
    fn reads_nonzero(self) -> bool {
        matches!(
            self,
            Kind::Bin(PredAnd | PredOr | PredXor) | Kind::Un(UnKind::PredNot)
        )
    }
}

/// Where a plan's registers live: each IR register's row, bank by bank.
struct Banks {
    rows: Vec<u32>,
    row_tys: Vec<Ty>,
    signed_from: u32,
    wide_from: u32,
    num_vregs: u32,
}

impl Banks {
    /// Place `f`'s registers and renumber `ops` to their rows. Pointers go
    /// in the 64-bit bank. Any other register goes in the 32-bit bank when
    /// one extension rebuilds every value its writers leave; a copy
    /// (`mov`, `selp`, `cvt` that is no conversion) leaves what its sources
    /// hold, so the copies iterate to a fixpoint (an extension set only
    /// shrinks). The rest — writers that disagree, or write 64 bits — go in
    /// the 64-bit bank. Then every op gets its [`Form`].
    fn place(ops: &mut [Op], f: &Function, imm_rows: &[Row64]) -> Banks {
        let nv = f.num_vregs();
        let mut exts: Vec<u8> = f
            .vreg_types
            .iter()
            .map(|t| if t.is_ptr() { 0 } else { EITHER })
            .collect();
        let mut copies = Vec::new();
        for op in ops.iter().filter(|op| op.dst != NONE) {
            match op.kind.result_exts() {
                Some(e) => exts[op.dst as usize] &= e,
                None => copies.push(*op),
            }
        }
        let source = |exts: &[u8], row: u32| match exts.get(row as usize) {
            Some(&e) => e,
            None => exts_of(imm_rows[row as usize - nv][0]),
        };
        let mut changed = true;
        while changed {
            changed = false;
            for op in &copies {
                let mut e = exts[op.dst as usize] & source(&exts, op.a);
                if op.kind == Kind::Selp {
                    e &= source(&exts, op.b);
                }
                if e != exts[op.dst as usize] {
                    exts[op.dst as usize] = e;
                    changed = true;
                }
            }
        }
        // Rows: zero-extending 32-bit registers, sign-extending ones, then
        // the 64-bit bank, each in IR order.
        let class = |e: u8| match e {
            0 => 2,
            SEXT => 1,
            _ => 0,
        };
        let mut next = [0u32; 3];
        for &e in &exts {
            next[class(e)] += 1;
        }
        let (signed_from, wide_from) = (next[0], next[0] + next[1]);
        next = [0, signed_from, wide_from];
        let rows: Vec<u32> = exts
            .iter()
            .map(|&e| {
                let c = class(e);
                next[c] += 1;
                next[c] - 1
            })
            .collect();
        let mut row_tys = vec![Ty::Pred; nv];
        for (v, &r) in rows.iter().enumerate() {
            row_tys[r as usize] = f.vreg_types[v];
        }
        let banks = Banks {
            rows,
            row_tys,
            signed_from,
            wide_from,
            num_vregs: nv as u32,
        };
        let row = |r: u32| banks.rows.get(r as usize).copied().unwrap_or(r);
        for op in ops.iter_mut() {
            [op.dst, op.a, op.b, op.c] = [op.dst, op.a, op.b, op.c].map(row);
            op.form = banks.form(op, imm_rows);
        }
        banks
    }

    /// Whether operand row `row` is a 64-bit register (`Some(true)`), a
    /// 32-bit one (`Some(false)`), or an immediate or nothing (`None`,
    /// which fits either bank).
    fn wide(&self, row: u32) -> Option<bool> {
        (row < self.num_vregs).then_some(row >= self.wide_from)
    }

    /// The [`Form`] `op` runs in.
    fn form(&self, op: &Op, imm_rows: &[Row64]) -> Form {
        let is = |row: u32, wide: bool| self.wide(row).is_none_or(|w| w == wide);
        let all = |rows: &[u32], wide: bool| rows.iter().all(|&r| is(r, wide));
        let (d, a, b, c) = (op.dst, op.a, op.b, op.c);
        // A nonzero test reads an immediate's 64 bits; its low word would
        // do only where the two agree.
        let low_word_tests = |row: u32| {
            let k = (row as usize).wrapping_sub(self.num_vregs as usize);
            imm_rows
                .get(k)
                .is_none_or(|r| (r[0] as u32 != 0) == (r[0] != 0))
        };
        match op.kind {
            _ if op.kind.reads_nonzero() && !(low_word_tests(a) && low_word_tests(b)) => {
                Form::Mixed
            }
            Kind::Selp if !is(c, false) => Form::Mixed,
            Kind::Mov | Kind::Cvt(CvtKind::Copy) | Kind::Special(_) | Kind::Selp => {
                if all(&[d, a, b], false) {
                    Form::W32
                } else if all(&[d, a, b], true) {
                    Form::W64
                } else {
                    Form::Mixed
                }
            }
            Kind::Bin(PtrAdd | PtrSub) if all(&[d, a], true) => match self.wide(b) {
                Some(false) => Form::Widen,
                _ => Form::W64,
            },
            Kind::Setp(_, CmpDomain::U64) if is(d, false) && all(&[a, b], true) => Form::W64,
            Kind::Cvt(CvtKind::Sext | CvtKind::Zext) => {
                match (self.wide(a).unwrap_or(false), self.wide(d) == Some(true)) {
                    (false, false) => Form::W32,
                    (false, true) => Form::Widen,
                    (true, false) => Form::Narrow,
                    (true, true) => Form::W64,
                }
            }
            Kind::Bin(PtrAdd | PtrSub) | Kind::Setp(_, CmpDomain::U64) => Form::Mixed,
            Kind::Bin(_) | Kind::Un(_) | Kind::Mad(_) | Kind::Setp(..) | Kind::Cvt(_) => {
                if all(&[d, a, b, c], false) {
                    Form::W32
                } else {
                    Form::Mixed
                }
            }
            // Memory ops look at their rows; the rest read nothing.
            _ => Form::W32,
        }
    }
}

/// Pointer types decode alike whatever their space.
const PTR: Ty = Ty::Ptr(Space::Global);

/// Every [`BinKind`] with the `(op, type)` it decodes from, in
/// declaration order.
const BINS: [(BinKind, BinOp, Ty); 37] = [
    (FAdd, BinOp::Add, Ty::F32),
    (FSub, BinOp::Sub, Ty::F32),
    (FMul, BinOp::Mul, Ty::F32),
    (FDiv, BinOp::Div, Ty::F32),
    (FMin, BinOp::Min, Ty::F32),
    (FMax, BinOp::Max, Ty::F32),
    (UAdd, BinOp::Add, Ty::U32),
    (USub, BinOp::Sub, Ty::U32),
    (UMul, BinOp::Mul, Ty::U32),
    (UMul24, BinOp::Mul24, Ty::U32),
    (UDiv, BinOp::Div, Ty::U32),
    (URem, BinOp::Rem, Ty::U32),
    (UMin, BinOp::Min, Ty::U32),
    (UMax, BinOp::Max, Ty::U32),
    (UAnd, BinOp::And, Ty::U32),
    (UOr, BinOp::Or, Ty::U32),
    (UXor, BinOp::Xor, Ty::U32),
    (UShl, BinOp::Shl, Ty::U32),
    (UShr, BinOp::Shr, Ty::U32),
    (SAdd, BinOp::Add, Ty::S32),
    (SSub, BinOp::Sub, Ty::S32),
    (SMul, BinOp::Mul, Ty::S32),
    (SMul24, BinOp::Mul24, Ty::S32),
    (SDiv, BinOp::Div, Ty::S32),
    (SRem, BinOp::Rem, Ty::S32),
    (SMin, BinOp::Min, Ty::S32),
    (SMax, BinOp::Max, Ty::S32),
    (SAnd, BinOp::And, Ty::S32),
    (SOr, BinOp::Or, Ty::S32),
    (SXor, BinOp::Xor, Ty::S32),
    (SShl, BinOp::Shl, Ty::S32),
    (SShr, BinOp::Shr, Ty::S32),
    (PtrAdd, BinOp::Add, PTR),
    (PtrSub, BinOp::Sub, PTR),
    (PredAnd, BinOp::And, Ty::Pred),
    (PredOr, BinOp::Or, Ty::Pred),
    (PredXor, BinOp::Xor, Ty::Pred),
];

fn bin_kind(op: BinOp, ty: Ty) -> Result<BinKind, String> {
    // `BINS` keeps each type's rows together.
    let rows = match ty {
        Ty::F32 => &BINS[..6],
        Ty::U32 => &BINS[6..19],
        Ty::S32 => &BINS[19..32],
        Ty::Ptr(_) => &BINS[32..34],
        Ty::Pred => &BINS[34..],
    };
    rows.iter()
        .find(|&&(_, o, _)| o == op)
        .map(|&(kind, ..)| kind)
        .ok_or_else(|| match ty {
            Ty::F32 => format!("float op {op:?} unsupported"),
            Ty::Pred => "arithmetic on predicate".into(),
            _ => format!("pointer op {op:?} unsupported"),
        })
}

fn un_kind(op: UnOp, ty: Ty) -> UnKind {
    match ty {
        Ty::F32 => match op {
            UnOp::Neg => UnKind::FNeg,
            UnOp::Abs => UnKind::FAbs,
            UnOp::Sqrt => UnKind::FSqrt,
            UnOp::Rsqrt => UnKind::FRsqrt,
            UnOp::Floor => UnKind::FFloor,
            UnOp::Not => UnKind::FNot,
        },
        Ty::Pred => match op {
            UnOp::Not => UnKind::PredNot,
            _ => UnKind::PredZero,
        },
        _ => {
            let signed = ty == Ty::S32;
            match op {
                UnOp::Neg => UnKind::INeg { signed },
                UnOp::Not => UnKind::INot { signed },
                UnOp::Abs => UnKind::IAbs { signed },
                UnOp::Sqrt | UnOp::Rsqrt | UnOp::Floor => UnKind::ILow { signed },
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ks_ir::{Address, BasicBlock, VReg};

    fn func(blocks: Vec<(Vec<Inst>, Terminator)>, nv: usize) -> Function {
        Function {
            name: "k".into(),
            params: vec![],
            blocks: blocks
                .into_iter()
                .enumerate()
                .map(|(i, (insts, term))| BasicBlock {
                    id: BlockId(i as u32),
                    insts,
                    term,
                })
                .collect(),
            vreg_types: vec![Ty::S32; nv],
            shared: vec![],
            local_bytes: 0,
        }
    }

    fn mov(dst: u32, src: Operand) -> Inst {
        Inst::Mov {
            ty: Ty::S32,
            dst: VReg(dst),
            src,
        }
    }

    #[test]
    fn blocks_flatten_to_pcs_and_immediates_dedupe() {
        // BB0: r0 = 7; r1 = 7; br BB1   BB1: ret
        let f = func(
            vec![
                (
                    vec![mov(0, Operand::ImmI(7)), mov(1, Operand::ImmI(7))],
                    Terminator::Br { target: BlockId(1) },
                ),
                (vec![], Terminator::Ret),
            ],
            2,
        );
        let p = LaunchPlan::from_function(&f);
        assert_eq!(p.block_pc, vec![0, 3]);
        assert_eq!(p.ops.len(), 4);
        assert_eq!(p.imm_rows, vec![[7u64; 32]]);
        assert_eq!(
            (p.ops[0].a, p.ops[1].a),
            (2, 2),
            "first row after the vregs"
        );
        assert_eq!((p.ops[2].kind, p.ops[2].imm), (Kind::Br, 3));
        assert_eq!(p.ops[3].kind, Kind::Ret);
        assert_eq!(p.block_of(0), BlockId(0));
        assert_eq!(p.block_of(2), BlockId(0));
        assert_eq!(p.block_of(3), BlockId(1));
        assert!(p.entry_live.is_empty());
    }

    #[test]
    fn entry_liveness_finds_reads_a_path_leaves_unwritten() {
        // BB0: setp r0 = (r3 < 1)  -- r3 never written
        //      condbr r0 ? BB1 : BB2
        // BB1: r1 = 5; br BB2
        // BB2: st [0] = r1         -- unwritten on the BB0→BB2 edge
        //      r2 = 1; st [4] = r2 -- always written first
        let st = |off, r| Inst::St {
            space: Space::Shared,
            ty: Ty::S32,
            addr: Address::abs(off),
            src: Operand::Reg(VReg(r)),
        };
        let f = func(
            vec![
                (
                    vec![Inst::Setp {
                        cmp: CmpOp::Lt,
                        ty: Ty::S32,
                        dst: VReg(0),
                        a: Operand::Reg(VReg(3)),
                        b: Operand::ImmI(1),
                    }],
                    Terminator::CondBr {
                        pred: VReg(0),
                        negate: false,
                        then_t: BlockId(1),
                        else_t: BlockId(2),
                    },
                ),
                (
                    vec![mov(1, Operand::ImmI(5))],
                    Terminator::Br { target: BlockId(2) },
                ),
                (
                    vec![st(0, 1), mov(2, Operand::ImmI(1)), st(4, 2)],
                    Terminator::Ret,
                ),
            ],
            4,
        );
        let p = LaunchPlan::from_function(&f);
        assert_eq!(p.entry_live, vec![1, 3]);
        // The branch reconverges at BB2.
        assert_eq!(p.ops[1].kind, Kind::CondBr { negate: false });
        assert_eq!(p.branches[p.ops[1].imm as usize].reconv, p.block_pc[2]);
    }

    #[test]
    fn unsupported_combinations_decode_to_their_trap_text() {
        let bin = |op, ty| Inst::Bin {
            op,
            ty,
            dst: VReg(0),
            a: Operand::Reg(VReg(0)),
            b: Operand::Reg(VReg(0)),
        };
        let f = func(
            vec![(
                vec![
                    bin(BinOp::Rem, Ty::F32),
                    bin(BinOp::Mul, Ty::Ptr(Space::Global)),
                    bin(BinOp::Add, Ty::Pred),
                    Inst::St {
                        space: Space::Const,
                        ty: Ty::S32,
                        addr: Address::abs(0),
                        src: Operand::ImmI(0),
                    },
                    Inst::Mad {
                        ty: Ty::Pred,
                        dst: VReg(0),
                        a: Operand::Reg(VReg(0)),
                        b: Operand::Reg(VReg(0)),
                        c: Operand::Reg(VReg(0)),
                    },
                ],
                Terminator::Ret,
            )],
            1,
        );
        let p = LaunchPlan::from_function(&f);
        assert_eq!(
            p.traps,
            vec![
                "float op Rem unsupported",
                "pointer op Mul unsupported",
                "arithmetic on predicate",
                "store to read-only space",
                "arithmetic on predicate",
            ]
        );
        for (i, op) in p.ops[..5].iter().enumerate() {
            assert_eq!((op.kind, op.imm), (Kind::Trap, i as i64));
        }
    }

    /// What `ks-analysis` hands `ks_ir::eval` for a kind must decode back
    /// to that kind: the two agree on every lane by `rows_vs_eval`.
    #[test]
    fn kinds_map_back_to_an_op_and_type_that_decodes_to_them() {
        let decode = |inst| {
            Decoder {
                num_vregs: 1,
                imm_index: FxHashMap::default(),
                imm_rows: Vec::new(),
                traps: Vec::new(),
            }
            .inst(&inst)
            .kind
        };
        let r = Operand::Reg(VReg(0));
        for (kind, op, ty) in BINS {
            assert_eq!((bin_kind(op, ty), kind.op_ty()), (Ok(kind), (op, ty)));
        }
        let tys = [Ty::F32, Ty::U32, Ty::S32, Ty::Pred, PTR];
        for ty in tys {
            for op in [
                UnOp::Neg,
                UnOp::Not,
                UnOp::Abs,
                UnOp::Sqrt,
                UnOp::Rsqrt,
                UnOp::Floor,
            ] {
                let (op, ty) = un_kind(op, ty).op_ty();
                assert_eq!(un_kind(op, ty).op_ty(), (op, ty));
            }
            for src_ty in tys {
                let cvt = |dst_ty, src_ty| Inst::Cvt {
                    dst_ty,
                    src_ty,
                    dst: VReg(0),
                    src: r,
                };
                if let Kind::Cvt(kind) = decode(cvt(ty, src_ty)) {
                    if let Some((d, s)) = kind.tys() {
                        assert_eq!(decode(cvt(d, s)), Kind::Cvt(kind));
                    }
                }
            }
            let (a, b, dst) = (r, r, VReg(0));
            if let Kind::Setp(cmp, domain) = decode(Inst::Setp {
                cmp: CmpOp::Lt,
                ty,
                dst,
                a,
                b,
            }) {
                let ty = domain.ty();
                let again = decode(Inst::Setp { cmp, ty, dst, a, b });
                assert_eq!(again, Kind::Setp(cmp, domain));
            }
            if let Kind::Mad(kind) = decode(Inst::Mad {
                ty,
                dst,
                a,
                b,
                c: r,
            }) {
                let ty = kind.ty();
                assert_eq!(
                    decode(Inst::Mad {
                        ty,
                        dst,
                        a,
                        b,
                        c: r
                    }),
                    Kind::Mad(kind)
                );
            }
        }
    }
}
