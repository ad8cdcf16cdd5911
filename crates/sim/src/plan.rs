//! Decode-once launch plans.
//!
//! Everything about a kernel that does not depend on the launch — the
//! CFG flattened into one pc-indexed op array, `(opcode, type)` fused
//! into one discriminant, operands resolved to register-file rows,
//! immediates materialised as broadcast rows, each branch's
//! reconvergence pc, cost *classes* instead of cycles — is decided here,
//! once, and then only read by the executor (`crate::interp`). A plan
//! holds no device parameter, so one plan serves every `DeviceConfig`,
//! and it is derived data: it is never serialized.

use crate::device::{IssueClass, LatencyClass};
use crate::regalloc::{allocate, compute_liveness, RegAlloc};
use ks_ir::cfg::{ipdoms, Cfg};
use ks_ir::{
    BinOp, BlockId, CmpOp, Function, Inst, KernelParam, Operand, Space, SpecialReg, Terminator, Ty,
    UnOp,
};
use std::collections::HashMap;

/// One value per lane of a warp.
pub(crate) type Row = [u64; 32];

/// "No row" / "no pc". As an operand it lies beyond every register and
/// immediate row, so scoreboard lookups skip it like an immediate.
pub(crate) const NONE: u32 = u32::MAX;

/// `Bin` with its type folded in. S32 results are sign-extended into the
/// 64-bit lane, U32 results zero-extended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BinKind {
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
pub(crate) enum UnKind {
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
pub(crate) enum MadKind {
    F32,
    U32,
    S32,
}

/// The value domain a `setp` compares in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CmpDomain {
    F32,
    U32,
    /// S32 and predicates.
    S32,
    /// Pointers: the full 64 bits, unsigned.
    U64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CvtKind {
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
pub(crate) enum Kind {
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

/// One decoded instruction or terminator. Plans live as long as the
/// binaries that own them, so this stays at 32 bytes: wide payloads go
/// through `imm`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Op {
    pub kind: Kind,
    pub unit: Unit,
    pub issue: IssueClass,
    /// Latency of the result; for a store, of a load that must observe it.
    pub latency: LatencyClass,
    /// Destination register row, or [`NONE`].
    pub dst: u32,
    /// Source rows: registers are `0..num_vregs`, immediates follow them,
    /// [`NONE`] is absent. These are exactly the registers the scoreboard
    /// waits for.
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
    pub(crate) imm_rows: Vec<Row>,
    /// Targets of the [`Kind::CondBr`] ops.
    pub(crate) branches: Vec<Branch>,
    /// Messages of the [`Kind::Trap`] ops.
    pub(crate) traps: Vec<String>,
    /// Registers live into the entry block: some path reads them before
    /// writing them. A reused register file must hold 0 there at block
    /// entry; every other register is written by each lane before that
    /// lane reads it.
    pub(crate) entry_live: Vec<u32>,
    /// Printed instruction per pc, filled only under `KS_SIM_TRACE`.
    pub(crate) trace_text: Vec<String>,
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

        let trace = crate::launch::trace_enabled();
        let mut d = Decoder {
            num_vregs: f.num_vregs() as u32,
            imm_index: HashMap::new(),
            imm_rows: Vec::new(),
            traps: Vec::new(),
        };
        let mut ops = Vec::with_capacity(pc as usize);
        let mut branches = Vec::new();
        let mut trace_text = Vec::new();
        for b in &f.blocks {
            for inst in &b.insts {
                ops.push(d.inst(inst));
                if trace {
                    trace_text.push(ks_ir::printer::print_inst(inst));
                }
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
            if trace {
                trace_text.push(String::new());
            }
        }

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
            branches,
            traps: d.traps,
            entry_live: compute_liveness(f, &cfg).live_in(0).collect(),
            trace_text,
        }
    }

    /// Name of the decoded kernel.
    pub fn kernel(&self) -> &str {
        &self.kernel
    }

    /// The basic block containing `pc` (for diagnostics).
    pub(crate) fn block_of(&self, pc: u32) -> BlockId {
        BlockId(self.block_pc.partition_point(|&start| start <= pc) as u32 - 1)
    }
}

impl Op {
    fn new(kind: Kind, unit: Unit) -> Op {
        Op {
            kind,
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
    imm_index: HashMap<u64, u32>,
    imm_rows: Vec<Row>,
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

fn bin_kind(op: BinOp, ty: Ty) -> Result<BinKind, String> {
    use BinKind::*;
    Ok(match ty {
        Ty::F32 => match op {
            BinOp::Add => FAdd,
            BinOp::Sub => FSub,
            BinOp::Mul => FMul,
            BinOp::Div => FDiv,
            BinOp::Min => FMin,
            BinOp::Max => FMax,
            _ => return Err(format!("float op {op:?} unsupported")),
        },
        Ty::U32 => match op {
            BinOp::Add => UAdd,
            BinOp::Sub => USub,
            BinOp::Mul => UMul,
            BinOp::Mul24 => UMul24,
            BinOp::Div => UDiv,
            BinOp::Rem => URem,
            BinOp::Min => UMin,
            BinOp::Max => UMax,
            BinOp::And => UAnd,
            BinOp::Or => UOr,
            BinOp::Xor => UXor,
            BinOp::Shl => UShl,
            BinOp::Shr => UShr,
        },
        Ty::S32 => match op {
            BinOp::Add => SAdd,
            BinOp::Sub => SSub,
            BinOp::Mul => SMul,
            BinOp::Mul24 => SMul24,
            BinOp::Div => SDiv,
            BinOp::Rem => SRem,
            BinOp::Min => SMin,
            BinOp::Max => SMax,
            BinOp::And => SAnd,
            BinOp::Or => SOr,
            BinOp::Xor => SXor,
            BinOp::Shl => SShl,
            BinOp::Shr => SShr,
        },
        Ty::Ptr(_) => match op {
            BinOp::Add => PtrAdd,
            BinOp::Sub => PtrSub,
            _ => return Err(format!("pointer op {op:?} unsupported")),
        },
        Ty::Pred => match op {
            BinOp::And => PredAnd,
            BinOp::Or => PredOr,
            BinOp::Xor => PredXor,
            _ => return Err("arithmetic on predicate".into()),
        },
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
}
