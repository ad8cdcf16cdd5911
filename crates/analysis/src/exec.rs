//! Block-wide abstract SIMT execution.
//!
//! The executor runs one thread block the same way `ks_sim::interp` does —
//! lockstep warps, post-dominator reconvergence stacks, round-robin
//! scheduling between barriers — but walking `ks_ir::Inst` directly, over
//! an abstract value domain:
//!
//! * `Con(bits)` — a concrete 64-bit register value. What an operation
//!   computes on one is not defined here: it is [`ks_ir::eval`], the
//!   scalar definition the simulator's row kernels are tested against
//!   (wrapping 32-bit ops, `mul24` masking, pointer sign-extension rules,
//!   the `cvt` matrix);
//! * `Based(sym, off)` — an unresolved pointer parameter or texture base
//!   plus a concrete byte offset. Enough to decide coalescing, since
//!   transaction counts depend only on offsets relative to an aligned base;
//! * `Unk` — anything data-dependent (loaded values, unassumed scalars).
//!
//! A specialized kernel (or one analyzed under parameter assumptions)
//! keeps every branch predicate and address in the first two classes, so
//! races, bounds, and transaction counts are decided exactly. When a
//! branch predicate is `Unk` for an active lane the executor stops and
//! reports *why* — the analyzability side of the RE-vs-SK contrast: the
//! same kernel compiled run-time-evaluated is unanalyzable precisely
//! because the values specialization would bake in are missing.

use crate::bounds::{BoundsChecker, BoundsFinding};
use crate::diag::{AnalysisConfig, MemPrediction, ParamValue};
use crate::memlint::{AccessKind, MemFinding, MemLint};
use crate::race::{RaceFinding, RaceTracker, Site};
use ks_ir::cfg::{ipdoms, Cfg};
use ks_ir::{
    eval, Address, BinOp, BlockId, CmpOp, Function, Inst, Module, Operand, Space, SpecialReg,
    Terminator, Ty,
};
use ks_sim::device::DeviceConfig;
use std::collections::HashMap;

/// Abstract register value.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Val {
    Con(u64),
    Based { sym: u32, off: i64 },
    Unk,
}

/// Texture symbols live above parameter symbols.
const TEX_SYM: u32 = 0x8000_0000;

/// What the abstract execution of one function produced.
#[derive(Debug, Default)]
pub struct ExecOutcome {
    pub races: Vec<RaceFinding>,
    pub bounds: Vec<BoundsFinding>,
    pub mem_findings: Vec<MemFinding>,
    /// Divergent-barrier findings: site (when attributable) and message.
    pub divergent_barriers: Vec<(Option<Site>, String)>,
    /// Set when the executor stopped early, with the reason.
    pub inconclusive: Option<String>,
    /// Present only when the block ran to completion, so the numbers are
    /// comparable with a simulator launch of the same geometry.
    pub prediction: Option<MemPrediction>,
    /// Barrier intervals observed (completed barriers + the final one).
    pub intervals: u64,
    pub proven_bounds: u64,
}

struct Frame {
    block: BlockId,
    inst: usize,
    reconv: Option<BlockId>,
    mask: u32,
}

struct AWarp {
    base_tid: u32,
    regs: Vec<Val>,
    stack: Vec<Frame>,
    done: bool,
    at_barrier: bool,
}

impl AWarp {
    fn new(base_tid: u32, lanes: u32, nv: usize) -> AWarp {
        let full_mask = if lanes == 32 {
            u32::MAX
        } else {
            (1u32 << lanes) - 1
        };
        AWarp {
            base_tid,
            regs: vec![Val::Unk; nv * 32],
            stack: vec![Frame {
                block: BlockId(0),
                inst: 0,
                reconv: None,
                mask: full_mask,
            }],
            done: false,
            at_barrier: false,
        }
    }

    fn warp_id(&self) -> u32 {
        self.base_tid / 32
    }
}

enum WStop {
    Barrier,
    Done,
}

/// Why execution of the whole block stopped early.
enum Abort {
    /// A deny-class finding was recorded; further state is meaningless.
    Poisoned,
    Inconclusive(String),
}

struct Exec<'a> {
    f: &'a Function,
    cfg: &'a AnalysisConfig,
    block_dim: (u32, u32, u32),
    pdom: Vec<Option<BlockId>>,
    /// Parameter values by parameter index.
    param_vals: Vec<Val>,
    /// Param-space byte offset → parameter index.
    param_by_offset: HashMap<u32, usize>,
    /// Synthetic device base per symbol, spaced far apart and 256-aligned
    /// like real allocations, so relative alignment (all that coalescing
    /// depends on) matches a real launch.
    sym_bases: HashMap<u32, u64>,
    next_sym_base: u64,
    race: RaceTracker,
    bounds: BoundsChecker,
    mem: MemLint,
    divergent_barriers: Vec<(Option<Site>, String)>,
    notes: Vec<String>,
    steps: u64,
    intervals: u64,
}

/// Run the abstract executor over `f` with the launch geometry in `cfg`.
/// `cfg.block_dim` must be `Some`.
pub fn exec_function(
    m: &Module,
    f: &Function,
    dev: &DeviceConfig,
    cfg: &AnalysisConfig,
) -> ExecOutcome {
    let block_dim = cfg.block_dim.expect("exec_function requires a block shape");
    let (bx, by, bz) = block_dim;
    let threads = bx * by * bz;
    let mut out = ExecOutcome::default();
    if threads == 0 {
        out.inconclusive = Some("empty thread block".into());
        return out;
    }
    if threads > dev.max_threads_per_block {
        out.inconclusive = Some(format!(
            "block of {threads} threads exceeds {} limit of {}",
            dev.name, dev.max_threads_per_block
        ));
        return out;
    }

    let cfg_cfg = Cfg::build(f);
    let pdom = ipdoms(f, &cfg_cfg);

    let mut param_vals = Vec::with_capacity(f.params.len());
    let mut param_by_offset = HashMap::new();
    for (i, p) in f.params.iter().enumerate() {
        param_by_offset.insert(p.offset, i);
        let v = match cfg.assumed(&p.name) {
            Some(ParamValue::Int(v)) => match p.ty {
                // Scalar loads go through `load_extend`; pointers load the
                // full 64-bit value.
                Ty::Ptr(_) => Val::Con(v as u64),
                _ => Val::Con(eval::load_extend(p.ty, v as u32)),
            },
            Some(ParamValue::F32(v)) => Val::Con(v.to_bits() as u64),
            None => match p.ty {
                Ty::Ptr(_) => Val::Based {
                    sym: i as u32,
                    off: 0,
                },
                _ => Val::Unk,
            },
        };
        param_vals.push(v);
    }

    let mut ex = Exec {
        f,
        cfg,
        block_dim,
        pdom,
        param_vals,
        param_by_offset,
        sym_bases: HashMap::new(),
        next_sym_base: ks_sim::mem::GLOBAL_BASE,
        race: RaceTracker::new(),
        bounds: BoundsChecker::new(&f.shared, cfg.dynamic_shared, f.local_bytes, &m.consts),
        mem: MemLint::new(dev),
        divergent_barriers: Vec::new(),
        notes: Vec::new(),
        steps: 0,
        intervals: 0,
    };

    let nv = f.num_vregs();
    let warp_count = threads.div_ceil(32);
    let mut warps: Vec<AWarp> = (0..warp_count)
        .map(|w| {
            let base_tid = w * 32;
            let lanes = (threads - base_tid).min(32);
            AWarp::new(base_tid, lanes, nv)
        })
        .collect();

    // Round-robin warps between barriers, exactly like the interpreter.
    let mut abort: Option<Abort> = None;
    'sched: loop {
        let mut all_done = true;
        let mut any_progress = false;
        for w in warps.iter_mut() {
            if w.done || w.at_barrier {
                all_done &= w.done;
                continue;
            }
            all_done = false;
            any_progress = true;
            match ex.exec_warp(w) {
                Ok(WStop::Done) => w.done = true,
                Ok(WStop::Barrier) => w.at_barrier = true,
                Err(a) => {
                    abort = Some(a);
                    break 'sched;
                }
            }
        }
        if all_done {
            ex.intervals += 1;
            break;
        }
        if !any_progress {
            // Everyone still running sits at a barrier. If some warps
            // already returned, the barrier can never be satisfied by all
            // threads — the divergent-barrier deadlock the interpreter
            // silently rolls past.
            if warps.iter().any(|w| w.done) {
                ex.divergent_barriers.push((
                    None,
                    "some threads return while others wait at __syncthreads(); \
                     the barrier never completes for the full block"
                        .into(),
                ));
                abort = Some(Abort::Poisoned);
                break;
            }
            ex.intervals += 1;
            ex.race.barrier();
            for w in warps.iter_mut() {
                w.at_barrier = false;
            }
        }
    }

    let completed = abort.is_none();
    out.races = ex.race.findings().to_vec();
    out.bounds = ex.bounds.findings().to_vec();
    out.mem_findings = ex
        .mem
        .finish(cfg.bank_conflict_threshold, cfg.coalescing_slack);
    out.divergent_barriers = ex.divergent_barriers;
    out.proven_bounds = ex.bounds.proven;
    out.intervals = ex.intervals;
    out.inconclusive = match abort {
        Some(Abort::Inconclusive(why)) => Some(why),
        Some(Abort::Poisoned) => None,
        None => None,
    };
    if completed {
        out.prediction = Some(ex.mem.prediction);
    }
    if !ex.notes.is_empty() {
        let joined = ex.notes.join("; ");
        out.inconclusive = Some(match out.inconclusive.take() {
            Some(w) => format!("{w}; {joined}"),
            None => joined,
        });
    }
    out
}

impl Exec<'_> {
    fn exec_warp(&mut self, w: &mut AWarp) -> Result<WStop, Abort> {
        loop {
            self.steps += 1;
            if self.steps > self.cfg.max_steps {
                return Err(Abort::Inconclusive(format!(
                    "abstract execution exceeded the {}-instruction budget \
                     (raise AnalysisConfig::max_steps for long kernels)",
                    self.cfg.max_steps
                )));
            }
            match self.warp_step(w)? {
                Some(stop) => return Ok(stop),
                None => continue,
            }
        }
    }

    /// One instruction / terminator / reconvergence pop.
    fn warp_step(&mut self, w: &mut AWarp) -> Result<Option<WStop>, Abort> {
        loop {
            let Some(frame) = w.stack.last() else {
                w.done = true;
                return Ok(Some(WStop::Done));
            };
            if frame.inst == 0 && Some(frame.block) == frame.reconv {
                w.stack.pop();
                continue;
            }
            let (block, inst_idx, mask) = (frame.block, frame.inst, frame.mask);
            let bb = self.f.block(block);
            if inst_idx < bb.insts.len() {
                let inst = &bb.insts[inst_idx];
                w.stack.last_mut().unwrap().inst += 1;
                if let Inst::Bar = inst {
                    if w.stack.len() > 1 {
                        self.divergent_barriers.push((
                            Some((block.0, inst_idx)),
                            format!(
                                "__syncthreads() executed under divergent control flow \
                                 (warp {} reaches it with a partial mask {:#010x})",
                                w.warp_id(),
                                mask
                            ),
                        ));
                        return Err(Abort::Poisoned);
                    }
                    w.at_barrier = true;
                    return Ok(Some(WStop::Barrier));
                }
                self.exec_inst(w, inst, mask, (block.0, inst_idx))?;
                return Ok(None);
            }
            // Terminator.
            w.stack.last_mut().unwrap().inst = usize::MAX;
            match &bb.term {
                Terminator::Ret => {
                    if w.stack.len() > 1 {
                        // The verifier guarantees reconvergence-before-ret
                        // for well-formed kernels; reaching this means the
                        // simulator would trap identically.
                        return Err(Abort::Inconclusive(format!(
                            "divergent return in {block} (simulator would trap)"
                        )));
                    }
                    w.done = true;
                    return Ok(Some(WStop::Done));
                }
                Terminator::Br { target } => {
                    let fr = w.stack.last_mut().unwrap();
                    fr.block = *target;
                    fr.inst = 0;
                    return Ok(None);
                }
                Terminator::CondBr {
                    pred,
                    negate,
                    then_t,
                    else_t,
                } => {
                    let mut taken = 0u32;
                    for lane in lanes(mask) {
                        let v = match w.regs[pred.0 as usize * 32 + lane] {
                            Val::Con(bits) => bits != 0,
                            _ => {
                                return Err(Abort::Inconclusive(format!(
                                    "branch in {block} depends on a value unavailable at \
                                     analysis time (an unassumed run-time parameter or \
                                     loaded data); a specialized kernel or a -A/param \
                                     assumption makes this decidable"
                                )))
                            }
                        };
                        if v ^ negate {
                            taken |= 1 << lane;
                        }
                    }
                    let not_taken = mask & !taken;
                    let fr = w.stack.last_mut().unwrap();
                    if not_taken == 0 {
                        fr.block = *then_t;
                        fr.inst = 0;
                    } else if taken == 0 {
                        fr.block = *else_t;
                        fr.inst = 0;
                    } else {
                        let Some(r) = self.pdom[block.0 as usize] else {
                            return Err(Abort::Inconclusive(format!(
                                "divergent branch in {block} without a reconvergence point"
                            )));
                        };
                        fr.block = r;
                        fr.inst = 0;
                        w.stack.push(Frame {
                            block: *else_t,
                            inst: 0,
                            reconv: Some(r),
                            mask: not_taken,
                        });
                        w.stack.push(Frame {
                            block: *then_t,
                            inst: 0,
                            reconv: Some(r),
                            mask: taken,
                        });
                    }
                    return Ok(None);
                }
            }
        }
    }

    fn operand_val(&self, w: &AWarp, o: &Operand, lane: usize) -> Val {
        match o {
            Operand::Reg(r) => w.regs[r.0 as usize * 32 + lane],
            imm => Val::Con(eval::imm_bits(imm).expect("not a register")),
        }
    }

    fn lane_vals(&self, w: &AWarp, addr: &Address, mask: u32) -> [Val; 32] {
        let mut out = [Val::Con(0); 32];
        match addr.base {
            None => {
                for v in out.iter_mut() {
                    *v = Val::Con(addr.offset as u64);
                }
            }
            Some(base) => {
                for lane in lanes(mask) {
                    out[lane] = match w.regs[base.0 as usize * 32 + lane] {
                        Val::Con(b) => Val::Con(b.wrapping_add(addr.offset as u64)),
                        Val::Based { sym, off } => Val::Based {
                            sym,
                            off: off.wrapping_add(addr.offset),
                        },
                        Val::Unk => Val::Unk,
                    };
                }
            }
        }
        out
    }

    /// Synthetic (or assumed-concrete) device address for a value.
    fn resolve_addr(&mut self, v: Val) -> Option<u64> {
        match v {
            Val::Con(a) => Some(a),
            Val::Based { sym, off } => {
                let base = *self.sym_bases.entry(sym).or_insert_with(|| {
                    // 16 MiB apart: large enough that offsets never collide
                    // across symbols, aligned like a real allocation.
                    self.next_sym_base += 1 << 24;
                    self.next_sym_base
                });
                Some(base.wrapping_add(off as u64))
            }
            Val::Unk => None,
        }
    }

    /// Resolve all active lanes or report the access as unresolved.
    fn resolve_lanes(&mut self, vals: &[Val; 32], mask: u32) -> Option<[u64; 32]> {
        let mut out = [0u64; 32];
        for lane in lanes(mask) {
            out[lane] = self.resolve_addr(vals[lane])?;
        }
        Some(out)
    }

    fn note_once(&mut self, note: String) {
        if !self.notes.contains(&note) {
            self.notes.push(note);
        }
    }

    fn exec_inst(
        &mut self,
        w: &mut AWarp,
        inst: &Inst,
        mask: u32,
        site: Site,
    ) -> Result<(), Abort> {
        match inst {
            Inst::Mov { dst, src, .. } => {
                for lane in lanes(mask) {
                    w.regs[dst.0 as usize * 32 + lane] = self.operand_val(w, src, lane);
                }
            }
            Inst::Special { dst, reg } => {
                let (bxd, byd, bzd) = self.block_dim;
                let (gx, gy, gz) = self.cfg.grid_dim;
                let (cx, cy, cz) = self.cfg.block_idx;
                for lane in lanes(mask) {
                    let tid = w.base_tid + lane as u32;
                    let tx = tid % bxd;
                    let ty = (tid / bxd) % byd;
                    let tz = tid / (bxd * byd);
                    let v = match reg {
                        SpecialReg::TidX => tx,
                        SpecialReg::TidY => ty,
                        SpecialReg::TidZ => tz,
                        SpecialReg::CtaIdX => cx,
                        SpecialReg::CtaIdY => cy,
                        SpecialReg::CtaIdZ => cz,
                        SpecialReg::NtidX => bxd,
                        SpecialReg::NtidY => byd,
                        SpecialReg::NtidZ => bzd,
                        SpecialReg::NctaIdX => gx,
                        SpecialReg::NctaIdY => gy,
                        SpecialReg::NctaIdZ => gz,
                    };
                    w.regs[dst.0 as usize * 32 + lane] = Val::Con(v as u64);
                }
            }
            Inst::Bin { op, ty, dst, a, b } => {
                for lane in lanes(mask) {
                    let x = self.operand_val(w, a, lane);
                    let y = self.operand_val(w, b, lane);
                    w.regs[dst.0 as usize * 32 + lane] = bin_val(*op, *ty, x, y);
                }
            }
            Inst::Un { op, ty, dst, a } => {
                for lane in lanes(mask) {
                    let x = self.operand_val(w, a, lane);
                    w.regs[dst.0 as usize * 32 + lane] = match x {
                        Val::Con(bits) => Val::Con(eval::un(*op, *ty, bits)),
                        _ => Val::Unk,
                    };
                }
            }
            Inst::Mad { ty, dst, a, b, c } => {
                for lane in lanes(mask) {
                    let x = self.operand_val(w, a, lane);
                    let y = self.operand_val(w, b, lane);
                    let z = self.operand_val(w, c, lane);
                    let xy = bin_val(BinOp::Mul, *ty, x, y);
                    w.regs[dst.0 as usize * 32 + lane] = bin_val(BinOp::Add, *ty, xy, z);
                }
            }
            Inst::Setp { cmp, ty, dst, a, b } => {
                for lane in lanes(mask) {
                    let x = self.operand_val(w, a, lane);
                    let y = self.operand_val(w, b, lane);
                    w.regs[dst.0 as usize * 32 + lane] = self.cmp_val(*cmp, *ty, x, y);
                }
            }
            Inst::Selp {
                dst, a, b, pred, ..
            } => {
                for lane in lanes(mask) {
                    let p = w.regs[pred.0 as usize * 32 + lane];
                    let av = self.operand_val(w, a, lane);
                    let bv = self.operand_val(w, b, lane);
                    w.regs[dst.0 as usize * 32 + lane] = match p {
                        Val::Con(bits) => {
                            if bits != 0 {
                                av
                            } else {
                                bv
                            }
                        }
                        // Unknown selector: sound only when both arms
                        // agree.
                        _ => {
                            if av == bv {
                                av
                            } else {
                                Val::Unk
                            }
                        }
                    };
                }
            }
            Inst::Cvt {
                dst_ty,
                src_ty,
                dst,
                src,
            } => {
                for lane in lanes(mask) {
                    let x = self.operand_val(w, src, lane);
                    w.regs[dst.0 as usize * 32 + lane] = match x {
                        // Not a conversion: the bits pass through.
                        Val::Con(bits) => {
                            Val::Con(eval::cvt(*dst_ty, *src_ty, bits).unwrap_or(bits))
                        }
                        // Pointer→pointer is such a copy, so a base
                        // survives it.
                        Val::Based { .. }
                            if matches!(src_ty, Ty::Ptr(_)) && matches!(dst_ty, Ty::Ptr(_)) =>
                        {
                            x
                        }
                        _ => Val::Unk,
                    };
                }
            }
            Inst::Ld {
                space,
                ty,
                dst,
                addr,
            } => {
                let vals = self.lane_vals(w, addr, mask);
                let mut loaded = [Val::Unk; 32];
                match space {
                    Space::Global => match self.resolve_lanes(&vals, mask) {
                        Some(addrs) => self.mem.global(AccessKind::GlobalLoad, &addrs, mask, site),
                        None => self.mem.unresolved(),
                    },
                    Space::Shared => match self.resolve_lanes(&vals, mask) {
                        Some(addrs) => {
                            for lane in lanes(mask) {
                                self.bounds.check_shared(addrs[lane], site);
                                self.race.read(w.warp_id(), addrs[lane], site);
                            }
                            self.mem.shared(AccessKind::SharedLoad, &addrs, mask, site);
                        }
                        None => {
                            self.mem.unresolved();
                            self.note_once(
                                "shared access with unresolved address: racecheck and \
                                 bounds results are incomplete"
                                    .into(),
                            );
                        }
                    },
                    Space::Local => {
                        for lane in lanes(mask) {
                            match vals[lane] {
                                Val::Con(a) => self.bounds.check_local(a, site),
                                _ => self.note_once("local access with unresolved address".into()),
                            }
                        }
                    }
                    Space::Const => {
                        for lane in lanes(mask) {
                            match vals[lane] {
                                Val::Con(a) => self.bounds.check_const(a, site),
                                _ => {
                                    self.note_once("constant access with unresolved address".into())
                                }
                            }
                        }
                    }
                    Space::Param => {
                        // The verifier requires absolute param addresses.
                        let v = match addr.base {
                            None => self
                                .param_by_offset
                                .get(&(addr.offset as u32))
                                .map(|&i| self.param_vals[i])
                                .unwrap_or(Val::Unk),
                            Some(_) => Val::Unk,
                        };
                        for l in loaded.iter_mut() {
                            *l = v;
                        }
                    }
                }
                // Loaded data is opaque except for parameters, whose
                // values the config may pin down.
                let _ = ty;
                for lane in lanes(mask) {
                    w.regs[dst.0 as usize * 32 + lane] = loaded[lane];
                }
            }
            Inst::St {
                space,
                ty,
                addr,
                src,
            } => {
                let vals = self.lane_vals(w, addr, mask);
                let _ = ty;
                match space {
                    Space::Global => match self.resolve_lanes(&vals, mask) {
                        Some(addrs) => self.mem.global(AccessKind::GlobalStore, &addrs, mask, site),
                        None => self.mem.unresolved(),
                    },
                    Space::Shared => match self.resolve_lanes(&vals, mask) {
                        Some(addrs) => {
                            // Two lanes of one store hitting the same word
                            // is a race unless they provably write the same
                            // value (which lane wins is undefined).
                            let mut by_word: HashMap<u64, Val> = HashMap::new();
                            for lane in lanes(mask) {
                                self.bounds.check_shared(addrs[lane], site);
                                self.race.write(w.warp_id(), addrs[lane], site);
                                let v = self.operand_val(w, src, lane);
                                match by_word.get(&(addrs[lane] / 4)) {
                                    Some(prev) if *prev == v && matches!(v, Val::Con(_)) => {}
                                    Some(_) => self.race.intra_warp_conflict(addrs[lane], site),
                                    None => {
                                        by_word.insert(addrs[lane] / 4, v);
                                    }
                                }
                            }
                            self.mem.shared(AccessKind::SharedStore, &addrs, mask, site);
                        }
                        None => {
                            self.mem.unresolved();
                            self.note_once(
                                "shared access with unresolved address: racecheck and \
                                 bounds results are incomplete"
                                    .into(),
                            );
                        }
                    },
                    Space::Local => {
                        for lane in lanes(mask) {
                            match vals[lane] {
                                Val::Con(a) => self.bounds.check_local(a, site),
                                _ => self.note_once("local access with unresolved address".into()),
                            }
                        }
                    }
                    // The verifier rejects these; nothing useful to model.
                    Space::Const | Space::Param => {}
                }
            }
            Inst::Tex { dst, tex, idx, .. } => {
                let mut vals = [Val::Con(0); 32];
                let mut ok = true;
                for lane in lanes(mask) {
                    vals[lane] = match self.operand_val(w, idx, lane) {
                        Val::Con(bits) => {
                            let i = bits as u32 as i32;
                            if i < 0 {
                                ok = false;
                                Val::Unk
                            } else {
                                Val::Based {
                                    sym: TEX_SYM + tex,
                                    off: i as i64 * 4,
                                }
                            }
                        }
                        _ => {
                            ok = false;
                            Val::Unk
                        }
                    };
                }
                if ok {
                    if let Some(addrs) = self.resolve_lanes(&vals, mask) {
                        self.mem.global(AccessKind::GlobalLoad, &addrs, mask, site);
                    } else {
                        self.mem.unresolved();
                    }
                } else {
                    self.mem.unresolved();
                }
                for lane in lanes(mask) {
                    w.regs[dst.0 as usize * 32 + lane] = Val::Unk;
                }
            }
            Inst::Bar => unreachable!("handled by the warp loop"),
        }
        Ok(())
    }

    fn cmp_val(&mut self, cmp: CmpOp, ty: Ty, x: Val, y: Val) -> Val {
        match (x, y) {
            (Val::Con(a), Val::Con(b)) => Val::Con(u64::from(eval::cmp(cmp, ty, a, b))),
            // Same-base pointers order by offset regardless of where the
            // base actually lands.
            (Val::Based { sym: sa, .. }, Val::Based { sym: sb, .. }) if sa == sb => {
                let a = self.resolve_addr(x).unwrap();
                let b = self.resolve_addr(y).unwrap();
                Val::Con(u64::from(eval::cmp(cmp, ty, a, b)))
            }
            _ => Val::Unk,
        }
    }
}

/// Indices of the set bits of `mask`, ascending.
fn lanes(mask: u32) -> impl Iterator<Item = usize> {
    (0..32).filter(move |lane| mask & (1 << lane) != 0)
}

/// `x op y` over the abstract domain: concrete operands go through
/// [`ks_ir::eval`], a pointer base survives a concrete displacement.
fn bin_val(op: BinOp, ty: Ty, x: Val, y: Val) -> Val {
    match (x, y) {
        // `None`: the simulator traps (division by zero, no such op).
        (Val::Con(a), Val::Con(b)) => eval::bin(op, ty, a, b).map_or(Val::Unk, Val::Con),
        // Pointer displacement keeps the base symbolic.
        (Val::Based { sym, off }, Val::Con(c)) if matches!(ty, Ty::Ptr(_)) => match op {
            BinOp::Add => Val::Based {
                sym,
                off: off.wrapping_add(eval::sext_operand(c) as i64),
            },
            BinOp::Sub => Val::Based {
                sym,
                off: off.wrapping_sub(eval::sext_operand(c) as i64),
            },
            _ => Val::Unk,
        },
        // Only the second operand is a displacement; the first is taken
        // at full width.
        (Val::Con(c), Val::Based { sym, off }) if matches!(ty, Ty::Ptr(_)) && op == BinOp::Add => {
            Val::Based {
                sym,
                off: off.wrapping_add(c as i64),
            }
        }
        (Val::Based { sym: sa, off: oa }, Val::Based { sym: sb, off: ob })
            if matches!(ty, Ty::Ptr(_)) && op == BinOp::Sub && sa == sb =>
        {
            Val::Con((oa as u64).wrapping_sub(ob as u64))
        }
        _ => Val::Unk,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ks_ir::{BasicBlock, SharedDecl, VReg};

    fn cfg_1d(threads: u32) -> AnalysisConfig {
        AnalysisConfig {
            block_dim: Some((threads, 1, 1)),
            ..Default::default()
        }
    }

    /// `shm[f(tid)*4] = tid; __syncthreads(); x = shm[g(tid)*4]` kernel
    /// builder: one block, store phase, barrier, load phase.
    fn shm_kernel(
        shared_words: u32,
        store_scale: i64,
        store_bias: i64,
        load_scale: i64,
        load_bias: i64,
    ) -> Function {
        let mut f = Function {
            name: "k".into(),
            params: vec![],
            blocks: vec![],
            vreg_types: vec![],
            shared: vec![SharedDecl {
                name: "shm".into(),
                offset: 0,
                size_bytes: shared_words * 4,
            }],
            local_bytes: 0,
        };
        let tid = f.new_vreg(Ty::S32);
        let saddr = f.new_vreg(Ty::S32);
        let laddr = f.new_vreg(Ty::S32);
        let tmp = f.new_vreg(Ty::S32);
        f.blocks.push(BasicBlock {
            id: BlockId(0),
            insts: vec![
                Inst::Special {
                    dst: tid,
                    reg: SpecialReg::TidX,
                },
                // store address = (tid*scale + bias) * 4
                Inst::Bin {
                    op: BinOp::Mul,
                    ty: Ty::S32,
                    dst: saddr,
                    a: tid.into(),
                    b: Operand::ImmI(store_scale * 4),
                },
                Inst::St {
                    space: Space::Shared,
                    ty: Ty::S32,
                    addr: Address::reg_off(saddr, store_bias * 4),
                    src: tid.into(),
                },
                Inst::Bar,
                Inst::Bin {
                    op: BinOp::Mul,
                    ty: Ty::S32,
                    dst: laddr,
                    a: tid.into(),
                    b: Operand::ImmI(load_scale * 4),
                },
                Inst::Ld {
                    space: Space::Shared,
                    ty: Ty::S32,
                    dst: tmp,
                    addr: Address::reg_off(laddr, load_bias * 4),
                },
            ],
            term: Terminator::Ret,
        });
        f
    }

    #[test]
    fn clean_kernel_produces_nothing() {
        let f = shm_kernel(64, 1, 0, 1, 0);
        let m = Module {
            functions: vec![],
            consts: vec![],
            textures: vec![],
        };
        let out = exec_function(&m, &f, &DeviceConfig::tesla_c2070(), &cfg_1d(64));
        assert!(out.races.is_empty(), "{:?}", out.races);
        assert!(out.bounds.is_empty());
        assert!(out.divergent_barriers.is_empty());
        assert!(out.inconclusive.is_none());
        let p = out.prediction.unwrap();
        // 2 warps × (1 store + 1 load) of shared memory, conflict-free.
        assert_eq!(p.shared_accesses, 4);
        assert_eq!(p.bank_conflict_extra, 0);
        assert_eq!(out.intervals, 2);
    }

    #[test]
    fn cross_warp_race_without_barrier_detected() {
        // Both warps write word (tid % 32): warp 0 and warp 1 collide.
        let mut f = shm_kernel(32, 1, 0, 1, 0);
        // Rewrite the store address to tid%32 words and drop the barrier.
        let tid = VReg(0);
        let saddr = VReg(1);
        f.blocks[0].insts[1] = Inst::Bin {
            op: BinOp::Rem,
            ty: Ty::S32,
            dst: saddr,
            a: tid.into(),
            b: Operand::ImmI(32),
        };
        let shl = Inst::Bin {
            op: BinOp::Shl,
            ty: Ty::S32,
            dst: saddr,
            a: saddr.into(),
            b: Operand::ImmI(2),
        };
        f.blocks[0].insts.insert(2, shl);
        f.blocks[0].insts.remove(4); // the Bar
        let m = Module::default();
        let out = exec_function(&m, &f, &DeviceConfig::tesla_c2070(), &cfg_1d(64));
        assert!(!out.races.is_empty());
        assert_eq!(out.races[0].kind, "write/write");
    }

    #[test]
    fn barrier_orders_colliding_phases() {
        // Warp 0 loads the words warp 1 stored (and vice versa shifted),
        // which the intervening barrier orders: no race, no bounds issue.
        let f = shm_kernel(96, 1, 0, 1, 32);
        let m = Module::default();
        let out = exec_function(&m, &f, &DeviceConfig::tesla_c2070(), &cfg_1d(64));
        assert!(out.races.is_empty(), "{:?}", out.races);
        assert!(out.bounds.is_empty(), "{:?}", out.bounds);
    }

    #[test]
    fn out_of_bounds_store_detected() {
        // 64 threads store words 0..64 but only 32 words exist.
        let f = shm_kernel(32, 1, 0, 1, 0);
        let m = Module::default();
        let out = exec_function(&m, &f, &DeviceConfig::tesla_c2070(), &cfg_1d(64));
        assert!(!out.bounds.is_empty());
        assert!(
            out.bounds[0].message.contains("outside"),
            "{:?}",
            out.bounds
        );
    }

    #[test]
    fn divergent_barrier_detected() {
        // if (tid < 16) __syncthreads();
        let mut f = Function {
            name: "k".into(),
            params: vec![],
            blocks: vec![],
            vreg_types: vec![],
            shared: vec![],
            local_bytes: 0,
        };
        let tid = f.new_vreg(Ty::S32);
        let p = f.new_vreg(Ty::Pred);
        f.blocks.push(BasicBlock {
            id: BlockId(0),
            insts: vec![
                Inst::Special {
                    dst: tid,
                    reg: SpecialReg::TidX,
                },
                Inst::Setp {
                    cmp: CmpOp::Lt,
                    ty: Ty::S32,
                    dst: p,
                    a: tid.into(),
                    b: Operand::ImmI(16),
                },
            ],
            term: Terminator::CondBr {
                pred: p,
                negate: false,
                then_t: BlockId(1),
                else_t: BlockId(2),
            },
        });
        f.blocks.push(BasicBlock {
            id: BlockId(1),
            insts: vec![Inst::Bar],
            term: Terminator::Br { target: BlockId(2) },
        });
        f.blocks.push(BasicBlock {
            id: BlockId(2),
            insts: vec![],
            term: Terminator::Ret,
        });
        let m = Module::default();
        let out = exec_function(&m, &f, &DeviceConfig::tesla_c2070(), &cfg_1d(32));
        assert_eq!(out.divergent_barriers.len(), 1);
        assert!(out.divergent_barriers[0].1.contains("divergent"));
    }

    #[test]
    fn bank_conflict_stride_flagged() {
        // Stride-32 word accesses on Fermi's 32 banks: every lane in bank 0.
        let f = shm_kernel(32 * 32, 32, 0, 32, 0);
        let m = Module::default();
        let out = exec_function(&m, &f, &DeviceConfig::tesla_c2070(), &cfg_1d(32));
        assert!(!out.mem_findings.is_empty());
        let p = out.prediction.unwrap();
        assert_eq!(p.bank_conflict_extra, 2 * 31); // store + load, 32-way
    }

    #[test]
    fn unassumed_scalar_branch_is_inconclusive_and_assumption_resolves_it() {
        // if (tid < n) { } — n is a run-time parameter.
        let mut f = Function {
            name: "k".into(),
            params: vec![ks_ir::KernelParam {
                name: "n".into(),
                ty: Ty::S32,
                offset: 0,
            }],
            blocks: vec![],
            vreg_types: vec![],
            shared: vec![],
            local_bytes: 0,
        };
        let n = f.new_vreg(Ty::S32);
        let tid = f.new_vreg(Ty::S32);
        let p = f.new_vreg(Ty::Pred);
        f.blocks.push(BasicBlock {
            id: BlockId(0),
            insts: vec![
                Inst::Ld {
                    space: Space::Param,
                    ty: Ty::S32,
                    dst: n,
                    addr: Address::abs(0),
                },
                Inst::Special {
                    dst: tid,
                    reg: SpecialReg::TidX,
                },
                Inst::Setp {
                    cmp: CmpOp::Lt,
                    ty: Ty::S32,
                    dst: p,
                    a: tid.into(),
                    b: n.into(),
                },
            ],
            term: Terminator::CondBr {
                pred: p,
                negate: false,
                then_t: BlockId(1),
                else_t: BlockId(2),
            },
        });
        f.blocks.push(BasicBlock {
            id: BlockId(1),
            insts: vec![],
            term: Terminator::Br { target: BlockId(2) },
        });
        f.blocks.push(BasicBlock {
            id: BlockId(2),
            insts: vec![],
            term: Terminator::Ret,
        });
        let m = Module::default();
        let dev = DeviceConfig::tesla_c2070();
        let re = exec_function(&m, &f, &dev, &cfg_1d(32));
        assert!(re.inconclusive.is_some());
        assert!(re.prediction.is_none());
        let sk = exec_function(&m, &f, &dev, &cfg_1d(32).assume("n", ParamValue::Int(16)));
        assert!(sk.inconclusive.is_none(), "{:?}", sk.inconclusive);
        assert!(sk.prediction.is_some());
    }

    #[test]
    fn pointer_param_accesses_are_coalescing_checked_without_assumptions() {
        // out[tid*32] = tid → badly strided global store.
        let mut f = Function {
            name: "k".into(),
            params: vec![ks_ir::KernelParam {
                name: "out".into(),
                ty: Ty::Ptr(Space::Global),
                offset: 0,
            }],
            blocks: vec![],
            vreg_types: vec![],
            shared: vec![],
            local_bytes: 0,
        };
        let out_p = f.new_vreg(Ty::Ptr(Space::Global));
        let tid = f.new_vreg(Ty::S32);
        let off = f.new_vreg(Ty::S32);
        let addr = f.new_vreg(Ty::Ptr(Space::Global));
        f.blocks.push(BasicBlock {
            id: BlockId(0),
            insts: vec![
                Inst::Ld {
                    space: Space::Param,
                    ty: Ty::Ptr(Space::Global),
                    dst: out_p,
                    addr: Address::abs(0),
                },
                Inst::Special {
                    dst: tid,
                    reg: SpecialReg::TidX,
                },
                Inst::Bin {
                    op: BinOp::Mul,
                    ty: Ty::S32,
                    dst: off,
                    a: tid.into(),
                    b: Operand::ImmI(128),
                },
                Inst::Bin {
                    op: BinOp::Add,
                    ty: Ty::Ptr(Space::Global),
                    dst: addr,
                    a: out_p.into(),
                    b: off.into(),
                },
                Inst::St {
                    space: Space::Global,
                    ty: Ty::S32,
                    addr: Address::reg(addr),
                    src: tid.into(),
                },
            ],
            term: Terminator::Ret,
        });
        let m = Module::default();
        let out = exec_function(&m, &f, &DeviceConfig::tesla_c2070(), &cfg_1d(32));
        assert!(out.inconclusive.is_none(), "{:?}", out.inconclusive);
        let p = out.prediction.unwrap();
        assert_eq!(p.global_stores, 1);
        assert_eq!(p.global_transactions, 32); // one line per lane
        assert_eq!(out.mem_findings.len(), 1);
    }
}
