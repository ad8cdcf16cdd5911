//! Block-wide abstract SIMT execution.
//!
//! One thread block runs through `ks_sim::simt`, the control core the
//! simulator's executor runs on: the same decoded [`LaunchPlan`], the same
//! lockstep warps, reconvergence stack and round-robin scheduling between
//! barriers. What this module supplies is the lanes, over an abstract
//! value domain:
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
//! because the values specialization would bake in are missing. Findings
//! point at `(block, instruction)` sites, mapped from plan pcs.

use crate::bounds::{BoundsChecker, BoundsFinding};
use crate::diag::{AnalysisConfig, MemPrediction, ParamValue};
use crate::memlint::{AccessKind, MemFinding, MemLint};
use crate::race::{RaceFinding, RaceLog, Site};
use ks_ir::fxhash::FxHashMap;
use ks_ir::{eval, BinOp, CmpOp, Function, Module, Space, SpecialReg, Ty};
use ks_sim::device::DeviceConfig;
use ks_sim::plan::{CvtKind, Kind, LaunchPlan, Op, NONE};
use ks_sim::racecheck::{RaceHazard, ShmemTracker};
use ks_sim::simt::{self, Domain, Warp};

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

/// One warp's abstract registers, `regs[reg * 32 + lane]`.
struct Lanes {
    base_tid: u32,
    regs: Vec<Val>,
}

/// Why execution of the whole block stopped early.
enum Abort {
    /// A deny-class finding was recorded; further state is meaningless.
    Poisoned,
    Inconclusive(String),
}

/// The abstract domain over one block.
struct Exec<'a> {
    plan: &'a LaunchPlan,
    cfg: &'a AnalysisConfig,
    block_dim: (u32, u32, u32),
    /// Parameter values by param-space byte offset.
    params: FxHashMap<u32, Val>,
    /// Synthetic device base per symbol, spaced far apart and 256-aligned
    /// like real allocations, so relative alignment (all that coalescing
    /// depends on) matches a real launch.
    sym_bases: FxHashMap<u32, u64>,
    next_sym_base: u64,
    shmem: ShmemTracker,
    races: RaceLog,
    bounds: BoundsChecker,
    mem: MemLint,
    divergent_barriers: Vec<(Option<Site>, String)>,
    notes: Vec<String>,
    /// Barriers released.
    releases: u64,
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

    let mut params = FxHashMap::default();
    for (i, p) in f.params.iter().enumerate() {
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
        params.insert(p.offset, v);
    }

    let plan = LaunchPlan::from_function(f);
    let mut ex = Exec {
        plan: &plan,
        cfg,
        block_dim,
        params,
        sym_bases: FxHashMap::default(),
        next_sym_base: ks_sim::mem::GLOBAL_BASE,
        shmem: ShmemTracker::new(),
        races: RaceLog::default(),
        bounds: BoundsChecker::new(&f.shared, cfg.dynamic_shared, f.local_bytes, &m.consts),
        mem: MemLint::new(dev),
        divergent_barriers: Vec::new(),
        notes: Vec::new(),
        releases: 0,
    };
    let nv = f.num_vregs();
    let mut warps = Warp::block(threads, |base_tid| Lanes {
        base_tid,
        regs: vec![Val::Unk; nv * 32],
    });
    let run = simt::run_block(&plan, &mut ex, &mut warps, cfg.max_steps);

    out.races = ex.races.findings().to_vec();
    out.bounds = ex.bounds.findings().to_vec();
    out.mem_findings = ex
        .mem
        .finish(cfg.bank_conflict_threshold, cfg.coalescing_slack);
    out.divergent_barriers = ex.divergent_barriers;
    out.proven_bounds = ex.bounds.proven;
    // The final interval ends where the block does.
    out.intervals = ex.releases + u64::from(run.is_ok());
    match run {
        Ok(()) => out.prediction = Some(ex.mem.prediction),
        Err(Abort::Inconclusive(why)) => out.inconclusive = Some(why),
        Err(Abort::Poisoned) => {}
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
    /// The `(block, instruction)` site of `pc`.
    fn site(&self, pc: u32) -> Site {
        let (b, i) = self.plan.site(pc);
        (b.0, i)
    }

    /// Operand row `row` of lane `lane`.
    fn val(&self, w: &Lanes, row: u32, lane: usize) -> Val {
        match self.plan.imm(row) {
            Some(bits) => Val::Con(bits),
            None => w.regs[row as usize * 32 + lane],
        }
    }

    /// Set `op`'s destination to `f(lane)` in the lanes of `mask`, in
    /// ascending order.
    fn lanewise(
        &mut self,
        w: &mut Lanes,
        op: &Op,
        mask: u32,
        mut f: impl FnMut(&mut Self, &Lanes, usize) -> Val,
    ) {
        for lane in lanes(mask) {
            let v = f(self, w, lane);
            w.regs[op.dst as usize * 32 + lane] = v;
        }
    }

    /// The address a memory op accesses in each active lane.
    fn lane_vals(&self, w: &Lanes, op: &Op, mask: u32) -> [Val; 32] {
        if op.a == NONE {
            return [Val::Con(op.imm as u64); 32];
        }
        let mut out = [Val::Con(0); 32];
        for lane in lanes(mask) {
            out[lane] = match w.regs[op.a as usize * 32 + lane] {
                Val::Con(b) => Val::Con(b.wrapping_add(op.imm as u64)),
                Val::Based { sym, off } => Val::Based {
                    sym,
                    off: off.wrapping_add(op.imm),
                },
                Val::Unk => Val::Unk,
            };
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

    fn note_once(&mut self, note: &str) {
        if !self.notes.iter().any(|n| n == note) {
            self.notes.push(note.into());
        }
    }

    /// Observe the load (`store` false) or store `op` at `pc`; what a load
    /// reads.
    fn access(&mut self, w: &Lanes, op: &Op, space: Space, store: bool, pc: u32, mask: u32) -> Val {
        let site = self.site(pc);
        let vals = self.lane_vals(w, op, mask);
        let (global, shared) = match store {
            false => (AccessKind::GlobalLoad, AccessKind::SharedLoad),
            true => (AccessKind::GlobalStore, AccessKind::SharedStore),
        };
        match (space, self.resolve_lanes(&vals, mask)) {
            (Space::Global, Some(addrs)) => self.mem.global(global, &addrs, mask, site),
            (Space::Global, None) => self.mem.unresolved(),
            (Space::Shared, Some(addrs)) => {
                // Two lanes of one store hitting the same word is a race
                // unless they provably write the same value (which lane
                // wins is undefined).
                let mut by_word: FxHashMap<u64, Val> = FxHashMap::default();
                let warp = w.base_tid / 32;
                for lane in lanes(mask) {
                    let addr = addrs[lane];
                    self.bounds.check_shared(addr, site);
                    if !store {
                        if let Some(h) = self.shmem.read(warp, addr, pc) {
                            self.race(h, addr, site);
                        }
                        continue;
                    }
                    for h in self.shmem.write(warp, addr, pc) {
                        self.race(h, addr, site);
                    }
                    let v = self.val(w, op.b, lane);
                    match by_word.get(&(addr / 4)) {
                        Some(prev) if *prev == v && matches!(v, Val::Con(_)) => {}
                        Some(_) => self
                            .races
                            .report("intra-warp write/write", addr, site, site),
                        None => {
                            by_word.insert(addr / 4, v);
                        }
                    }
                }
                self.mem.shared(shared, &addrs, mask, site);
            }
            (Space::Shared, None) => {
                self.mem.unresolved();
                self.note_once(
                    "shared access with unresolved address: racecheck and bounds results \
                     are incomplete",
                );
            }
            (Space::Local | Space::Const, _) => {
                for lane in lanes(mask) {
                    match (vals[lane], space) {
                        (Val::Con(a), Space::Local) => self.bounds.check_local(a, site),
                        (Val::Con(a), _) => self.bounds.check_const(a, site),
                        (_, Space::Local) => self.note_once("local access with unresolved address"),
                        _ => self.note_once("constant access with unresolved address"),
                    }
                }
            }
            // The verifier requires absolute param addresses; the config
            // may pin a parameter's value down.
            (Space::Param, _) if op.a == NONE => {
                if let Some(&v) = self.params.get(&(op.imm as u32)) {
                    return v;
                }
            }
            (Space::Param, _) => {}
        }
        // Loaded data is opaque.
        Val::Unk
    }

    fn race(&mut self, h: RaceHazard, addr: u64, site: Site) {
        let other = self.site(h.other_pc);
        self.races.report(h.kind, addr, site, other);
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

impl Domain for Exec<'_> {
    type Lanes = Lanes;
    type Error = Abort;

    fn exec(&mut self, w: &mut Lanes, op: &Op, pc: u32, mask: u32) -> Result<(), Abort> {
        let (a, b, c) = (op.a, op.b, op.c);
        match op.kind {
            Kind::Mov => self.lanewise(w, op, mask, |ex, w, l| ex.val(w, a, l)),
            Kind::Special(reg) => {
                let (bx, by, bz) = self.block_dim;
                let (gx, gy, gz) = self.cfg.grid_dim;
                let (cx, cy, cz) = self.cfg.block_idx;
                self.lanewise(w, op, mask, |_, w, l| {
                    let tid = w.base_tid + l as u32;
                    Val::Con(u64::from(match reg {
                        SpecialReg::TidX => tid % bx,
                        SpecialReg::TidY => (tid / bx) % by,
                        SpecialReg::TidZ => tid / (bx * by),
                        SpecialReg::CtaIdX => cx,
                        SpecialReg::CtaIdY => cy,
                        SpecialReg::CtaIdZ => cz,
                        SpecialReg::NtidX => bx,
                        SpecialReg::NtidY => by,
                        SpecialReg::NtidZ => bz,
                        SpecialReg::NctaIdX => gx,
                        SpecialReg::NctaIdY => gy,
                        SpecialReg::NctaIdZ => gz,
                    }))
                })
            }
            Kind::Bin(kind) => {
                let (bop, ty) = kind.op_ty();
                self.lanewise(w, op, mask, |ex, w, l| {
                    bin_val(bop, ty, ex.val(w, a, l), ex.val(w, b, l))
                })
            }
            Kind::Un(kind) => {
                let (uop, ty) = kind.op_ty();
                self.lanewise(w, op, mask, |ex, w, l| match ex.val(w, a, l) {
                    Val::Con(x) => Val::Con(eval::un(uop, ty, x)),
                    _ => Val::Unk,
                })
            }
            Kind::Mad(kind) => self.lanewise(w, op, mask, |ex, w, l| {
                let xy = bin_val(BinOp::Mul, kind.ty(), ex.val(w, a, l), ex.val(w, b, l));
                bin_val(BinOp::Add, kind.ty(), xy, ex.val(w, c, l))
            }),
            Kind::Setp(cmp, domain) => self.lanewise(w, op, mask, |ex, w, l| {
                let (x, y) = (ex.val(w, a, l), ex.val(w, b, l));
                ex.cmp_val(cmp, domain.ty(), x, y)
            }),
            Kind::Selp => self.lanewise(w, op, mask, |ex, w, l| {
                let (x, y) = (ex.val(w, a, l), ex.val(w, b, l));
                match ex.val(w, c, l) {
                    Val::Con(p) if p != 0 => x,
                    Val::Con(_) => y,
                    // Unknown selector: sound only when both arms agree.
                    _ if x == y => x,
                    _ => Val::Unk,
                }
            }),
            Kind::Cvt(kind) => {
                // Pointer→pointer is no conversion, so a base survives it.
                let ptr = |row: u32| self.plan.row_ty(row).is_some_and(|t| t.is_ptr());
                let keeps_base = kind == CvtKind::Copy && ptr(a) && ptr(op.dst);
                self.lanewise(w, op, mask, |ex, w, l| match ex.val(w, a, l) {
                    // Not a conversion: the bits pass through.
                    Val::Con(x) => Val::Con(
                        kind.tys()
                            .and_then(|(d, s)| eval::cvt(d, s, x))
                            .unwrap_or(x),
                    ),
                    v @ Val::Based { .. } if keeps_base => v,
                    _ => Val::Unk,
                })
            }
            Kind::Ld { space, .. } => {
                let loaded = self.access(w, op, space, false, pc, mask);
                self.lanewise(w, op, mask, |_, _, _| loaded);
            }
            Kind::St { space } => {
                self.access(w, op, space, true, pc, mask);
            }
            Kind::Tex { .. } => {
                let mut vals = [Val::Con(0); 32];
                let mut ok = true;
                for lane in lanes(mask) {
                    vals[lane] = match self.val(w, a, lane) {
                        Val::Con(i) if i as u32 as i32 >= 0 => Val::Based {
                            sym: TEX_SYM + op.imm as u32,
                            off: i as u32 as i64 * 4,
                        },
                        _ => {
                            ok = false;
                            Val::Unk
                        }
                    };
                }
                match ok.then(|| self.resolve_lanes(&vals, mask)).flatten() {
                    Some(addrs) => {
                        let site = self.site(pc);
                        self.mem.global(AccessKind::GlobalLoad, &addrs, mask, site)
                    }
                    None => self.mem.unresolved(),
                }
                self.lanewise(w, op, mask, |_, _, _| Val::Unk);
            }
            // The simulator would trap; as a value, the result is unknown.
            Kind::Trap if op.dst != NONE => self.lanewise(w, op, mask, |_, _, _| Val::Unk),
            Kind::Trap => {}
            Kind::Bar | Kind::Br | Kind::CondBr { .. } | Kind::Ret => {
                unreachable!("handled by the control core")
            }
        }
        Ok(())
    }

    fn taken(&mut self, w: &mut Lanes, op: &Op, pc: u32, mask: u32) -> Result<u32, Abort> {
        let negate = matches!(op.kind, Kind::CondBr { negate: true });
        let mut taken = 0u32;
        for lane in lanes(mask) {
            let Val::Con(bits) = w.regs[op.a as usize * 32 + lane] else {
                return Err(Abort::Inconclusive(format!(
                    "branch in {} depends on a value unavailable at analysis time (an \
                     unassumed run-time parameter or loaded data); a specialized kernel or \
                     a -A/param assumption makes this decidable",
                    self.plan.site(pc).0
                )));
            };
            if (bits != 0) ^ negate {
                taken |= 1 << lane;
            }
        }
        Ok(taken)
    }

    fn divergent_barrier(&mut self, w: &Lanes, pc: u32, mask: u32) -> Abort {
        self.divergent_barriers.push((
            Some(self.site(pc)),
            format!(
                "__syncthreads() executed under divergent control flow \
                 (warp {} reaches it with a partial mask {:#010x})",
                w.base_tid / 32,
                mask
            ),
        ));
        Abort::Poisoned
    }

    fn divergent_return(&mut self, pc: u32) -> Abort {
        // The verifier guarantees reconvergence-before-ret for well-formed
        // kernels; reaching this means the simulator would trap identically.
        Abort::Inconclusive(format!(
            "divergent return in {} (simulator would trap)",
            self.plan.site(pc).0
        ))
    }

    /// Some warps already returned, so the barrier can never be satisfied
    /// by all threads — the divergent-barrier deadlock the simulator
    /// silently rolls past.
    fn partial_barrier(&mut self, _exited: usize, _waiting: usize) -> Result<(), Abort> {
        self.divergent_barriers.push((
            None,
            "some threads return while others wait at __syncthreads(); \
             the barrier never completes for the full block"
                .into(),
        ));
        Err(Abort::Poisoned)
    }

    fn release(&mut self, _warps: &mut [Warp<Lanes>]) {
        self.releases += 1;
        self.shmem.barrier();
    }

    fn fault(&mut self, why: String) -> Abort {
        Abort::Inconclusive(why)
    }

    fn out_of_steps(&mut self) -> Abort {
        Abort::Inconclusive(format!(
            "abstract execution exceeded the {}-instruction budget \
             (raise AnalysisConfig::max_steps for long kernels)",
            self.cfg.max_steps
        ))
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
    use ks_ir::{Address, BasicBlock, BlockId, Inst, Operand, SharedDecl, Terminator, VReg};

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
