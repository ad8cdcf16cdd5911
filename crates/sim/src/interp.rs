//! Functional SIMT executor with integrated scoreboard timing.
//!
//! Warps execute a decoded [`LaunchPlan`] in lockstep using the classic
//! post-dominator reconvergence stack (the same mechanism real NVIDIA
//! hardware and GPGPU-Sim use): a divergent branch pushes per-path frames
//! whose masks partition the warp; a frame pops when it reaches its
//! reconvergence pc (the branch's immediate post-dominator).
//!
//! There is one executor body, [`run_warp`], compiled twice. With
//! `TIMING = true` it keeps a per-warp register scoreboard — each
//! register carries a ready-time, so independent instructions issue
//! back-to-back (ILP — this is what makes register blocking pay off)
//! while dependent chains stall for the producer's latency — plus the
//! coalescing, bank-conflict and line-reuse models and every `ExecStats`
//! counter. With `TIMING = false` all of that compiles out and only the
//! architectural effects remain: register and memory contents, control
//! flow, and every trap. Arithmetic runs over whole 32-lane rows with the
//! op matched once per warp-instruction; inactive lanes are computed and
//! not written back, so only ops that can trap look at lanes one by one.

// Lockstep lane loops index fixed 32-wide arrays by lane id on purpose;
// iterator adapters would obscure the SIMT structure.
#![allow(clippy::needless_range_loop)]

use crate::device::{DeviceConfig, IssueClass, LatencyClass};
use crate::mem::{bank_conflict_degree, coalesce_transactions, line_of, LineSet, GLOBAL_BASE};
use crate::plan::{
    BinKind, Branch, CmpDomain, CvtKind, Kind, LaunchPlan, MadKind, Op, Row, UnKind, Unit, NONE,
};
use crate::racecheck::ShmemTracker;
use ks_ir::{CmpOp, Space, SpecialReg};

/// A simulation trap (the analogue of a CUDA launch error).
#[derive(Debug, Clone, PartialEq)]
pub struct SimError(pub String);

impl SimError {
    /// True for errors a launch retry may clear — currently the
    /// injected device faults `ks_fault` marks `(transient, …)`.
    /// Genuine simulation traps (bad kernels, OOB accesses) are
    /// deterministic and never transient.
    pub fn is_transient(&self) -> bool {
        self.0.contains("(transient")
    }
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "simulation trap: {}", self.0)
    }
}

impl std::error::Error for SimError {}

/// Unsafe shared view of global memory, allowing data-race-free thread
/// blocks to execute in parallel (mirroring real GPU semantics: racy
/// kernels are undefined behaviour there too).
#[derive(Clone, Copy)]
pub struct GlobalView {
    base: *mut u8,
    len: usize,
}

unsafe impl Send for GlobalView {}
unsafe impl Sync for GlobalView {}

impl GlobalView {
    /// Create from an exclusive borrow; the borrow guarantees no host-side
    /// aliasing while kernels run.
    pub fn new(data: &mut [u8]) -> GlobalView {
        GlobalView {
            base: data.as_mut_ptr(),
            len: data.len(),
        }
    }

    #[inline]
    fn check(&self, addr: u64) -> Result<usize, SimError> {
        if addr < GLOBAL_BASE {
            return Err(SimError(format!("global access below heap at {addr:#x}")));
        }
        let off = (addr - GLOBAL_BASE) as usize;
        if off + 4 > self.len {
            return Err(SimError(format!(
                "global access out of bounds at {addr:#x}"
            )));
        }
        if !addr.is_multiple_of(4) {
            return Err(SimError(format!("misaligned global access at {addr:#x}")));
        }
        Ok(off)
    }

    #[inline]
    fn read_u32(&self, addr: u64) -> Result<u32, SimError> {
        let off = self.check(addr)?;
        // SAFETY: bounds checked above; concurrent access requires the
        // kernel itself to be data-race-free (GPU contract).
        unsafe {
            let p = self.base.add(off) as *const u32;
            Ok(p.read_unaligned())
        }
    }

    #[inline]
    fn write_u32(&self, addr: u64, v: u32) -> Result<(), SimError> {
        let off = self.check(addr)?;
        // SAFETY: as for `read_u32`.
        unsafe {
            let p = self.base.add(off) as *mut u32;
            p.write_unaligned(v);
        }
        Ok(())
    }
}

/// Dynamic-instruction statistics for a block (or aggregated launch).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ExecStats {
    pub dyn_insts: u64,
    pub alu: u64,
    pub mul: u64,
    pub div_sqrt: u64,
    pub global_loads: u64,
    pub global_stores: u64,
    pub global_transactions: u64,
    pub global_bytes: u64,
    pub shared_accesses: u64,
    pub bank_conflict_extra: u64,
    pub local_accesses: u64,
    pub const_loads: u64,
    pub param_loads: u64,
    pub branches: u64,
    pub divergent_branches: u64,
    pub barriers: u64,
    /// Scheduler-busy cycles summed over warps.
    pub issue_cycles: u64,
    /// Critical-path cycles: max over warps of the scoreboard clock.
    pub isolated_cycles: u64,
    /// Device address of the first global store this block executed
    /// (0 = none; the global heap starts above 0, so 0 is free as a
    /// sentinel). With `last_store_addr`, this gives a launch two
    /// known-written output words — where an injected silent bit flip
    /// can land without ever touching an input-only buffer.
    pub first_store_addr: u64,
    /// Device address of the most recent global store (0 = none).
    pub last_store_addr: u64,
}

impl ExecStats {
    pub fn accumulate(&mut self, o: &ExecStats) {
        self.dyn_insts += o.dyn_insts;
        self.alu += o.alu;
        self.mul += o.mul;
        self.div_sqrt += o.div_sqrt;
        self.global_loads += o.global_loads;
        self.global_stores += o.global_stores;
        self.global_transactions += o.global_transactions;
        self.global_bytes += o.global_bytes;
        self.shared_accesses += o.shared_accesses;
        self.bank_conflict_extra += o.bank_conflict_extra;
        self.local_accesses += o.local_accesses;
        self.const_loads += o.const_loads;
        self.param_loads += o.param_loads;
        self.branches += o.branches;
        self.divergent_branches += o.divergent_branches;
        self.barriers += o.barriers;
        self.issue_cycles += o.issue_cycles;
        self.isolated_cycles = self.isolated_cycles.max(o.isolated_cycles);
        if self.first_store_addr == 0 {
            self.first_store_addr = o.first_store_addr;
        }
        if o.last_store_addr != 0 {
            self.last_store_addr = o.last_store_addr;
        }
    }
}

/// A reconvergence-stack frame.
#[derive(Debug, Clone, Copy)]
struct Frame {
    pc: u32,
    /// Pc at which this frame pops ([`NONE`] for the bottom frame).
    reconv: u32,
    mask: u32,
}

/// Why [`run_warp`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WarpStop {
    /// The instruction budget ran out; the warp can go on.
    Budget,
    Barrier,
    Done,
}

/// One warp's architectural and scoreboard state. Lives in a
/// [`BlockScratch`] and is reset, not rebuilt, for every block.
pub(crate) struct Warp {
    /// First linear thread id covered by this warp.
    base_tid: u32,
    /// Lanes that exist (a block's last warp may be partial).
    lanes_mask: u32,
    regs: Vec<Row>,
    stack: Vec<Frame>,
    pub(crate) done: bool,
    pub(crate) at_barrier: bool,
    pub(crate) clock: u64,
    reg_ready: Vec<u64>,
    /// Earliest time a load from each space can observe prior stores
    /// (store-to-load forwarding; conservative, all-addresses-alias).
    /// Indexed by [global, shared, local].
    store_ready: [u64; 3],
    pub(crate) stats: ExecStats,
    local: Vec<u8>,
    /// (issue time, issue cycles) of the most recent instruction — used by
    /// the event scheduler's issue-port model.
    pub(crate) last_issue: (u64, u64),
}

impl Warp {
    /// Back to "about to execute pc 0 of a fresh block". Registers keep
    /// their contents except where the plan says a read can come first.
    fn reset(&mut self, plan: &LaunchPlan) {
        for &r in &plan.entry_live {
            self.regs[r as usize] = [0; 32];
        }
        self.stack.clear();
        self.stack.push(Frame {
            pc: 0,
            reconv: NONE,
            mask: self.lanes_mask,
        });
        self.done = false;
        self.at_barrier = false;
        self.clock = 0;
        self.reg_ready.fill(0);
        self.store_ready = [0; 3];
        self.stats = ExecStats::default();
        self.local.fill(0);
        self.last_issue = (0, 0);
    }
}

/// Per-block memory-model state.
pub(crate) struct BlockState {
    /// Lines already fetched by this block (the read-cache model).
    seen_lines: LineSet,
    /// Shared-memory race tracker, present when the launch asked for
    /// racecheck instrumentation.
    shmem: Option<ShmemTracker>,
}

/// Everything mutable one thread block executes on: warps, shared memory
/// and the block-level models. A launch worker owns one and runs its
/// blocks through it one after another.
pub(crate) struct BlockScratch {
    pub(crate) warps: Vec<Warp>,
    pub(crate) shared: Vec<u8>,
    pub(crate) state: BlockState,
}

impl BlockScratch {
    /// Scratch for blocks of `env`'s geometry, ready to run one, timed or
    /// not.
    pub(crate) fn new(env: &LaunchEnv<'_>) -> BlockScratch {
        let plan = env.plan;
        let (bx, by, bz) = env.block_dim;
        let threads = bx * by * bz;
        let warps = (0..threads.div_ceil(32))
            .map(|w| {
                let base_tid = w * 32;
                let lanes = (threads - base_tid).min(32);
                Warp {
                    base_tid,
                    lanes_mask: if lanes == 32 {
                        u32::MAX
                    } else {
                        (1u32 << lanes) - 1
                    },
                    regs: vec![[0; 32]; plan.num_vregs],
                    stack: Vec::new(),
                    done: false,
                    at_barrier: false,
                    clock: 0,
                    reg_ready: vec![0; plan.num_vregs],
                    store_ready: [0; 3],
                    stats: ExecStats::default(),
                    local: vec![0; plan.local_bytes as usize * 32],
                    last_issue: (0, 0),
                }
            })
            .collect();
        let mut scratch = BlockScratch {
            warps,
            shared: vec![0; (plan.shared_bytes + env.dynamic_shared) as usize],
            state: BlockState {
                seen_lines: LineSet::default(),
                shmem: env.racecheck.then(ShmemTracker::new),
            },
        };
        scratch.reset(plan);
        scratch
    }

    /// Make the scratch indistinguishable from a new one, as far as a
    /// block can observe.
    pub(crate) fn reset(&mut self, plan: &LaunchPlan) {
        for w in &mut self.warps {
            w.reset(plan);
        }
        self.shared.fill(0);
        self.state.seen_lines.clear();
        if let Some(tr) = self.state.shmem.as_mut() {
            tr.barrier();
        }
    }
}

/// What every block of a launch shares.
pub(crate) struct LaunchEnv<'a> {
    pub dev: &'a DeviceConfig,
    pub plan: &'a LaunchPlan,
    pub global: GlobalView,
    pub const_mem: &'a [u8],
    pub params: &'a [u8],
    /// Device base address bound to each module texture reference
    /// (indexed by a `Kind::Tex` op's `imm`; 0 = unbound).
    pub tex_bindings: &'a [u64],
    pub block_dim: (u32, u32, u32),
    pub grid_dim: (u32, u32, u32),
    pub dynamic_shared: u32,
    /// Print a per-instruction issue trace for warp 0 of timed blocks
    /// (debugging).
    pub trace: bool,
    /// Track per-word shared-memory access sets between barriers and fail
    /// on cross-warp hazards (`LaunchOptions::racecheck`).
    pub racecheck: bool,
    /// Reject barriers that only part of the block reaches — threads that
    /// returned while others wait — instead of releasing the stragglers
    /// (`LaunchOptions::strict_barriers`).
    pub strict_barriers: bool,
    pub costs: Costs,
}

/// The device's cycles per cost class, looked up once per launch.
pub(crate) struct Costs {
    issue: [u64; IssueClass::ALL.len()],
    latency: [u64; LatencyClass::ALL.len()],
}

impl Costs {
    pub(crate) fn new(dev: &DeviceConfig) -> Costs {
        Costs {
            issue: IssueClass::ALL.map(|c| dev.issue_cycles(c)),
            latency: LatencyClass::ALL.map(|c| dev.dep_latency(c)),
        }
    }
}

/// Dynamic instructions one warp may execute between two barriers.
const STEP_LIMIT: u64 = 2_000_000_000;

/// Execute one thread block to completion on `scratch`. Returns the
/// block's stats — all zero unless `TIMING`.
pub(crate) fn run_block<const TIMING: bool>(
    env: &LaunchEnv<'_>,
    block_idx: (u32, u32, u32),
    scratch: &mut BlockScratch,
) -> Result<ExecStats, SimError> {
    let (bx, by, bz) = env.block_dim;
    let threads = bx * by * bz;
    if threads == 0 {
        return Err(SimError("empty thread block".into()));
    }
    if threads > env.dev.max_threads_per_block {
        return Err(SimError(format!(
            "block of {threads} threads exceeds device limit {}",
            env.dev.max_threads_per_block
        )));
    }
    scratch.reset(env.plan);
    let BlockScratch {
        warps,
        shared,
        state,
    } = scratch;

    // Round-robin warps between barriers.
    loop {
        let mut all_done = true;
        let mut any_progress = false;
        for w in warps.iter_mut() {
            if w.done || w.at_barrier {
                all_done &= w.done;
                continue;
            }
            all_done = false;
            any_progress = true;
            if run_warp::<TIMING>(env, block_idx, w, shared, state, STEP_LIMIT)? == WarpStop::Budget
            {
                return Err(SimError("kernel exceeded dynamic instruction limit".into()));
            }
        }
        if all_done {
            break;
        }
        if !any_progress {
            // Everyone alive is at a barrier: release it. Beyond syncing
            // the clocks, a barrier costs a drain/notify latency on real
            // hardware (~tens of cycles).
            if env.strict_barriers && warps.iter().any(|w| w.done) {
                let waiting = warps.iter().filter(|w| w.at_barrier).count();
                let exited = warps.iter().filter(|w| w.done).count();
                return Err(SimError(format!(
                    "divergent barrier: {exited} warp(s) returned while {waiting} \
                     warp(s) wait at __syncthreads() — on hardware the block hangs"
                )));
            }
            // A full barrier orders all shared-memory accesses before it.
            if let Some(tr) = state.shmem.as_mut() {
                tr.barrier();
            }
            const BARRIER_COST: u64 = 40;
            let release_clock = warps
                .iter()
                .filter(|w| w.at_barrier)
                .map(|w| w.clock)
                .max()
                .unwrap_or(0);
            let mut any = false;
            for w in warps.iter_mut() {
                if w.at_barrier {
                    w.at_barrier = false;
                    if TIMING {
                        w.clock = w.clock.max(release_clock) + BARRIER_COST;
                    }
                    any = true;
                }
            }
            if !any {
                return Err(SimError("scheduler deadlock (barrier mismatch)".into()));
            }
        }
    }

    let mut total = ExecStats::default();
    if TIMING {
        for w in warps.iter() {
            total.accumulate(&w.stats);
        }
    }
    Ok(total)
}

/// Execute a warp until it finishes, parks at a barrier, or has issued
/// `budget` instructions (terminators count, reconvergence pops do not).
/// The event scheduler interleaves warps with a budget of one.
pub(crate) fn run_warp<const TIMING: bool>(
    env: &LaunchEnv<'_>,
    block_idx: (u32, u32, u32),
    w: &mut Warp,
    shared: &mut [u8],
    state: &mut BlockState,
    mut budget: u64,
) -> Result<WarpStop, SimError> {
    let ops = &env.plan.ops[..];
    loop {
        if budget == 0 {
            return Ok(WarpStop::Budget);
        }
        let Some(&Frame {
            mut pc,
            reconv,
            mask,
        }) = w.stack.last()
        else {
            w.done = true;
            return Ok(WarpStop::Done);
        };
        // Pop frames that reached their reconvergence point.
        if pc == reconv {
            w.stack.pop();
            continue;
        }
        // Straight-line ops of this frame. Only a branch can land on a
        // reconvergence pc, so the frame is re-examined after each.
        loop {
            let op = &ops[pc as usize];
            pc += 1;
            budget -= 1;
            match op.kind {
                Kind::Bar => {
                    w.stack.last_mut().expect("frame").pc = pc;
                    if TIMING {
                        w.stats.barriers += 1;
                        w.stats.dyn_insts += 1;
                        // Pipeline bubble while the warp parks at the barrier.
                        w.clock += 8;
                        w.stats.issue_cycles += 8;
                    }
                    if w.stack.len() > 1 {
                        return Err(SimError("__syncthreads() in divergent control flow".into()));
                    }
                    w.at_barrier = true;
                    return Ok(WarpStop::Barrier);
                }
                Kind::Ret => {
                    if w.stack.len() > 1 {
                        return Err(SimError(
                            "divergent return (should reconverge first)".into(),
                        ));
                    }
                    if TIMING {
                        w.stats.isolated_cycles = w.clock;
                    }
                    w.done = true;
                    return Ok(WarpStop::Done);
                }
                Kind::Br => {
                    if TIMING {
                        w.stats.branches += 1;
                        w.stats.dyn_insts += 1;
                        w.last_issue = (w.clock, 1);
                        w.clock += 1;
                    }
                    w.stack.last_mut().expect("frame").pc = op.imm as u32;
                    break;
                }
                Kind::CondBr { negate } => {
                    let Branch {
                        then_pc,
                        else_pc,
                        reconv: join,
                    } = env.plan.branches[op.imm as usize];
                    if TIMING {
                        w.stats.branches += 1;
                        w.stats.dyn_insts += 1;
                        let t = w.clock.max(w.reg_ready[op.a as usize]);
                        w.last_issue = (t, 1);
                        w.clock = t + 1;
                    }
                    let pred = &w.regs[op.a as usize];
                    let mut taken = 0u32;
                    for lane in 0..32 {
                        taken |= u32::from((pred[lane] != 0) ^ negate) << lane;
                    }
                    taken &= mask;
                    let not_taken = mask & !taken;
                    let fr = w.stack.last_mut().expect("frame");
                    if not_taken == 0 {
                        fr.pc = then_pc;
                    } else if taken == 0 {
                        fr.pc = else_pc;
                    } else {
                        // Divergence: current frame becomes the reconvergence
                        // continuation; push else then then (then runs first).
                        if TIMING {
                            w.stats.divergent_branches += 1;
                        }
                        if join == NONE {
                            return Err(SimError(format!(
                                "divergent branch in {} without a reconvergence point",
                                env.plan.block_of(pc - 1)
                            )));
                        }
                        fr.pc = join;
                        w.stack.push(Frame {
                            pc: else_pc,
                            reconv: join,
                            mask: not_taken,
                        });
                        w.stack.push(Frame {
                            pc: then_pc,
                            reconv: join,
                            mask: taken,
                        });
                    }
                    break;
                }
                _ => {
                    exec_op::<TIMING>(env, block_idx, w, op, pc - 1, mask, shared, state)?;
                    if budget == 0 {
                        w.stack.last_mut().expect("frame").pc = pc;
                        return Ok(WarpStop::Budget);
                    }
                }
            }
        }
    }
}

/// Store-to-load forwarding slot of a space (`Warp::store_ready`).
fn store_slot(space: Space) -> Option<usize> {
    match space {
        Space::Global => Some(0),
        Space::Shared => Some(1),
        Space::Local => Some(2),
        Space::Const | Space::Param => None,
    }
}

/// Indices of the set bits of `mask`, ascending.
#[inline(always)]
fn lanes(mut mask: u32) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let lane = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            lane
        })
    })
}

#[inline(always)]
fn map1(out: &mut Row, a: &Row, f: impl Fn(u64) -> u64) {
    for lane in 0..32 {
        out[lane] = f(a[lane]);
    }
}

#[inline(always)]
fn map2(out: &mut Row, a: &Row, b: &Row, f: impl Fn(u64, u64) -> u64) {
    for lane in 0..32 {
        out[lane] = f(a[lane], b[lane]);
    }
}

#[inline(always)]
fn map3(out: &mut Row, a: &Row, b: &Row, c: &Row, f: impl Fn(u64, u64, u64) -> u64) {
    for lane in 0..32 {
        out[lane] = f(a[lane], b[lane], c[lane]);
    }
}

/// 32-bit integer division or remainder over the active lanes; a zero
/// divisor in an active lane traps, inactive lanes are not looked at.
#[inline(always)]
fn div_rows(
    out: &mut Row,
    a: &Row,
    b: &Row,
    mask: u32,
    what: &str,
    f: impl Fn(u32, u32) -> u64,
) -> Result<(), SimError> {
    for lane in lanes(mask) {
        let (x, y) = (a[lane] as u32, b[lane] as u32);
        if y == 0 {
            return Err(SimError(format!("{what} by zero")));
        }
        out[lane] = f(x, y);
    }
    Ok(())
}

#[inline(always)]
fn f32_of(x: u64) -> f32 {
    f32::from_bits(x as u32)
}

#[inline(always)]
fn of_f32(v: f32) -> u64 {
    v.to_bits() as u64
}

#[inline(always)]
fn sext32(v: u32) -> u64 {
    v as i32 as i64 as u64
}

/// Extend a 32-bit integer result into its 64-bit lane.
#[inline(always)]
fn ext32(v: u32, signed: bool) -> u64 {
    if signed {
        sext32(v)
    } else {
        v as u64
    }
}

/// A 32-bit register value added to a pointer is sign-extended; a full
/// 64-bit immediate passes through.
#[inline(always)]
fn sext_operand(v: u64) -> u64 {
    if v <= u32::MAX as u64 {
        sext32(v as u32)
    } else {
        v
    }
}

fn bin_rows(out: &mut Row, kind: BinKind, a: &Row, b: &Row, mask: u32) -> Result<(), SimError> {
    use BinKind::*;
    let u = |x: u64| x as u32;
    let s = |x: u64| x as u32 as i32;
    match kind {
        FAdd => map2(out, a, b, |x, y| of_f32(f32_of(x) + f32_of(y))),
        FSub => map2(out, a, b, |x, y| of_f32(f32_of(x) - f32_of(y))),
        FMul => map2(out, a, b, |x, y| of_f32(f32_of(x) * f32_of(y))),
        FDiv => map2(out, a, b, |x, y| of_f32(f32_of(x) / f32_of(y))),
        FMin => map2(out, a, b, |x, y| of_f32(f32_of(x).min(f32_of(y)))),
        FMax => map2(out, a, b, |x, y| of_f32(f32_of(x).max(f32_of(y)))),
        UAdd => map2(out, a, b, |x, y| u(x).wrapping_add(u(y)) as u64),
        USub => map2(out, a, b, |x, y| u(x).wrapping_sub(u(y)) as u64),
        UMul => map2(out, a, b, |x, y| u(x).wrapping_mul(u(y)) as u64),
        UMul24 => map2(out, a, b, |x, y| {
            (u(x) & 0xFF_FFFF).wrapping_mul(u(y) & 0xFF_FFFF) as u64
        }),
        UDiv => div_rows(out, a, b, mask, "division", |x, y| (x / y) as u64)?,
        URem => div_rows(out, a, b, mask, "remainder", |x, y| (x % y) as u64)?,
        UMin => map2(out, a, b, |x, y| u(x).min(u(y)) as u64),
        UMax => map2(out, a, b, |x, y| u(x).max(u(y)) as u64),
        UAnd => map2(out, a, b, |x, y| (u(x) & u(y)) as u64),
        UOr => map2(out, a, b, |x, y| (u(x) | u(y)) as u64),
        UXor => map2(out, a, b, |x, y| (u(x) ^ u(y)) as u64),
        UShl => map2(out, a, b, |x, y| u(x).wrapping_shl(u(y) & 31) as u64),
        UShr => map2(out, a, b, |x, y| u(x).wrapping_shr(u(y) & 31) as u64),
        SAdd => map2(out, a, b, |x, y| sext32(u(x).wrapping_add(u(y)))),
        SSub => map2(out, a, b, |x, y| sext32(u(x).wrapping_sub(u(y)))),
        SMul => map2(out, a, b, |x, y| sext32(u(x).wrapping_mul(u(y)))),
        SMul24 => map2(out, a, b, |x, y| {
            sext32((u(x) & 0xFF_FFFF).wrapping_mul(u(y) & 0xFF_FFFF))
        }),
        SDiv => div_rows(out, a, b, mask, "division", |x, y| {
            sext32((x as i32).wrapping_div(y as i32) as u32)
        })?,
        SRem => div_rows(out, a, b, mask, "remainder", |x, y| {
            sext32((x as i32).wrapping_rem(y as i32) as u32)
        })?,
        SMin => map2(out, a, b, |x, y| sext32(s(x).min(s(y)) as u32)),
        SMax => map2(out, a, b, |x, y| sext32(s(x).max(s(y)) as u32)),
        SAnd => map2(out, a, b, |x, y| sext32(u(x) & u(y))),
        SOr => map2(out, a, b, |x, y| sext32(u(x) | u(y))),
        SXor => map2(out, a, b, |x, y| sext32(u(x) ^ u(y))),
        SShl => map2(out, a, b, |x, y| sext32(u(x).wrapping_shl(u(y) & 31))),
        SShr => map2(
            out,
            a,
            b,
            |x, y| sext32(s(x).wrapping_shr(u(y) & 31) as u32),
        ),
        PtrAdd => map2(out, a, b, |x, y| x.wrapping_add(sext_operand(y))),
        PtrSub => map2(out, a, b, |x, y| x.wrapping_sub(sext_operand(y))),
        PredAnd => map2(out, a, b, |x, y| u64::from((x != 0) && (y != 0))),
        PredOr => map2(out, a, b, |x, y| u64::from((x != 0) || (y != 0))),
        PredXor => map2(out, a, b, |x, y| u64::from((x != 0) ^ (y != 0))),
    }
    Ok(())
}

fn un_rows(out: &mut Row, kind: UnKind, a: &Row) {
    let s = |x: u64| x as u32 as i32;
    match kind {
        UnKind::FNeg => map1(out, a, |x| of_f32(-f32_of(x))),
        UnKind::FAbs => map1(out, a, |x| of_f32(f32_of(x).abs())),
        UnKind::FSqrt => map1(out, a, |x| of_f32(f32_of(x).sqrt())),
        UnKind::FRsqrt => map1(out, a, |x| of_f32(1.0 / f32_of(x).sqrt())),
        UnKind::FFloor => map1(out, a, |x| of_f32(f32_of(x).floor())),
        UnKind::FNot => map1(out, a, |x| !(x as u32) as u64),
        UnKind::PredNot => map1(out, a, |x| u64::from(x == 0)),
        UnKind::PredZero => *out = [0; 32],
        UnKind::INeg { signed } => map1(out, a, |x| ext32(s(x).wrapping_neg() as u32, signed)),
        UnKind::INot { signed } => map1(out, a, |x| ext32(!(x as u32), signed)),
        UnKind::IAbs { signed } => map1(out, a, |x| ext32(s(x).wrapping_abs() as u32, signed)),
        UnKind::ILow { signed } => map1(out, a, |x| ext32(x as u32, signed)),
    }
}

fn cmp_rows<T: PartialOrd>(out: &mut Row, cmp: CmpOp, a: &Row, b: &Row, conv: impl Fn(u64) -> T) {
    match cmp {
        CmpOp::Eq => map2(out, a, b, |x, y| u64::from(conv(x) == conv(y))),
        CmpOp::Ne => map2(out, a, b, |x, y| u64::from(conv(x) != conv(y))),
        CmpOp::Lt => map2(out, a, b, |x, y| u64::from(conv(x) < conv(y))),
        CmpOp::Le => map2(out, a, b, |x, y| u64::from(conv(x) <= conv(y))),
        CmpOp::Gt => map2(out, a, b, |x, y| u64::from(conv(x) > conv(y))),
        CmpOp::Ge => map2(out, a, b, |x, y| u64::from(conv(x) >= conv(y))),
    }
}

fn cvt_rows(out: &mut Row, kind: CvtKind, a: &Row) {
    match kind {
        CvtKind::SToF => map1(out, a, |x| of_f32((x as u32 as i32) as f32)),
        CvtKind::UToF => map1(out, a, |x| of_f32((x as u32) as f32)),
        CvtKind::FToS => map1(out, a, |x| sext32((f32_of(x) as i32) as u32)),
        CvtKind::FToU => map1(out, a, |x| (f32_of(x) as u32) as u64),
        CvtKind::Sext => map1(out, a, |x| sext32(x as u32)),
        CvtKind::Zext => map1(out, a, |x| (x as u32) as u64),
        CvtKind::Copy => *out = *a,
    }
}

/// The row an operand names: a register, or past them an immediate.
#[inline(always)]
fn source_row<'a>(regs: &'a [Row], imm_rows: &'a [Row], src: u32) -> &'a Row {
    let i = src as usize;
    match regs.get(i) {
        Some(r) => r,
        None => &imm_rows[i - regs.len()],
    }
}

/// Write `out` to the active lanes of `dst`.
#[inline(always)]
fn write_row(dst: &mut Row, mask: u32, out: &Row) {
    if mask == u32::MAX {
        *dst = *out;
    } else {
        for lane in 0..32 {
            if mask & (1 << lane) != 0 {
                dst[lane] = out[lane];
            }
        }
    }
}

/// Execute one non-control op for the lanes in `mask`.
#[allow(clippy::too_many_arguments)]
fn exec_op<const TIMING: bool>(
    env: &LaunchEnv<'_>,
    block_idx: (u32, u32, u32),
    w: &mut Warp,
    op: &Op,
    pc: u32,
    mask: u32,
    shared: &mut [u8],
    state: &mut BlockState,
) -> Result<(), SimError> {
    let plan = env.plan;
    let dev = env.dev;
    // ---- timing: issue + dependencies ----
    let mut issue_extra: u64 = 0; // bank-conflict replays
    let mut latency_extra: u64 = 0; // uncoalesced serialization
    let pre_clock = w.clock;
    if TIMING {
        w.stats.dyn_insts += 1;
        match op.unit {
            Unit::Alu => w.stats.alu += 1,
            Unit::Mul => w.stats.mul += 1,
            Unit::DivSqrt => w.stats.div_sqrt += 1,
            Unit::Other => {}
        }
        let mut ready = w.clock;
        for src in [op.a, op.b, op.c] {
            if let Some(&t) = w.reg_ready.get(src as usize) {
                ready = ready.max(t);
            }
        }
        // Store-to-load forwarding: a load cannot complete before earlier
        // stores to the same space are visible. This is what makes
        // run-time-evaluated register blocking (accumulators spilled to
        // local memory) pay the full memory round-trip per update.
        if let Kind::Ld { space, .. } = op.kind {
            if let Some(i) = store_slot(space) {
                ready = ready.max(w.store_ready[i]);
            }
        }
        w.clock = ready;
    }

    // ---- functional execution ----
    let regs = &w.regs[..];
    let row = |src: u32| source_row(regs, &plan.imm_rows, src);
    let mut out: Row = [0; 32];
    match op.kind {
        Kind::Mov => out = *row(op.a),
        Kind::Special(reg) => {
            let (bxd, byd, bzd) = env.block_dim;
            let (gx, gy, gz) = env.grid_dim;
            let (cx, cy, cz) = block_idx;
            let mut by_lane = |f: &dyn Fn(u32) -> u32| {
                for lane in 0..32 {
                    out[lane] = f(w.base_tid + lane as u32) as u64;
                }
            };
            match reg {
                SpecialReg::TidX => by_lane(&|t| t % bxd),
                SpecialReg::TidY => by_lane(&|t| (t / bxd) % byd),
                SpecialReg::TidZ => by_lane(&|t| t / (bxd * byd)),
                SpecialReg::CtaIdX => out = [cx as u64; 32],
                SpecialReg::CtaIdY => out = [cy as u64; 32],
                SpecialReg::CtaIdZ => out = [cz as u64; 32],
                SpecialReg::NtidX => out = [bxd as u64; 32],
                SpecialReg::NtidY => out = [byd as u64; 32],
                SpecialReg::NtidZ => out = [bzd as u64; 32],
                SpecialReg::NctaIdX => out = [gx as u64; 32],
                SpecialReg::NctaIdY => out = [gy as u64; 32],
                SpecialReg::NctaIdZ => out = [gz as u64; 32],
            }
        }
        Kind::Bin(kind) => bin_rows(&mut out, kind, row(op.a), row(op.b), mask)?,
        Kind::Un(kind) => un_rows(&mut out, kind, row(op.a)),
        // Multiply, round, add, round: never a fused `mul_add`.
        Kind::Mad(kind) => {
            let (a, b, c) = (row(op.a), row(op.b), row(op.c));
            match kind {
                MadKind::F32 => map3(&mut out, a, b, c, |x, y, z| {
                    of_f32(f32_of(x) * f32_of(y) + f32_of(z))
                }),
                MadKind::U32 => map3(&mut out, a, b, c, |x, y, z| {
                    (x as u32).wrapping_mul(y as u32).wrapping_add(z as u32) as u64
                }),
                MadKind::S32 => map3(&mut out, a, b, c, |x, y, z| {
                    sext32((x as u32).wrapping_mul(y as u32).wrapping_add(z as u32))
                }),
            }
        }
        Kind::Setp(cmp, domain) => {
            let (a, b) = (row(op.a), row(op.b));
            match domain {
                CmpDomain::F32 => cmp_rows(&mut out, cmp, a, b, f32_of),
                CmpDomain::U32 => cmp_rows(&mut out, cmp, a, b, |x| x as u32),
                CmpDomain::S32 => cmp_rows(&mut out, cmp, a, b, |x| x as u32 as i32),
                CmpDomain::U64 => cmp_rows(&mut out, cmp, a, b, |x| x),
            }
        }
        Kind::Selp => map3(&mut out, row(op.a), row(op.b), row(op.c), |x, y, p| {
            if p != 0 {
                x
            } else {
                y
            }
        }),
        Kind::Cvt(kind) => cvt_rows(&mut out, kind, row(op.a)),
        Kind::Ld { space, sext, wide } => {
            let addrs = lane_addresses(regs, op, mask);
            match space {
                Space::Global => {
                    if TIMING {
                        let t = coalesce_transactions(dev, &addrs, mask) as u64;
                        w.stats.global_loads += 1;
                        w.stats.global_transactions += t;
                        // DRAM bandwidth is charged once per line per block;
                        // re-reads hit the read cache (texture / L1).
                        let fresh = fresh_lines(&mut state.seen_lines, dev, &addrs, mask);
                        w.stats.global_bytes += fresh * dev.mem_segment;
                        latency_extra = t.saturating_sub(1) * 24;
                    }
                    for lane in lanes(mask) {
                        out[lane] = ext32(env.global.read_u32(addrs[lane])?, sext);
                    }
                }
                Space::Shared => {
                    if TIMING {
                        let d = bank_conflict_degree(dev, &addrs, mask) as u64;
                        w.stats.shared_accesses += 1;
                        w.stats.bank_conflict_extra += d - 1;
                        issue_extra = d - 1;
                    }
                    for lane in lanes(mask) {
                        if let Some(tr) = state.shmem.as_mut() {
                            if let Some(h) = tr.read(w.base_tid / 32, addrs[lane] & !3) {
                                return Err(SimError(format!("racecheck: {h}")));
                            }
                        }
                        out[lane] = ext32(read_buf(shared, addrs[lane], "shared")?, sext);
                    }
                }
                Space::Local => {
                    let lb = plan.local_bytes as u64;
                    if TIMING {
                        w.stats.local_accesses += 1;
                        charge_local_traffic(
                            dev,
                            w.base_tid,
                            &mut w.stats,
                            state,
                            &addrs,
                            mask,
                            lb,
                        );
                    }
                    for lane in lanes(mask) {
                        let a = addrs[lane] + lane as u64 * lb;
                        out[lane] = ext32(read_buf(&w.local, a, "local")?, sext);
                    }
                }
                Space::Const => {
                    // The constant cache broadcasts one address per cycle:
                    // lanes reading distinct addresses serialize.
                    let mut distinct = [0u64; 32];
                    let mut n = 0;
                    for lane in lanes(mask) {
                        let a = addrs[lane];
                        if TIMING && !distinct[..n].contains(&a) {
                            distinct[n] = a;
                            n += 1;
                        }
                        out[lane] = ext32(read_buf(env.const_mem, a, "const")?, sext);
                    }
                    if TIMING {
                        w.stats.const_loads += 1;
                        issue_extra = (n as u64).saturating_sub(1);
                    }
                }
                Space::Param => {
                    if TIMING {
                        w.stats.param_loads += 1;
                    }
                    for lane in lanes(mask) {
                        let a = addrs[lane];
                        out[lane] = if wide {
                            read_buf64(env.params, a)?
                        } else {
                            ext32(read_buf(env.params, a, "param")?, sext)
                        };
                    }
                }
            }
        }
        Kind::St { space } => {
            let addrs = lane_addresses(regs, op, mask);
            // Stores keep the low 32 bits of the register.
            let src = row(op.b);
            match space {
                Space::Global => {
                    if TIMING {
                        let t = coalesce_transactions(dev, &addrs, mask) as u64;
                        w.stats.global_stores += 1;
                        w.stats.global_transactions += t;
                        w.stats.global_bytes += t * dev.mem_segment;
                    }
                    for lane in lanes(mask) {
                        env.global.write_u32(addrs[lane], src[lane] as u32)?;
                        if TIMING {
                            if w.stats.first_store_addr == 0 {
                                w.stats.first_store_addr = addrs[lane];
                            }
                            w.stats.last_store_addr = addrs[lane];
                        }
                    }
                }
                Space::Shared => {
                    if TIMING {
                        let d = bank_conflict_degree(dev, &addrs, mask) as u64;
                        w.stats.shared_accesses += 1;
                        w.stats.bank_conflict_extra += d - 1;
                        issue_extra = d - 1;
                    }
                    for lane in lanes(mask) {
                        if let Some(tr) = state.shmem.as_mut() {
                            if let Some(h) = tr.write(w.base_tid / 32, addrs[lane] & !3) {
                                return Err(SimError(format!("racecheck: {h}")));
                            }
                        }
                        write_buf(shared, addrs[lane], src[lane] as u32, "shared")?;
                    }
                }
                Space::Local => {
                    let lb = plan.local_bytes as u64;
                    if TIMING {
                        w.stats.local_accesses += 1;
                        charge_local_traffic(
                            dev,
                            w.base_tid,
                            &mut w.stats,
                            state,
                            &addrs,
                            mask,
                            lb,
                        );
                    }
                    for lane in lanes(mask) {
                        let a = addrs[lane] + lane as u64 * lb;
                        write_buf(&mut w.local, a, src[lane] as u32, "local")?;
                    }
                }
                Space::Const | Space::Param => unreachable!("decoded as a trap"),
            }
        }
        Kind::Tex { sext } => {
            let tex = op.imm;
            let base = *env
                .tex_bindings
                .get(tex as usize)
                .ok_or_else(|| SimError(format!("texture {tex} not bound")))?;
            if base == 0 {
                return Err(SimError(format!("texture {tex} not bound")));
            }
            // Element addresses per lane; fetches run through the texture
            // cache (the per-block reuse set) like any cached global read.
            let idx = row(op.a);
            let mut addrs = [0u64; 32];
            for lane in lanes(mask) {
                let i = idx[lane] as u32 as i32;
                if i < 0 {
                    return Err(SimError("negative texture index".into()));
                }
                addrs[lane] = base + i as u64 * 4;
            }
            if TIMING {
                let t = coalesce_transactions(dev, &addrs, mask) as u64;
                w.stats.global_loads += 1;
                w.stats.global_transactions += t;
                let fresh = fresh_lines(&mut state.seen_lines, dev, &addrs, mask);
                w.stats.global_bytes += fresh * dev.mem_segment;
                latency_extra = t.saturating_sub(1) * 24;
            }
            for lane in lanes(mask) {
                out[lane] = ext32(env.global.read_u32(addrs[lane])?, sext);
            }
        }
        Kind::Trap => return Err(SimError(plan.traps[op.imm as usize].clone())),
        Kind::Bar | Kind::Br | Kind::CondBr { .. } | Kind::Ret => {
            unreachable!("handled by the warp loop")
        }
    }
    if op.dst != NONE {
        write_row(&mut w.regs[op.dst as usize], mask, &out);
    }

    // ---- timing: charge issue + set destination ready time ----
    if TIMING {
        let issue = env.costs.issue[op.issue as usize] * (1 + issue_extra);
        let t_issue = w.clock;
        w.last_issue = (t_issue, issue);
        if env.trace && w.base_tid == 0 {
            eprintln!(
                "[trace] t={:6} stall={:5} {}",
                t_issue,
                t_issue.saturating_sub(pre_clock),
                plan.trace_text[pc as usize]
            );
        }
        w.clock = t_issue + issue;
        w.stats.issue_cycles += issue;
        let latency = env.costs.latency[op.latency as usize];
        if op.dst != NONE {
            w.reg_ready[op.dst as usize] = t_issue + latency + latency_extra;
        }
        if let Kind::St { space } = op.kind {
            // A later load sees this store once it completes; forward
            // latency mirrors a load from the same space.
            if let Some(i) = store_slot(space) {
                w.store_ready[i] = w.store_ready[i].max(t_issue + latency);
            }
        }
        w.stats.isolated_cycles = w.stats.isolated_cycles.max(w.clock);
    }
    Ok(())
}

/// Count the lines of a warp access this block has not fetched before,
/// marking them fetched.
fn fresh_lines(seen: &mut LineSet, dev: &DeviceConfig, addrs: &Row, mask: u32) -> u64 {
    let line_of = line_of(dev);
    let mut fresh = 0u64;
    // Neighbouring lanes mostly share a line; skip the repeat lookups.
    let mut prev = None;
    for lane in lanes(mask) {
        let line = line_of(addrs[lane]);
        if prev != Some(line) {
            fresh += u64::from(seen.insert(line));
            prev = Some(line);
        }
    }
    fresh
}

/// Local memory lives in DRAM. A warp access to the same local offset is
/// hardware-interleaved into one or two segments' worth of traffic. On
/// CC 1.x there is no cache in front of it; Fermi's L1 absorbs re-touches
/// (modeled with the per-block reuse set, namespaced away from global
/// lines).
fn charge_local_traffic(
    dev: &DeviceConfig,
    base_tid: u32,
    stats: &mut ExecStats,
    state: &mut BlockState,
    addrs: &Row,
    mask: u32,
    lane_stride: u64,
) {
    const LOCAL_NS: u64 = 1 << 60;
    let lanes = mask.count_ones() as u64;
    if lanes == 0 {
        return;
    }
    // Interleaved layout: a full-warp access to one 4-byte slot moves
    // lanes*4 bytes of DRAM traffic.
    let bytes = lanes * 4;
    let segs = bytes.div_ceil(dev.mem_segment).max(1);
    if dev.cc_major >= 2 {
        // L1-cached: first touch per (warp, offset-line) only.
        let line = LOCAL_NS
            + (base_tid as u64) * (1 << 40)
            + (addrs.iter().max().copied().unwrap_or(0) + lane_stride) / dev.mem_segment;
        if state.seen_lines.insert(line) {
            stats.global_bytes += segs * dev.mem_segment;
            stats.global_transactions += segs;
        }
    } else {
        stats.global_bytes += segs * dev.mem_segment;
        stats.global_transactions += segs;
    }
}

/// Byte address each active lane accesses; inactive lanes read 0 (or the
/// absolute offset when there is no base register).
#[inline]
fn lane_addresses(regs: &[Row], op: &Op, mask: u32) -> Row {
    match regs.get(op.a as usize) {
        None => [op.imm as u64; 32],
        Some(base) => {
            let mut out = [0u64; 32];
            for lane in 0..32 {
                if mask & (1 << lane) != 0 {
                    out[lane] = base[lane].wrapping_add(op.imm as u64);
                }
            }
            out
        }
    }
}

#[inline]
fn read_buf(buf: &[u8], addr: u64, space: &'static str) -> Result<u32, SimError> {
    let a = addr as usize;
    if a + 4 > buf.len() || !addr.is_multiple_of(4) {
        return Err(SimError(format!(
            "bad {space} access at {addr:#x} (len {})",
            buf.len()
        )));
    }
    Ok(u32::from_le_bytes(buf[a..a + 4].try_into().unwrap()))
}

#[inline]
fn read_buf64(buf: &[u8], addr: u64) -> Result<u64, SimError> {
    let a = addr as usize;
    if a + 8 > buf.len() {
        return Err(SimError(format!("bad param access at {addr:#x}")));
    }
    Ok(u64::from_le_bytes(buf[a..a + 8].try_into().unwrap()))
}

#[inline]
fn write_buf(buf: &mut [u8], addr: u64, v: u32, space: &'static str) -> Result<(), SimError> {
    let a = addr as usize;
    if a + 4 > buf.len() || !addr.is_multiple_of(4) {
        return Err(SimError(format!(
            "bad {space} access at {addr:#x} (len {})",
            buf.len()
        )));
    }
    buf[a..a + 4].copy_from_slice(&v.to_le_bytes());
    Ok(())
}
