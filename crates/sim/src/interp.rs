//! The simulator's domain of the SIMT control core: functional execution
//! with integrated scoreboard timing.
//!
//! [`crate::simt`] walks the warps of a block over a decoded
//! [`LaunchPlan`]; this module says what each op does to a warp's 32-bit
//! and 64-bit register banks (32-lane rows of `u32` and of `u64`, placed
//! by the plan), memory and the timing models. It is compiled twice.
//! With `TIMING = true` it keeps a per-warp register scoreboard — each
//! register carries a ready-time, so independent instructions issue
//! back-to-back (ILP — this is what makes register blocking pay off)
//! while dependent chains stall for the producer's latency — plus the
//! coalescing, bank-conflict and line-reuse models and every `ExecStats`
//! counter. With `TIMING = false` all of that compiles out and only the
//! architectural effects remain: register and memory contents, control
//! flow, and every trap. Each op is matched once per warp-instruction and
//! does its work once per row, not once per lane: pure ops compute straight
//! into their destination row (`Rows`; inactive lanes are computed and
//! blended away) at the width of their operands' bank, a global access
//! checks its active lanes' addresses in one pass and reads or writes them
//! unchecked (`GlobalView::covers`), and integer division by a divisor
//! every active lane shares is a multiplication (`Divisor`). Where a check
//! fails, the lanes are checked one by one, so a trap names the lane the
//! per-lane loop would. A 32-bit result is stored as it is; only pointer
//! offsets, conversions to or from a pointer and address bases read a
//! 32-bit register as 64 bits, and an op whose operands sit in banks its
//! kind does not read (hand-built IR only) runs lane by lane through
//! `ks_ir::eval` (`lanewise`).
//!
//! [`run_block`] compiles each of those twice more: once for the baseline
//! target and, on x86-64, once for x86-64-v3 (AVX2, BMI1/2, FMA, LZCNT,
//! MOVBE, POPCNT, F16C). Which copy runs is decided once per process from
//! what the CPU reports ([`executor_isa`]); both compute the same bits.

// Lockstep lane loops index fixed 32-wide arrays by lane id on purpose;
// iterator adapters would obscure the SIMT structure.
#![allow(clippy::needless_range_loop)]

use crate::device::{DeviceConfig, IssueClass, LatencyClass};
use crate::mem::{bank_conflict_degree, coalesce_transactions, line_of, LineSet, GLOBAL_BASE};
use crate::plan::{
    BinKind, CmpDomain, CvtKind, Form, Kind, LaunchPlan, MadKind, Op, Row32, Row64, UnKind, Unit,
    NONE,
};
use crate::racecheck::ShmemTracker;
use crate::simt::{self, Domain, Warp};
use ks_ir::{eval, BinOp, CmpOp, Space, SpecialReg};
use std::ops::{BitAnd, BitOr, IndexMut, Not};

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
    fn check(&self, addr: u64) -> Result<(), SimError> {
        if addr < GLOBAL_BASE {
            return Err(SimError(format!("global access below heap at {addr:#x}")));
        }
        if (addr - GLOBAL_BASE) as usize + 4 > self.len {
            return Err(SimError(format!(
                "global access out of bounds at {addr:#x}"
            )));
        }
        if !addr.is_multiple_of(4) {
            return Err(SimError(format!("misaligned global access at {addr:#x}")));
        }
        Ok(())
    }

    /// Whether every lane of `mask` may access the word at its address:
    /// one pass that sets a bit per failing lane and no branch, in place
    /// of [`Self::check`] per lane.
    #[inline(always)]
    fn covers(&self, addrs: &Row64, mask: u32) -> bool {
        // The greatest offset a word can start at; below the heap an
        // offset wraps past it.
        let Some(last) = (self.len as u64).checked_sub(4) else {
            return mask == 0;
        };
        let mut bad = 0u32;
        for lane in 0..32 {
            let a = addrs[lane];
            let fails = a.wrapping_sub(GLOBAL_BASE) > last || !a.is_multiple_of(4);
            bad |= u32::from(fails) << lane;
        }
        bad & mask == 0
    }

    /// Check a warp access: once for all lanes of `mask` ([`Self::covers`]),
    /// and when that fails lane by lane, so that the trap names the first
    /// failing lane's address.
    #[inline(always)]
    fn check_lanes(&self, addrs: &Row64, mask: u32) -> Result<(), SimError> {
        if !self.covers(addrs, mask) {
            for lane in lanes(mask) {
                self.check(addrs[lane])?;
            }
        }
        Ok(())
    }

    #[inline]
    fn read_u32(&self, addr: u64) -> Result<u32, SimError> {
        self.check(addr)?;
        // SAFETY: just checked.
        Ok(unsafe { self.read_u32_unchecked(addr) })
    }

    #[inline]
    fn write_u32(&self, addr: u64, v: u32) -> Result<(), SimError> {
        self.check(addr)?;
        // SAFETY: just checked.
        unsafe { self.write_u32_unchecked(addr, v) };
        Ok(())
    }

    /// # Safety
    ///
    /// `addr` must pass [`Self::check`] (alone or through
    /// [`Self::covers`]). Concurrent access requires the kernel itself to
    /// be data-race-free (the GPU contract).
    #[inline(always)]
    unsafe fn read_u32_unchecked(&self, addr: u64) -> u32 {
        // SAFETY: the caller checked that the 4 bytes at `addr` lie in
        // the heap.
        unsafe {
            let p = self.base.add((addr - GLOBAL_BASE) as usize) as *const u32;
            p.read_unaligned()
        }
    }

    /// # Safety
    ///
    /// As for [`Self::read_u32_unchecked`].
    #[inline(always)]
    unsafe fn write_u32_unchecked(&self, addr: u64, v: u32) {
        // SAFETY: as for `read_u32_unchecked`.
        unsafe {
            let p = self.base.add((addr - GLOBAL_BASE) as usize) as *mut u32;
            p.write_unaligned(v);
        }
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
    pub(crate) fn accumulate(&mut self, o: &ExecStats) {
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

/// One warp's registers and scoreboard. Lives in a [`BlockScratch`] and
/// is reset, not rebuilt, for every block.
pub(crate) struct WarpState {
    /// First linear thread id covered by this warp.
    base_tid: u32,
    /// Each lane's `threadIdx` x, y and z: fixed for a launch's blocks.
    tid: [Row32; 3],
    /// The register banks the plan placed its registers in.
    pub(crate) r32: Vec<Row32>,
    pub(crate) r64: Vec<Row64>,
    pub(crate) clock: u64,
    /// Per register number, as the scoreboard counts.
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

impl WarpState {
    /// Back to "about to execute pc 0 of a fresh block". Registers keep
    /// their contents except where the plan says a read can come first.
    fn reset(&mut self, plan: &LaunchPlan) {
        for &r in &plan.entry_live {
            match r.checked_sub(plan.wide_from) {
                Some(i) => self.r64[i as usize] = [0; 32],
                None => self.r32[r as usize] = [0; 32],
            }
        }
        self.clock = 0;
        self.reg_ready.fill(0);
        self.store_ready = [0; 3];
        self.stats = ExecStats::default();
        self.local.fill(0);
        self.last_issue = (0, 0);
    }

    /// Register row `r`'s lanes as 64 bits.
    #[cfg(test)]
    pub(crate) fn reg(&self, plan: &LaunchPlan, r: u32) -> Row64 {
        match r.checked_sub(plan.wide_from) {
            Some(i) => self.r64[i as usize],
            None => self.r32[r as usize].map(|v| widen(v, r >= plan.signed_from)),
        }
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
    pub(crate) warps: Vec<Warp<WarpState>>,
    pub(crate) shared: Vec<u8>,
    pub(crate) state: BlockState,
}

impl BlockScratch {
    /// Scratch for blocks of `env`'s geometry, ready to run one, timed or
    /// not.
    pub(crate) fn new(env: &LaunchEnv<'_>) -> BlockScratch {
        let plan = env.plan;
        let (bx, by, bz) = env.block_dim;
        let warps = Warp::block(bx * by * bz, |base_tid| WarpState {
            base_tid,
            tid: thread_index(base_tid, env.block_dim),
            r32: vec![[0; 32]; plan.wide_from as usize],
            r64: vec![[0; 32]; plan.num_vregs - plan.wide_from as usize],
            clock: 0,
            reg_ready: vec![0; plan.num_vregs],
            store_ready: [0; 3],
            stats: ExecStats::default(),
            local: vec![0; plan.local_bytes as usize * 32],
            last_issue: (0, 0),
        });
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

    /// The warps, and the simulator's domain over the rest of the block
    /// whose grid index is `block_idx`.
    #[inline(always)]
    pub(crate) fn split<'a, 'e, const TIMING: bool>(
        &'a mut self,
        env: &'a LaunchEnv<'e>,
        block_idx: (u32, u32, u32),
    ) -> (&'a mut [Warp<WarpState>], Block<'a, 'e, TIMING>) {
        let BlockScratch {
            warps,
            shared,
            state,
        } = self;
        let block = Block {
            env,
            block_idx,
            shared,
            state,
        };
        (warps, block)
    }

    /// Make the scratch indistinguishable from a new one, as far as a
    /// block can observe.
    pub(crate) fn reset(&mut self, plan: &LaunchPlan) {
        for w in &mut self.warps {
            w.restart();
            w.state.reset(plan);
        }
        self.shared.fill(0);
        self.state.seen_lines.clear();
        if let Some(tr) = self.state.shmem.as_mut() {
            tr.barrier();
        }
    }
}

/// `threadIdx` of the lanes of the warp whose first thread is `base_tid`:
/// x, y and z rows. (A launch rejects a block whose dimensions multiply
/// to zero before any op runs, so a zero divisor only fills rows no op
/// reads.)
fn thread_index(base_tid: u32, (bx, by, _): (u32, u32, u32)) -> [Row32; 3] {
    let mut t = [[0; 32]; 3];
    for lane in 0..32 {
        let tid = base_tid + lane as u32;
        t[0][lane] = tid.checked_rem(bx).unwrap_or(0);
        t[1][lane] = tid
            .checked_div(bx)
            .and_then(|y| y.checked_rem(by))
            .unwrap_or(0);
        t[2][lane] = tid.checked_div(bx.wrapping_mul(by)).unwrap_or(0);
    }
    t
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

/// Dynamic warp-instructions one block may execute.
const STEP_LIMIT: u64 = 2_000_000_000;

/// Whether this CPU has every feature [`run_block_v3`] is compiled for.
/// Asked once per process.
#[cfg(target_arch = "x86_64")]
fn has_v3() -> bool {
    static HAS: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *HAS.get_or_init(|| {
        is_x86_feature_detected!("avx")
            && is_x86_feature_detected!("avx2")
            && is_x86_feature_detected!("bmi1")
            && is_x86_feature_detected!("bmi2")
            && is_x86_feature_detected!("fma")
            && is_x86_feature_detected!("lzcnt")
            && is_x86_feature_detected!("movbe")
            && is_x86_feature_detected!("popcnt")
            && is_x86_feature_detected!("f16c")
    })
}

#[cfg(not(target_arch = "x86_64"))]
fn has_v3() -> bool {
    false
}

/// Which copy of the block executor this process runs: `"x86-64-v3"` on
/// an x86-64 CPU with every feature of that level, `"portable"` on any
/// other CPU.
pub fn executor_isa() -> &'static str {
    if has_v3() {
        "x86-64-v3"
    } else {
        "portable"
    }
}

/// Execute one thread block to completion on `scratch`. Returns the
/// block's stats — all zero unless `TIMING`.
pub(crate) fn run_block<const TIMING: bool>(
    env: &LaunchEnv<'_>,
    block_idx: (u32, u32, u32),
    scratch: &mut BlockScratch,
) -> Result<ExecStats, SimError> {
    #[cfg(target_arch = "x86_64")]
    if has_v3() {
        // SAFETY: `has_v3()` saw the CPU report every feature that
        // `run_block_v3` is compiled for.
        return unsafe { run_block_v3::<TIMING>(env, block_idx, scratch) };
    }
    run_block_body::<TIMING>(env, block_idx, scratch)
}

/// [`run_block_body`] compiled for x86-64-v3. Features reach only
/// code inlined into this function, hence the `#[inline(always)]` down
/// the executor's call tree. Keep the list equal to [`has_v3`]'s.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx,avx2,bmi1,bmi2,fma,lzcnt,movbe,popcnt,f16c")]
fn run_block_v3<const TIMING: bool>(
    env: &LaunchEnv<'_>,
    block_idx: (u32, u32, u32),
    scratch: &mut BlockScratch,
) -> Result<ExecStats, SimError> {
    run_block_body::<TIMING>(env, block_idx, scratch)
}

/// The block executor proper, inlined into both copies: the portable one
/// in [`run_block`] and [`run_block_v3`].
#[inline(always)]
fn run_block_body<const TIMING: bool>(
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
    let (warps, mut block) = scratch.split::<TIMING>(env, block_idx);
    simt::run_block(env.plan, &mut block, warps, STEP_LIMIT)?;

    let mut total = ExecStats::default();
    if TIMING {
        for w in warps.iter() {
            total.accumulate(&w.state.stats);
        }
    }
    Ok(total)
}

/// The simulator's domain over one block: its launch, its shared memory
/// and its memory models.
pub(crate) struct Block<'a, 'e, const TIMING: bool> {
    env: &'a LaunchEnv<'e>,
    block_idx: (u32, u32, u32),
    shared: &'a mut [u8],
    state: &'a mut BlockState,
}

impl<const TIMING: bool> Domain for Block<'_, '_, TIMING> {
    type Lanes = WarpState;
    type Error = SimError;

    #[inline(always)]
    fn exec(&mut self, w: &mut WarpState, op: &Op, pc: u32, mask: u32) -> Result<(), SimError> {
        exec_op::<TIMING>(
            self.env,
            self.block_idx,
            w,
            op,
            pc,
            mask,
            self.shared,
            self.state,
        )
    }

    /// One loop over [`exec_op`]: the control core matches an op's kind
    /// only where a run ends, so each warp-instruction is dispatched once.
    #[inline(always)]
    fn exec_run(
        &mut self,
        w: &mut WarpState,
        ops: &[Op],
        first_pc: u32,
        mask: u32,
    ) -> Result<(), SimError> {
        let (env, block_idx) = (self.env, self.block_idx);
        for (pc, op) in (first_pc..).zip(ops) {
            // Opaque per op: otherwise every mask-derived value of every
            // row kernel is hoisted to the run's entry and spilled, which
            // costs more than it saves on runs of a few ops.
            let mask = std::hint::black_box(mask);
            exec_op::<TIMING>(env, block_idx, w, op, pc, mask, self.shared, self.state)?;
        }
        Ok(())
    }

    #[inline(always)]
    fn taken(&mut self, w: &mut WarpState, op: &Op, _pc: u32, mask: u32) -> Result<u32, SimError> {
        if TIMING {
            w.stats.branches += 1;
            w.stats.dyn_insts += 1;
            let t = w.clock.max(w.reg_ready[op.a as usize]);
            w.last_issue = (t, 1);
            w.clock = t + 1;
        }
        let negate = matches!(op.kind, Kind::CondBr { negate: true });
        let mut taken = 0u32;
        match op.a.checked_sub(self.env.plan.wide_from) {
            Some(i) => {
                let pred = &w.r64[i as usize];
                for lane in 0..32 {
                    taken |= u32::from((pred[lane] != 0) ^ negate) << lane;
                }
            }
            None => {
                let pred = &w.r32[op.a as usize];
                for lane in 0..32 {
                    taken |= u32::from((pred[lane] != 0) ^ negate) << lane;
                }
            }
        }
        taken &= mask;
        if TIMING && taken != 0 && taken != mask {
            w.stats.divergent_branches += 1;
        }
        Ok(taken)
    }

    #[inline(always)]
    fn charge(&mut self, w: &mut WarpState, kind: Kind) {
        if !TIMING {
            return;
        }
        match kind {
            Kind::Bar => {
                w.stats.barriers += 1;
                w.stats.dyn_insts += 1;
                // Pipeline bubble while the warp parks at the barrier.
                w.clock += 8;
                w.stats.issue_cycles += 8;
            }
            Kind::Br => {
                w.stats.branches += 1;
                w.stats.dyn_insts += 1;
                w.last_issue = (w.clock, 1);
                w.clock += 1;
            }
            Kind::Ret => w.stats.isolated_cycles = w.clock,
            _ => {}
        }
    }

    fn divergent_barrier(&mut self, _: &WarpState, _: u32, _: u32) -> SimError {
        SimError("__syncthreads() in divergent control flow".into())
    }

    fn divergent_return(&mut self, _: u32) -> SimError {
        SimError("divergent return (should reconverge first)".into())
    }

    fn partial_barrier(&mut self, exited: usize, waiting: usize) -> Result<(), SimError> {
        if !self.env.strict_barriers {
            return Ok(());
        }
        Err(SimError(format!(
            "divergent barrier: {exited} warp(s) returned while {waiting} \
             warp(s) wait at __syncthreads() — on hardware the block hangs"
        )))
    }

    /// A full barrier orders all shared-memory accesses before it, and
    /// beyond syncing the clocks costs a drain/notify latency on real
    /// hardware (~tens of cycles).
    #[inline(always)]
    fn release(&mut self, warps: &mut [Warp<WarpState>]) {
        if let Some(tr) = self.state.shmem.as_mut() {
            tr.barrier();
        }
        if !TIMING {
            return;
        }
        const BARRIER_COST: u64 = 40;
        let waiting = || warps.iter().filter(|w| w.at_barrier);
        let release_clock = waiting().map(|w| w.state.clock).max().unwrap_or(0);
        for w in warps.iter_mut().filter(|w| w.at_barrier) {
            w.state.clock = w.state.clock.max(release_clock) + BARRIER_COST;
        }
    }

    fn fault(&mut self, why: String) -> SimError {
        SimError(why)
    }

    fn out_of_steps(&mut self) -> SimError {
        SimError("kernel exceeded dynamic instruction limit".into())
    }
}

/// Store-to-load forwarding slot of a space (`WarpState::store_ready`).
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

/// `f` for each lane of `mask`, ascending; a full warp's without walking
/// the mask.
#[inline(always)]
fn for_lanes(mask: u32, mut f: impl FnMut(usize)) {
    if mask == u32::MAX {
        for lane in 0..32 {
            f(lane);
        }
    } else {
        for lane in lanes(mask) {
            f(lane);
        }
    }
}

/// All ones where bit `i` of the `N`-lane mask `m` is set.
const fn select_masks<const N: usize, const M: usize>() -> [[u64; N]; M] {
    let mut t = [[0; N]; M];
    let mut m = 0;
    while m < M {
        let mut i = 0;
        while i < N {
            if m >> i & 1 != 0 {
                t[m][i] = u64::MAX;
            }
            i += 1;
        }
        m += 1;
    }
    t
}

/// Blend masks read from memory, one AVX2 register per entry: four
/// 64-bit lanes, or eight 32-bit ones. (A mask the compiler can see
/// becomes a masked store, which a later load of the row cannot forward
/// from.)
static SELECT64: [[u64; 4]; 16] = select_masks();
static SELECT32: [[u32; 8]; 256] = {
    let wide: [[u64; 8]; 256] = select_masks();
    let mut t = [[0; 8]; 256];
    let mut m = 0;
    while m < 256 {
        let mut i = 0;
        while i < 8 {
            t[m][i] = wide[m][i] as u32;
            i += 1;
        }
        m += 1;
    }
    t
};

/// A lane of one of the two register banks.
trait Lane:
    'static + Copy + Default + BitAnd<Output = Self> + BitOr<Output = Self> + Not<Output = Self>
{
    /// Lanes a row kernel reads before it writes any: four AVX2
    /// registers' worth, a whole row of 32-bit lanes or half a row of
    /// 64-bit ones.
    const N: usize;
    type Chunk: Copy + Default + IndexMut<usize, Output = Self>;
    /// `v` zero-extended to the lane.
    fn zext(v: u32) -> Self;
    /// `v` into the lanes of chunk `k` of `d` whose bit is set in `on`
    /// (the chunk's `N` bits of the mask, not all zero), keeping the
    /// others.
    fn blend(d: &mut [Self; 32], k: usize, v: &Self::Chunk, on: u32);
    /// The bank's registers, its immediates, and the row of its first
    /// register.
    fn bank<'r>(rows: &'r Rows<'_>) -> (&'r [[Self; 32]], &'r [[Self; 32]], u32);
    fn regs_mut<'r>(rows: &'r mut Rows<'_>) -> (&'r mut [[Self; 32]], u32);
}

impl Lane for u32 {
    const N: usize = 32;
    type Chunk = [u32; 32];
    #[inline(always)]
    fn zext(v: u32) -> u32 {
        v
    }
    #[inline(always)]
    fn blend(d: &mut Row32, k: usize, v: &[u32; 32], on: u32) {
        for q in 0..4 {
            let new = &SELECT32[(on >> (8 * q)) as usize & 255];
            for i in 0..8 {
                let l = k * 32 + 8 * q + i;
                d[l] = (v[8 * q + i] & new[i]) | (d[l] & !new[i]);
            }
        }
    }
    #[inline(always)]
    fn bank<'r>(rows: &'r Rows<'_>) -> (&'r [Row32], &'r [Row32], u32) {
        (rows.r32, &rows.plan.imm32_rows, 0)
    }
    #[inline(always)]
    fn regs_mut<'r>(rows: &'r mut Rows<'_>) -> (&'r mut [Row32], u32) {
        (rows.r32, 0)
    }
}

impl Lane for u64 {
    const N: usize = 16;
    type Chunk = [u64; 16];
    #[inline(always)]
    fn zext(v: u32) -> u64 {
        v as u64
    }
    #[inline(always)]
    fn blend(d: &mut Row64, k: usize, v: &[u64; 16], on: u32) {
        for q in 0..4 {
            let new = &SELECT64[(on >> (4 * q)) as usize & 15];
            for i in 0..4 {
                let l = k * 16 + 4 * q + i;
                d[l] = (v[4 * q + i] & new[i]) | (d[l] & !new[i]);
            }
        }
    }
    #[inline(always)]
    fn bank<'r>(rows: &'r Rows<'_>) -> (&'r [Row64], &'r [Row64], u32) {
        (rows.r64, &rows.plan.imm_rows, rows.plan.wide_from)
    }
    #[inline(always)]
    fn regs_mut<'r>(rows: &'r mut Rows<'_>) -> (&'r mut [Row64], u32) {
        let base = rows.plan.wide_from;
        (rows.r64, base)
    }
}

/// A 32-bit-bank lane as 64 bits: extended the way the register's
/// writers extend it (`signed`: by its sign).
#[inline(always)]
fn widen(v: u32, signed: bool) -> u64 {
    if signed {
        sext32(v)
    } else {
        v as u64
    }
}

#[inline(always)]
fn sext32(v: u32) -> u64 {
    v as i32 as i64 as u64
}

/// An op's view of the warp's two banks. It reads operand rows
/// (registers of either bank, or past them the plan's immediate rows, at
/// either width) and a pure op writes the lanes of `mask` of its
/// destination in place, keeping the others. The destination may be one
/// of the sources: every kernel reads a chunk of lanes from all its
/// sources before it writes that chunk, and lane `l` of a result depends
/// only on lane `l` of the sources.
struct Rows<'a> {
    r32: &'a mut [Row32],
    r64: &'a mut [Row64],
    plan: &'a LaunchPlan,
    /// The destination's row.
    dst: u32,
    mask: u32,
}

impl Rows<'_> {
    /// Row `r` as `T`'s bank holds it: a register of that bank, or an
    /// immediate.
    #[inline(always)]
    fn row<T: Lane>(&self, r: u32) -> &[T; 32] {
        let (regs, imms, first) = T::bank(self);
        match regs.get(r.wrapping_sub(first) as usize) {
            Some(row) => row,
            None => &imms[r as usize - self.plan.num_vregs],
        }
    }

    /// Whether row `r` is a 64-bit register.
    #[inline(always)]
    fn is_wide(&self, r: u32) -> bool {
        (self.plan.wide_from..self.plan.num_vregs as u32).contains(&r)
    }

    /// Lane `lane` of row `r` (0 for none) as 64 bits.
    #[inline(always)]
    fn wide(&self, r: u32, lane: usize) -> u64 {
        if r == NONE {
            0
        } else if r >= self.plan.wide_from {
            self.row::<u64>(r)[lane]
        } else {
            widen(self.row::<u32>(r)[lane], r >= self.plan.signed_from)
        }
    }

    /// The low words of row `r`.
    #[inline(always)]
    fn lows(&self, r: u32) -> Row32 {
        if !self.is_wide(r) {
            *self.row::<u32>(r)
        } else {
            let row = self.row::<u64>(r);
            let mut out = [0; 32];
            for lane in 0..32 {
                out[lane] = row[lane] as u32;
            }
            out
        }
    }

    /// The active lanes of `out` into the destination; in the 32-bit bank,
    /// their low words (the placement guarantees the rest is the
    /// extension).
    #[inline(always)]
    fn put_lanes(&mut self, out: &Row64) {
        let mask = self.mask;
        match self.dst.checked_sub(self.plan.wide_from) {
            Some(i) => {
                let d = &mut self.r64[i as usize];
                for_lanes(mask, |lane| d[lane] = out[lane]);
            }
            None => {
                let d = &mut self.r32[self.dst as usize];
                for_lanes(mask, |lane| d[lane] = out[lane] as u32);
            }
        }
    }

    /// `v` into the active lanes of chunk `k` of the destination. (Plain
    /// loops, not `array::map`: a library function that is not inlined
    /// runs portable code inside the x86-64-v3 copy.)
    #[inline(always)]
    fn put<T: Lane>(&mut self, k: usize, v: T::Chunk) {
        let all = u32::MAX >> (32 - T::N);
        let on = (self.mask >> (k * T::N)) & all;
        let dst = self.dst;
        let (regs, first) = T::regs_mut(self);
        let d = &mut regs[(dst - first) as usize];
        if on == all {
            for i in 0..T::N {
                d[k * T::N + i] = v[i];
            }
        } else if on != 0 {
            T::blend(d, k, &v, on);
        }
    }

    /// `f(lane)` into the active lanes.
    #[inline(always)]
    fn fill<D: Lane>(&mut self, f: impl Fn(usize) -> D) {
        for k in 0..32 / D::N {
            let mut r = D::Chunk::default();
            for i in 0..D::N {
                r[i] = f(k * D::N + i);
            }
            self.put::<D>(k, r);
        }
    }

    #[inline(always)]
    fn map1<X: Lane, D: Lane>(&mut self, a: u32, f: impl Fn(X) -> D) {
        for k in 0..32 / D::N {
            let mut r = D::Chunk::default();
            let x = self.row::<X>(a);
            for i in 0..D::N {
                r[i] = f(x[k * D::N + i]);
            }
            self.put::<D>(k, r);
        }
    }

    /// `f(a, b)` into the active lanes. An immediate `b` (the usual place
    /// of one) is read once, not as a row.
    #[inline(always)]
    fn map2<X: Lane, Y: Lane, D: Lane>(&mut self, a: u32, b: u32, f: impl Fn(X, Y) -> D) {
        if let Some(i) = (b as usize).checked_sub(self.plan.num_vregs) {
            let y = Y::bank(self).1[i][0];
            return self.map1(a, |x| f(x, y));
        }
        for k in 0..32 / D::N {
            let mut r = D::Chunk::default();
            let (x, y) = (self.row::<X>(a), self.row::<Y>(b));
            for i in 0..D::N {
                r[i] = f(x[k * D::N + i], y[k * D::N + i]);
            }
            self.put::<D>(k, r);
        }
    }

    #[inline(always)]
    fn map3<X: Lane, Y: Lane, Z: Lane, D: Lane>(
        &mut self,
        a: u32,
        b: u32,
        c: u32,
        f: impl Fn(X, Y, Z) -> D,
    ) {
        for k in 0..32 / D::N {
            let mut r = D::Chunk::default();
            let (x, y, z) = (self.row::<X>(a), self.row::<Y>(b), self.row::<Z>(c));
            for i in 0..D::N {
                let l = k * D::N + i;
                r[i] = f(x[l], y[l], z[l]);
            }
            self.put::<D>(k, r);
        }
    }
}

/// A nonzero 32-bit divisor and its multiplier `M = ⌊(2⁶⁴ − 1) / d⌋ + 1`
/// (Lemire, Kaser & Kurz, "Faster Remainder by Direct Computation",
/// <https://arxiv.org/abs/1902.01961>): for every 32-bit `n`, `n / d` is
/// the high word of `M · n` and `n % d` the high word of
/// `(M · n mod 2⁶⁴) · d`. For `d = 1`, `M` wraps to 0: the remainder still
/// comes out 0, and the quotient is `n` itself. A signed divisor keeps its
/// magnitude here and its sign in `neg`.
#[derive(Clone, Copy, Debug)]
struct Divisor {
    d: u32,
    m: u64,
    neg: bool,
}

impl Divisor {
    /// `d` as an unsigned divisor; `None` for 0.
    #[inline(always)]
    fn unsigned(d: u32) -> Option<Divisor> {
        (d != 0).then(|| Divisor {
            d,
            m: (u64::MAX / d as u64).wrapping_add(1),
            neg: false,
        })
    }

    /// `d` as a signed divisor; `None` for 0.
    #[inline(always)]
    fn signed(d: i32) -> Option<Divisor> {
        let mut v = Divisor::unsigned(d.unsigned_abs())?;
        v.neg = d < 0;
        Some(v)
    }

    /// `n / d`, unsigned.
    #[inline(always)]
    fn quot(self, n: u32) -> u32 {
        if self.d == 1 {
            n
        } else {
            mul_hi(self.m, n)
        }
    }

    /// `n % d`, unsigned.
    #[inline(always)]
    fn rem(self, n: u32) -> u32 {
        mul_hi(self.m.wrapping_mul(n as u64), self.d)
    }

    /// `n.wrapping_div(d)`, signed: the magnitudes' quotient, negated
    /// when the signs differ (`i32::MIN / -1` wraps to `i32::MIN`).
    #[inline(always)]
    fn squot(self, n: i32) -> i32 {
        let q = self.quot(n.unsigned_abs());
        (if (n < 0) != self.neg {
            q.wrapping_neg()
        } else {
            q
        }) as i32
    }

    /// `n.wrapping_rem(d)`, signed: the magnitudes' remainder with the
    /// dividend's sign.
    #[inline(always)]
    fn srem(self, n: i32) -> i32 {
        let r = self.rem(n.unsigned_abs());
        (if n < 0 { r.wrapping_neg() } else { r }) as i32
    }
}

/// The high word of the 96-bit product `m · n`, from 32 × 32-bit
/// products, which vectorise (a 64 × 64 → 128-bit one does not).
#[inline(always)]
fn mul_hi(m: u64, n: u32) -> u32 {
    let n = n as u64;
    let (lo, hi) = ((m & 0xFFFF_FFFF) * n, (m >> 32) * n);
    ((hi + (lo >> 32)) >> 32) as u32
}

/// 32-bit integer division (`rem`: remainder), `signed` or not, of row `a`
/// by row `b`. A zero divisor in an active lane traps before any lane is
/// written; inactive lanes' divisors are not looked at. When every active
/// lane divides by the same value — a specialized constant, or a
/// warp-uniform register — each quotient is a multiplication
/// ([`Divisor`]); otherwise each active lane divides on its own.
#[inline(always)]
fn div_rows(rows: &mut Rows<'_>, a: u32, b: u32, signed: bool, rem: bool) -> Result<(), SimError> {
    let mask = rows.mask;
    let ys = rows.row::<u32>(b);
    let first = ys[(mask.trailing_zeros() % 32) as usize];
    let (mut zero, mut other) = (0u32, 0u32);
    for lane in 0..32 {
        let y = ys[lane];
        zero |= u32::from(y == 0) << lane;
        other |= u32::from(y != first) << lane;
    }
    if zero & mask != 0 {
        let what = if rem { "remainder" } else { "division" };
        return Err(SimError(format!("{what} by zero")));
    }
    // (`first != 0` holds whenever a lane is active.)
    if other & mask == 0 && first != 0 {
        if signed {
            let d = Divisor::signed(first as i32).expect("checked nonzero");
            if rem {
                rows.map1(a, |x: u32| d.srem(x as i32) as u32);
            } else {
                rows.map1(a, |x: u32| d.squot(x as i32) as u32);
            }
        } else {
            let d = Divisor::unsigned(first).expect("checked nonzero");
            if rem {
                rows.map1(a, |x: u32| d.rem(x));
            } else {
                rows.map1(a, |x: u32| d.quot(x));
            }
        }
        return Ok(());
    }
    let dst = rows.dst as usize;
    for lane in lanes(mask) {
        let (x, y) = (rows.row::<u32>(a)[lane], rows.row::<u32>(b)[lane]);
        rows.r32[dst][lane] = match (signed, rem) {
            (false, false) => x / y,
            (false, true) => x % y,
            (true, false) => (x as i32).wrapping_div(y as i32) as u32,
            (true, true) => (x as i32).wrapping_rem(y as i32) as u32,
        };
    }
    Ok(())
}

#[inline(always)]
fn f32_of(x: u32) -> f32 {
    f32::from_bits(x)
}

/// A 64-bit pointer offset: a value that fits 32 bits is sign-extended, a
/// full 64-bit one passes through (`ks_ir::eval::sext_operand`).
#[inline(always)]
fn sext_operand(v: u64) -> u64 {
    if v <= u32::MAX as u64 {
        sext32(v as u32)
    } else {
        v
    }
}

/// A binary op in its [`Form`]: 32-bit lanes, except pointer arithmetic,
/// whose offset is a 32-bit register sign-extended (`Widen`) or 64 bits
/// (`W64`). A 32-bit result is stored as it is: signed and unsigned
/// kinds differ only where the operation itself does.
#[inline(always)]
fn bin_rows(
    rows: &mut Rows<'_>,
    kind: BinKind,
    form: Form,
    a: u32,
    b: u32,
) -> Result<(), SimError> {
    use BinKind::*;
    let f = f32_of;
    let s = |x: u32| x as i32;
    match kind {
        FAdd => rows.map2(a, b, |x, y| (f(x) + f(y)).to_bits()),
        FSub => rows.map2(a, b, |x, y| (f(x) - f(y)).to_bits()),
        FMul => rows.map2(a, b, |x, y| (f(x) * f(y)).to_bits()),
        FDiv => rows.map2(a, b, |x, y| (f(x) / f(y)).to_bits()),
        FMin => rows.map2(a, b, |x, y| f(x).min(f(y)).to_bits()),
        FMax => rows.map2(a, b, |x, y| f(x).max(f(y)).to_bits()),
        UAdd | SAdd => rows.map2(a, b, |x: u32, y: u32| x.wrapping_add(y)),
        USub | SSub => rows.map2(a, b, |x: u32, y: u32| x.wrapping_sub(y)),
        UMul | SMul => rows.map2(a, b, |x: u32, y: u32| x.wrapping_mul(y)),
        UMul24 | SMul24 => rows.map2(a, b, |x: u32, y: u32| {
            (x & 0xFF_FFFF).wrapping_mul(y & 0xFF_FFFF)
        }),
        UDiv => div_rows(rows, a, b, false, false)?,
        URem => div_rows(rows, a, b, false, true)?,
        SDiv => div_rows(rows, a, b, true, false)?,
        SRem => div_rows(rows, a, b, true, true)?,
        UMin => rows.map2(a, b, |x: u32, y: u32| x.min(y)),
        UMax => rows.map2(a, b, |x: u32, y: u32| x.max(y)),
        SMin => rows.map2(a, b, |x, y| s(x).min(s(y)) as u32),
        SMax => rows.map2(a, b, |x, y| s(x).max(s(y)) as u32),
        UAnd | SAnd => rows.map2(a, b, |x: u32, y: u32| x & y),
        UOr | SOr => rows.map2(a, b, |x: u32, y: u32| x | y),
        UXor | SXor => rows.map2(a, b, |x: u32, y: u32| x ^ y),
        UShl | SShl => rows.map2(a, b, |x: u32, y: u32| x.wrapping_shl(y & 31)),
        UShr => rows.map2(a, b, |x: u32, y: u32| x.wrapping_shr(y & 31)),
        SShr => rows.map2(a, b, |x, y: u32| s(x).wrapping_shr(y & 31) as u32),
        PtrAdd | PtrSub => {
            let sub = kind == PtrSub;
            let add = move |x: u64, y: u64| {
                if sub {
                    x.wrapping_sub(y)
                } else {
                    x.wrapping_add(y)
                }
            };
            if form == Form::Widen {
                rows.map2(a, b, |x: u64, y: u32| add(x, sext32(y)));
            } else {
                rows.map2(a, b, |x: u64, y: u64| add(x, sext_operand(y)));
            }
        }
        PredAnd => rows.map2(a, b, |x: u32, y: u32| u32::from((x != 0) && (y != 0))),
        PredOr => rows.map2(a, b, |x: u32, y: u32| u32::from((x != 0) || (y != 0))),
        PredXor => rows.map2(a, b, |x: u32, y: u32| u32::from((x != 0) ^ (y != 0))),
    }
    Ok(())
}

#[inline(always)]
fn un_rows(rows: &mut Rows<'_>, kind: UnKind, a: u32) {
    let f = f32_of;
    match kind {
        UnKind::FNeg => rows.map1(a, |x| (-f(x)).to_bits()),
        UnKind::FAbs => rows.map1(a, |x| f(x).abs().to_bits()),
        UnKind::FSqrt => rows.map1(a, |x| f(x).sqrt().to_bits()),
        UnKind::FRsqrt => rows.map1(a, |x| (1.0 / f(x).sqrt()).to_bits()),
        UnKind::FFloor => rows.map1(a, |x| f(x).floor().to_bits()),
        UnKind::FNot | UnKind::INot { .. } => rows.map1(a, |x: u32| !x),
        UnKind::PredNot => rows.map1(a, |x: u32| u32::from(x == 0)),
        UnKind::PredZero => rows.fill(|_| 0u32),
        UnKind::INeg { .. } => rows.map1(a, |x: u32| x.wrapping_neg()),
        UnKind::IAbs { .. } => rows.map1(a, |x: u32| (x as i32).wrapping_abs() as u32),
        UnKind::ILow { .. } => rows.map1(a, |x: u32| x),
    }
}

#[inline(always)]
fn cmp_rows<X: Lane, T: PartialOrd>(
    rows: &mut Rows<'_>,
    cmp: CmpOp,
    a: u32,
    b: u32,
    conv: impl Fn(X) -> T,
) {
    match cmp {
        CmpOp::Eq => rows.map2(a, b, |x, y| u32::from(conv(x) == conv(y))),
        CmpOp::Ne => rows.map2(a, b, |x, y| u32::from(conv(x) != conv(y))),
        CmpOp::Lt => rows.map2(a, b, |x, y| u32::from(conv(x) < conv(y))),
        CmpOp::Le => rows.map2(a, b, |x, y| u32::from(conv(x) <= conv(y))),
        CmpOp::Gt => rows.map2(a, b, |x, y| u32::from(conv(x) > conv(y))),
        CmpOp::Ge => rows.map2(a, b, |x, y| u32::from(conv(x) >= conv(y))),
    }
}

/// A conversion in its [`Form`]. To and from a pointer it reads the
/// source's low word and extends it; a 32-bit destination keeps the low
/// word, which is the source's.
#[inline(always)]
fn cvt_rows(rows: &mut Rows<'_>, kind: CvtKind, form: Form, a: u32) {
    let f = f32_of;
    match (kind, form) {
        (CvtKind::SToF, _) => rows.map1(a, |x: u32| (x as i32 as f32).to_bits()),
        (CvtKind::UToF, _) => rows.map1(a, |x: u32| (x as f32).to_bits()),
        (CvtKind::FToS, _) => rows.map1(a, |x| f(x) as i32 as u32),
        (CvtKind::FToU, _) => rows.map1(a, |x| f(x) as u32),
        (_, Form::W32) => rows.map1(a, |x: u32| x),
        (_, Form::Narrow) => rows.map1(a, |x: u64| x as u32),
        (CvtKind::Sext, Form::Widen) => rows.map1(a, sext32),
        (_, Form::Widen) => rows.map1(a, |x: u32| x as u64),
        (CvtKind::Sext, _) => rows.map1(a, |x: u64| sext32(x as u32)),
        (CvtKind::Zext, _) => rows.map1(a, |x: u64| x as u32 as u64),
        (CvtKind::Copy, _) => rows.map1(a, |x: u64| x),
    }
}

/// A special register into a destination of either bank; `tid` is the
/// warp's `threadIdx` rows.
#[inline(always)]
fn special_rows<D: Lane>(
    rows: &mut Rows<'_>,
    env: &LaunchEnv<'_>,
    reg: SpecialReg,
    block_idx: (u32, u32, u32),
    tid: &[Row32; 3],
) {
    let (bxd, byd, bzd) = env.block_dim;
    let (gx, gy, gz) = env.grid_dim;
    let (cx, cy, cz) = block_idx;
    let z = D::zext;
    match reg {
        SpecialReg::TidX => rows.fill(|l| z(tid[0][l])),
        SpecialReg::TidY => rows.fill(|l| z(tid[1][l])),
        SpecialReg::TidZ => rows.fill(|l| z(tid[2][l])),
        SpecialReg::CtaIdX => rows.fill(|_| z(cx)),
        SpecialReg::CtaIdY => rows.fill(|_| z(cy)),
        SpecialReg::CtaIdZ => rows.fill(|_| z(cz)),
        SpecialReg::NtidX => rows.fill(|_| z(bxd)),
        SpecialReg::NtidY => rows.fill(|_| z(byd)),
        SpecialReg::NtidZ => rows.fill(|_| z(bzd)),
        SpecialReg::NctaIdX => rows.fill(|_| z(gx)),
        SpecialReg::NctaIdY => rows.fill(|_| z(gy)),
        SpecialReg::NctaIdZ => rows.fill(|_| z(gz)),
    }
}

/// An op whose operands sit in banks its kind does not read
/// ([`Form::Mixed`]; only hand-built IR places them so): lane by lane
/// through the scalar definition in `ks_ir::eval`, each source widened to
/// its 64-bit bits. A lane that traps leaves every lane unwritten.
#[cold]
#[inline(never)]
fn lanewise(rows: &mut Rows<'_>, op: &Op) -> Result<(), SimError> {
    let kind = op.kind;
    let mut out = [0u64; 32];
    for lane in lanes(rows.mask) {
        let [x, y, z] = [op.a, op.b, op.c].map(|r| rows.wide(r, lane));
        let v = match kind {
            Kind::Mov => Some(x),
            Kind::Selp => Some(if z != 0 { x } else { y }),
            Kind::Bin(k) => {
                let (op, ty) = k.op_ty();
                eval::bin(op, ty, x, y)
            }
            Kind::Un(k) => {
                let (op, ty) = k.op_ty();
                Some(eval::un(op, ty, x))
            }
            Kind::Mad(k) => eval::bin(BinOp::Mul, k.ty(), x, y)
                .and_then(|xy| eval::bin(BinOp::Add, k.ty(), xy, z)),
            Kind::Setp(cmp, domain) => Some(u64::from(eval::cmp(cmp, domain.ty(), x, y))),
            Kind::Cvt(k) => Some(k.tys().and_then(|(d, s)| eval::cvt(d, s, x)).unwrap_or(x)),
            _ => unreachable!("only pure ops decode mixed"),
        };
        out[lane] = v.ok_or_else(|| {
            let rem = matches!(kind, Kind::Bin(BinKind::URem | BinKind::SRem));
            SimError(format!(
                "{} by zero",
                if rem { "remainder" } else { "division" }
            ))
        })?;
    }
    rows.put_lanes(&out);
    Ok(())
}

/// Execute one non-control op for the lanes in `mask`.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn exec_op<const TIMING: bool>(
    env: &LaunchEnv<'_>,
    block_idx: (u32, u32, u32),
    w: &mut WarpState,
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
    // Pure ops write their destination in place; see `Rows`.
    let (a, b, c) = (op.a, op.b, op.c);
    let mut rows = Rows {
        r32: &mut w.r32,
        r64: &mut w.r64,
        plan,
        dst: op.dst,
        mask,
    };
    match op.kind {
        _ if op.form == Form::Mixed => lanewise(&mut rows, op)?,
        Kind::Mov if op.form == Form::W32 => rows.map1(a, |x: u32| x),
        Kind::Mov => rows.map1(a, |x: u64| x),
        Kind::Special(reg) if op.form == Form::W32 => {
            special_rows::<u32>(&mut rows, env, reg, block_idx, &w.tid)
        }
        Kind::Special(reg) => special_rows::<u64>(&mut rows, env, reg, block_idx, &w.tid),
        Kind::Bin(kind) => bin_rows(&mut rows, kind, op.form, a, b)?,
        Kind::Un(kind) => un_rows(&mut rows, kind, a),
        // Multiply, round, add, round: never a fused `mul_add`.
        Kind::Mad(MadKind::F32) => rows.map3(a, b, c, |x, y, z| {
            (f32_of(x) * f32_of(y) + f32_of(z)).to_bits()
        }),
        Kind::Mad(_) => rows.map3(a, b, c, |x: u32, y: u32, z: u32| {
            x.wrapping_mul(y).wrapping_add(z)
        }),
        Kind::Setp(cmp, domain) => match domain {
            CmpDomain::F32 => cmp_rows(&mut rows, cmp, a, b, f32_of),
            CmpDomain::U32 => cmp_rows(&mut rows, cmp, a, b, |x: u32| x),
            CmpDomain::S32 => cmp_rows(&mut rows, cmp, a, b, |x: u32| x as i32),
            CmpDomain::U64 => cmp_rows(&mut rows, cmp, a, b, |x: u64| x),
        },
        Kind::Selp if op.form == Form::W32 => {
            rows.map3(a, b, c, |x: u32, y: u32, p: u32| if p != 0 { x } else { y })
        }
        Kind::Selp => rows.map3(a, b, c, |x: u64, y: u64, p: u32| if p != 0 { x } else { y }),
        Kind::Cvt(kind) => cvt_rows(&mut rows, kind, op.form, a),
        Kind::Ld {
            space: Space::Global,
            sext,
            ..
        } => {
            let addrs = lane_addresses(&rows, a, op.imm);
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
            env.global.check_lanes(&addrs, mask)?;
            // SAFETY: `check_lanes` passed, so every active lane's address
            // is in bounds and aligned.
            let word = |lane: usize| unsafe { env.global.read_u32_unchecked(addrs[lane]) };
            if let Some(i) = op.dst.checked_sub(plan.wide_from) {
                let dst = &mut rows.r64[i as usize];
                for_lanes(mask, |lane| {
                    dst[lane] = if sext {
                        sext32(word(lane))
                    } else {
                        word(lane) as u64
                    }
                });
            } else {
                let dst = &mut rows.r32[op.dst as usize];
                for_lanes(mask, |lane| dst[lane] = word(lane));
            }
        }
        Kind::Ld { space, sext, wide } => {
            // Lane by lane into `out`: a lane that traps leaves the
            // destination unwritten.
            let addrs = lane_addresses(&rows, a, op.imm);
            let ext = |v: u32| if sext { sext32(v) } else { v as u64 };
            let mut out: Row64 = [0; 32];
            match space {
                Space::Global => unreachable!("global loads are matched above"),
                Space::Shared => {
                    if TIMING {
                        let d = bank_conflict_degree(dev, &addrs, mask) as u64;
                        w.stats.shared_accesses += 1;
                        w.stats.bank_conflict_extra += d - 1;
                        issue_extra = d - 1;
                    }
                    for lane in lanes(mask) {
                        if let Some(tr) = state.shmem.as_mut() {
                            if let Some(h) = tr.read(w.base_tid / 32, addrs[lane] & !3, pc) {
                                return Err(SimError(format!("racecheck: {h}")));
                            }
                        }
                        out[lane] = ext(read_buf(shared, addrs[lane], "shared")?);
                    }
                }
                Space::Local => {
                    let lb = plan.local_bytes as u64;
                    for lane in lanes(mask) {
                        let a = local_addr(addrs[lane], lane, lb)?;
                        out[lane] = ext(read_buf(&w.local, a, "local")?);
                    }
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
                        out[lane] = ext(read_buf(env.const_mem, a, "const")?);
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
                            ext(read_buf(env.params, a, "param")?)
                        };
                    }
                }
            }
            rows.put_lanes(&out);
        }
        Kind::St { space } => {
            let addrs = lane_addresses(&rows, a, op.imm);
            // Stores keep the low 32 bits of the register.
            let src = rows.lows(b);
            match space {
                Space::Global => {
                    if TIMING {
                        let t = coalesce_transactions(dev, &addrs, mask) as u64;
                        w.stats.global_stores += 1;
                        w.stats.global_transactions += t;
                        w.stats.global_bytes += t * dev.mem_segment;
                    }
                    if env.global.covers(&addrs, mask) {
                        for_lanes(mask, |lane| {
                            // SAFETY: `covers` holds, so every active
                            // lane's address is in bounds and aligned.
                            unsafe { env.global.write_u32_unchecked(addrs[lane], src[lane]) };
                        });
                        if TIMING && mask != 0 {
                            let (first, last) = (mask.trailing_zeros(), 31 - mask.leading_zeros());
                            if w.stats.first_store_addr == 0 {
                                w.stats.first_store_addr = addrs[first as usize];
                            }
                            w.stats.last_store_addr = addrs[last as usize];
                        }
                    } else {
                        // A lane is out of bounds or misaligned: the lanes
                        // before it store, then it traps.
                        for lane in lanes(mask) {
                            env.global.write_u32(addrs[lane], src[lane])?;
                            if TIMING {
                                if w.stats.first_store_addr == 0 {
                                    w.stats.first_store_addr = addrs[lane];
                                }
                                w.stats.last_store_addr = addrs[lane];
                            }
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
                            if let Some(h) = tr.write(w.base_tid / 32, addrs[lane] & !3, pc).next()
                            {
                                return Err(SimError(format!("racecheck: {h}")));
                            }
                        }
                        write_buf(shared, addrs[lane], src[lane], "shared")?;
                    }
                }
                Space::Local => {
                    let lb = plan.local_bytes as u64;
                    for lane in lanes(mask) {
                        let a = local_addr(addrs[lane], lane, lb)?;
                        write_buf(&mut w.local, a, src[lane], "local")?;
                    }
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
            let idx = rows.lows(a);
            let mut addrs = [0u64; 32];
            for lane in lanes(mask) {
                let i = idx[lane] as i32;
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
            let mut out: Row64 = [0; 32];
            for lane in lanes(mask) {
                let v = env.global.read_u32(addrs[lane])?;
                out[lane] = if sext { sext32(v) } else { v as u64 };
            }
            rows.put_lanes(&out);
        }
        Kind::Trap => return Err(SimError(plan.traps[op.imm as usize].clone())),
        Kind::Bar | Kind::Br | Kind::CondBr { .. } | Kind::Ret => {
            unreachable!("handled by the control core")
        }
    }

    // ---- timing: charge issue + set destination ready time ----
    if TIMING {
        let issue = env.costs.issue[op.issue as usize] * (1 + issue_extra);
        let t_issue = w.clock;
        w.last_issue = (t_issue, issue);
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
fn fresh_lines(seen: &mut LineSet, dev: &DeviceConfig, addrs: &Row64, mask: u32) -> u64 {
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
    addrs: &Row64,
    mask: u32,
    lane_stride: u64,
) {
    const LOCAL_NS: u64 = 1 << 60;
    let active = mask.count_ones() as u64;
    if active == 0 {
        return;
    }
    // Interleaved layout: a full-warp access to one 4-byte slot moves
    // lanes*4 bytes of DRAM traffic.
    let bytes = active * 4;
    let segs = bytes.div_ceil(dev.mem_segment).max(1);
    if dev.cc_major >= 2 {
        // L1-cached: first touch per (warp, offset-line) only.
        let line = LOCAL_NS
            + (base_tid as u64) * (1 << 40)
            + (lanes(mask).map(|l| addrs[l]).max().unwrap_or(0) + lane_stride) / dev.mem_segment;
        if state.seen_lines.insert(line) {
            stats.global_bytes += segs * dev.mem_segment;
            stats.global_transactions += segs;
        }
    } else {
        stats.global_bytes += segs * dev.mem_segment;
        stats.global_transactions += segs;
    }
}

/// Byte address each lane accesses, active or not: its base register
/// (read as 64 bits, from either bank) plus `off`, or `off` itself when
/// there is no base register. Inactive lanes' addresses are not checked
/// and must not be used.
#[inline(always)]
fn lane_addresses(rows: &Rows<'_>, base: u32, off: i64) -> Row64 {
    let off = off as u64;
    let mut out = [off; 32];
    if base == NONE {
        return out;
    }
    if base >= rows.plan.wide_from {
        let r = rows.row::<u64>(base);
        for lane in 0..32 {
            out[lane] = r[lane].wrapping_add(off);
        }
    } else if base >= rows.plan.signed_from {
        let r = rows.row::<u32>(base);
        for lane in 0..32 {
            out[lane] = sext32(r[lane]).wrapping_add(off);
        }
    } else {
        let r = rows.row::<u32>(base);
        for lane in 0..32 {
            out[lane] = (r[lane] as u64).wrapping_add(off);
        }
    }
    out
}

/// Lane `lane`'s local offset `off` as an address in the warp's local
/// buffer, where each lane owns its own `lane_bytes` window: an offset
/// outside that window is a trap, not a neighbour's word.
#[inline]
fn local_addr(off: u64, lane: usize, lane_bytes: u64) -> Result<u64, SimError> {
    if off.checked_add(4).is_none_or(|end| end > lane_bytes) {
        return Err(bad_access("local", off, lane_bytes as usize));
    }
    Ok(off + lane as u64 * lane_bytes)
}

/// The index range of the `n` bytes at `addr` in a buffer of `len`
/// bytes, or `None` when any of them lies outside it (checked without
/// wrapping).
#[inline]
fn span(len: usize, addr: u64, n: usize) -> Option<std::ops::Range<usize>> {
    let a = usize::try_from(addr).ok()?;
    let end = a.checked_add(n)?;
    (end <= len).then_some(a..end)
}

#[inline]
fn read_buf(buf: &[u8], addr: u64, space: &'static str) -> Result<u32, SimError> {
    match span(buf.len(), addr, 4) {
        Some(r) if addr.is_multiple_of(4) => {
            Ok(u32::from_le_bytes(buf[r].try_into().expect("4-byte span")))
        }
        _ => Err(bad_access(space, addr, buf.len())),
    }
}

#[inline]
fn read_buf64(buf: &[u8], addr: u64) -> Result<u64, SimError> {
    match span(buf.len(), addr, 8) {
        Some(r) => Ok(u64::from_le_bytes(buf[r].try_into().expect("8-byte span"))),
        None => Err(SimError(format!("bad param access at {addr:#x}"))),
    }
}

#[inline]
fn write_buf(buf: &mut [u8], addr: u64, v: u32, space: &'static str) -> Result<(), SimError> {
    match span(buf.len(), addr, 4) {
        Some(r) if addr.is_multiple_of(4) => {
            buf[r].copy_from_slice(&v.to_le_bytes());
            Ok(())
        }
        _ => Err(bad_access(space, addr, buf.len())),
    }
}

#[cold]
fn bad_access(space: &str, addr: u64, len: usize) -> SimError {
    SimError(format!("bad {space} access at {addr:#x} (len {len})"))
}

#[cfg(all(test, target_arch = "x86_64"))]
mod tests;
