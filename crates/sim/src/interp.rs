//! The simulator's domain of the SIMT control core: functional execution
//! with integrated scoreboard timing.
//!
//! [`crate::simt`] walks the warps of a block over a decoded
//! [`LaunchPlan`]; this module says what each op does to 32-lane rows of
//! 64-bit values, memory and the timing models. It is compiled twice.
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
//! blended away), a global access checks its active lanes' addresses in
//! one pass and reads or writes them unchecked (`GlobalView::covers`),
//! and integer division by a divisor every active lane shares is a
//! multiplication (`Divisor`). Where a check fails, the lanes are
//! checked one by one, so a trap names the lane the per-lane loop would.
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
    BinKind, CmpDomain, CvtKind, Kind, LaunchPlan, MadKind, Op, Row, UnKind, Unit, NONE,
};
use crate::racecheck::ShmemTracker;
use crate::simt::{self, Domain, Warp};
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
    fn covers(&self, addrs: &Row, mask: u32) -> bool {
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
    fn check_lanes(&self, addrs: &Row, mask: u32) -> Result<(), SimError> {
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

/// One warp's registers and scoreboard. Lives in a [`BlockScratch`] and
/// is reset, not rebuilt, for every block.
pub(crate) struct WarpState {
    /// First linear thread id covered by this warp.
    base_tid: u32,
    pub(crate) regs: Vec<Row>,
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

impl WarpState {
    /// Back to "about to execute pc 0 of a fresh block". Registers keep
    /// their contents except where the plan says a read can come first.
    fn reset(&mut self, plan: &LaunchPlan) {
        for &r in &plan.entry_live {
            self.regs[r as usize] = [0; 32];
        }
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
            regs: vec![[0; 32]; plan.num_vregs],
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
        let pred = &w.regs[op.a as usize];
        let mut taken = 0u32;
        for lane in 0..32 {
            taken |= u32::from((pred[lane] != 0) ^ negate) << lane;
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

/// Lanes a row kernel reads before it writes any: eight 64-bit lanes,
/// two AVX2 registers.
const CHUNK: usize = 8;
type Chunk = [u64; CHUNK];

/// `SELECT[m][i]` is all ones where bit `i` of the four-lane mask `m` is
/// set: blend operands read from memory. (A mask the compiler can see
/// becomes a masked store, which a later load of the row cannot forward
/// from.)
static SELECT: [[u64; 4]; 16] = {
    let mut t = [[0; 4]; 16];
    let mut m = 0;
    while m < 16 {
        let mut i = 0;
        while i < 4 {
            if m >> i & 1 != 0 {
                t[m][i] = u64::MAX;
            }
            i += 1;
        }
        m += 1;
    }
    t
};

/// A pure row op's view of the warp: it reads operand rows (registers,
/// or past them the plan's immediate rows) and writes the lanes of `mask`
/// in its destination register in place, keeping the others. The
/// destination may be one of the sources: every kernel reads a chunk of
/// lanes from all its sources before it writes that chunk, and lane `l`
/// of a result depends only on lane `l` of the sources.
struct Rows<'a> {
    regs: &'a mut [Row],
    imms: &'a [Row],
    dst: usize,
    mask: u32,
}

impl Rows<'_> {
    #[inline(always)]
    fn row(&self, src: u32) -> &Row {
        source_row(self.regs, self.imms, src)
    }

    /// `v` into the active lanes of chunk `k` of the destination. (Plain
    /// loops, not `array::map`: a library function that is not inlined
    /// runs portable code inside the x86-64-v3 copy.)
    #[inline(always)]
    fn put(&mut self, k: usize, v: Chunk) {
        let on = (self.mask >> (k * CHUNK)) & ((1 << CHUNK) - 1);
        let d = &mut self.regs[self.dst];
        if on == (1 << CHUNK) - 1 {
            for i in 0..CHUNK {
                d[k * CHUNK + i] = v[i];
            }
        } else if on != 0 {
            for q in 0..CHUNK / 4 {
                let new = &SELECT[(on >> (4 * q)) as usize & 15];
                for i in 0..4 {
                    let l = k * CHUNK + 4 * q + i;
                    d[l] = (v[4 * q + i] & new[i]) | (d[l] & !new[i]);
                }
            }
        }
    }

    /// `f(lane)` into the active lanes.
    #[inline(always)]
    fn fill(&mut self, f: impl Fn(usize) -> u64) {
        for k in 0..32 / CHUNK {
            let mut r: Chunk = [0; CHUNK];
            for i in 0..CHUNK {
                r[i] = f(k * CHUNK + i);
            }
            self.put(k, r);
        }
    }

    #[inline(always)]
    fn map1(&mut self, a: u32, f: impl Fn(u64) -> u64) {
        for k in 0..32 / CHUNK {
            let mut r: Chunk = [0; CHUNK];
            let x = self.row(a);
            for i in 0..CHUNK {
                r[i] = f(x[k * CHUNK + i]);
            }
            self.put(k, r);
        }
    }

    #[inline(always)]
    fn map2(&mut self, a: u32, b: u32, f: impl Fn(u64, u64) -> u64) {
        for k in 0..32 / CHUNK {
            let mut r: Chunk = [0; CHUNK];
            let (x, y) = (self.row(a), self.row(b));
            for i in 0..CHUNK {
                r[i] = f(x[k * CHUNK + i], y[k * CHUNK + i]);
            }
            self.put(k, r);
        }
    }

    #[inline(always)]
    fn map3(&mut self, a: u32, b: u32, c: u32, f: impl Fn(u64, u64, u64) -> u64) {
        for k in 0..32 / CHUNK {
            let mut r: Chunk = [0; CHUNK];
            let (x, y, z) = (self.row(a), self.row(b), self.row(c));
            for i in 0..CHUNK {
                let l = k * CHUNK + i;
                r[i] = f(x[l], y[l], z[l]);
            }
            self.put(k, r);
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
    let ys = rows.row(b);
    let first = ys[(mask.trailing_zeros() % 32) as usize] as u32;
    let (mut zero, mut other) = (0u32, 0u32);
    for lane in 0..32 {
        let y = ys[lane] as u32;
        zero |= u32::from(y == 0) << lane;
        other |= u32::from(y != first) << lane;
    }
    if zero & mask != 0 {
        let what = if rem { "remainder" } else { "division" };
        return Err(SimError(format!("{what} by zero")));
    }
    let s = |x: u64| x as u32 as i32;
    // (`first != 0` holds whenever a lane is active.)
    if other & mask == 0 && first != 0 {
        if signed {
            let d = Divisor::signed(first as i32).expect("checked nonzero");
            if rem {
                rows.map1(a, |x| sext32(d.srem(s(x)) as u32));
            } else {
                rows.map1(a, |x| sext32(d.squot(s(x)) as u32));
            }
        } else {
            let d = Divisor::unsigned(first).expect("checked nonzero");
            if rem {
                rows.map1(a, |x| d.rem(x as u32) as u64);
            } else {
                rows.map1(a, |x| d.quot(x as u32) as u64);
            }
        }
        return Ok(());
    }
    for lane in lanes(mask) {
        let (x, y) = (rows.row(a)[lane], rows.row(b)[lane]);
        rows.regs[rows.dst][lane] = match (signed, rem) {
            (false, false) => (x as u32 / y as u32) as u64,
            (false, true) => (x as u32 % y as u32) as u64,
            (true, false) => sext32(s(x).wrapping_div(s(y)) as u32),
            (true, true) => sext32(s(x).wrapping_rem(s(y)) as u32),
        };
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

#[inline(always)]
fn bin_rows(rows: &mut Rows<'_>, kind: BinKind, a: u32, b: u32) -> Result<(), SimError> {
    use BinKind::*;
    let u = |x: u64| x as u32;
    let s = |x: u64| x as u32 as i32;
    match kind {
        FAdd => rows.map2(a, b, |x, y| of_f32(f32_of(x) + f32_of(y))),
        FSub => rows.map2(a, b, |x, y| of_f32(f32_of(x) - f32_of(y))),
        FMul => rows.map2(a, b, |x, y| of_f32(f32_of(x) * f32_of(y))),
        FDiv => rows.map2(a, b, |x, y| of_f32(f32_of(x) / f32_of(y))),
        FMin => rows.map2(a, b, |x, y| of_f32(f32_of(x).min(f32_of(y)))),
        FMax => rows.map2(a, b, |x, y| of_f32(f32_of(x).max(f32_of(y)))),
        UAdd => rows.map2(a, b, |x, y| u(x).wrapping_add(u(y)) as u64),
        USub => rows.map2(a, b, |x, y| u(x).wrapping_sub(u(y)) as u64),
        UMul => rows.map2(a, b, |x, y| u(x).wrapping_mul(u(y)) as u64),
        UMul24 => rows.map2(a, b, |x, y| {
            (u(x) & 0xFF_FFFF).wrapping_mul(u(y) & 0xFF_FFFF) as u64
        }),
        UDiv => div_rows(rows, a, b, false, false)?,
        URem => div_rows(rows, a, b, false, true)?,
        UMin => rows.map2(a, b, |x, y| u(x).min(u(y)) as u64),
        UMax => rows.map2(a, b, |x, y| u(x).max(u(y)) as u64),
        UAnd => rows.map2(a, b, |x, y| (u(x) & u(y)) as u64),
        UOr => rows.map2(a, b, |x, y| (u(x) | u(y)) as u64),
        UXor => rows.map2(a, b, |x, y| (u(x) ^ u(y)) as u64),
        UShl => rows.map2(a, b, |x, y| u(x).wrapping_shl(u(y) & 31) as u64),
        UShr => rows.map2(a, b, |x, y| u(x).wrapping_shr(u(y) & 31) as u64),
        SAdd => rows.map2(a, b, |x, y| sext32(u(x).wrapping_add(u(y)))),
        SSub => rows.map2(a, b, |x, y| sext32(u(x).wrapping_sub(u(y)))),
        SMul => rows.map2(a, b, |x, y| sext32(u(x).wrapping_mul(u(y)))),
        SMul24 => rows.map2(a, b, |x, y| {
            sext32((u(x) & 0xFF_FFFF).wrapping_mul(u(y) & 0xFF_FFFF))
        }),
        SDiv => div_rows(rows, a, b, true, false)?,
        SRem => div_rows(rows, a, b, true, true)?,
        SMin => rows.map2(a, b, |x, y| sext32(s(x).min(s(y)) as u32)),
        SMax => rows.map2(a, b, |x, y| sext32(s(x).max(s(y)) as u32)),
        SAnd => rows.map2(a, b, |x, y| sext32(u(x) & u(y))),
        SOr => rows.map2(a, b, |x, y| sext32(u(x) | u(y))),
        SXor => rows.map2(a, b, |x, y| sext32(u(x) ^ u(y))),
        SShl => rows.map2(a, b, |x, y| sext32(u(x).wrapping_shl(u(y) & 31))),
        SShr => rows.map2(a, b, |x, y| sext32(s(x).wrapping_shr(u(y) & 31) as u32)),
        PtrAdd => rows.map2(a, b, |x, y| x.wrapping_add(sext_operand(y))),
        PtrSub => rows.map2(a, b, |x, y| x.wrapping_sub(sext_operand(y))),
        PredAnd => rows.map2(a, b, |x, y| u64::from((x != 0) && (y != 0))),
        PredOr => rows.map2(a, b, |x, y| u64::from((x != 0) || (y != 0))),
        PredXor => rows.map2(a, b, |x, y| u64::from((x != 0) ^ (y != 0))),
    }
    Ok(())
}

#[inline(always)]
fn un_rows(rows: &mut Rows<'_>, kind: UnKind, a: u32) {
    let s = |x: u64| x as u32 as i32;
    match kind {
        UnKind::FNeg => rows.map1(a, |x| of_f32(-f32_of(x))),
        UnKind::FAbs => rows.map1(a, |x| of_f32(f32_of(x).abs())),
        UnKind::FSqrt => rows.map1(a, |x| of_f32(f32_of(x).sqrt())),
        UnKind::FRsqrt => rows.map1(a, |x| of_f32(1.0 / f32_of(x).sqrt())),
        UnKind::FFloor => rows.map1(a, |x| of_f32(f32_of(x).floor())),
        UnKind::FNot => rows.map1(a, |x| !(x as u32) as u64),
        UnKind::PredNot => rows.map1(a, |x| u64::from(x == 0)),
        UnKind::PredZero => rows.fill(|_| 0),
        UnKind::INeg { signed } => rows.map1(a, |x| ext32(s(x).wrapping_neg() as u32, signed)),
        UnKind::INot { signed } => rows.map1(a, |x| ext32(!(x as u32), signed)),
        UnKind::IAbs { signed } => rows.map1(a, |x| ext32(s(x).wrapping_abs() as u32, signed)),
        UnKind::ILow { signed } => rows.map1(a, |x| ext32(x as u32, signed)),
    }
}

#[inline(always)]
fn cmp_rows<T: PartialOrd>(
    rows: &mut Rows<'_>,
    cmp: CmpOp,
    a: u32,
    b: u32,
    conv: impl Fn(u64) -> T,
) {
    match cmp {
        CmpOp::Eq => rows.map2(a, b, |x, y| u64::from(conv(x) == conv(y))),
        CmpOp::Ne => rows.map2(a, b, |x, y| u64::from(conv(x) != conv(y))),
        CmpOp::Lt => rows.map2(a, b, |x, y| u64::from(conv(x) < conv(y))),
        CmpOp::Le => rows.map2(a, b, |x, y| u64::from(conv(x) <= conv(y))),
        CmpOp::Gt => rows.map2(a, b, |x, y| u64::from(conv(x) > conv(y))),
        CmpOp::Ge => rows.map2(a, b, |x, y| u64::from(conv(x) >= conv(y))),
    }
}

#[inline(always)]
fn cvt_rows(rows: &mut Rows<'_>, kind: CvtKind, a: u32) {
    match kind {
        CvtKind::SToF => rows.map1(a, |x| of_f32((x as u32 as i32) as f32)),
        CvtKind::UToF => rows.map1(a, |x| of_f32((x as u32) as f32)),
        CvtKind::FToS => rows.map1(a, |x| sext32((f32_of(x) as i32) as u32)),
        CvtKind::FToU => rows.map1(a, |x| (f32_of(x) as u32) as u64),
        CvtKind::Sext => rows.map1(a, |x| sext32(x as u32)),
        CvtKind::Zext => rows.map1(a, |x| (x as u32) as u64),
        CvtKind::Copy => rows.map1(a, |x| x),
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
    for lane in 0..32 {
        let new = SELECT[(mask >> (lane & !3)) as usize & 15][lane & 3];
        dst[lane] = (out[lane] & new) | (dst[lane] & !new);
    }
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
    // Pure ops write their destination in place; see `Rows`.
    let mut rows = Rows {
        regs: &mut w.regs,
        imms: &plan.imm_rows,
        dst: op.dst as usize,
        mask,
    };
    match op.kind {
        Kind::Mov => rows.map1(op.a, |x| x),
        Kind::Special(reg) => {
            let (bxd, byd, bzd) = env.block_dim;
            let (gx, gy, gz) = env.grid_dim;
            let (cx, cy, cz) = block_idx;
            let base_tid = w.base_tid;
            let tid = |lane: usize| base_tid + lane as u32;
            match reg {
                SpecialReg::TidX => rows.fill(|l| (tid(l) % bxd) as u64),
                SpecialReg::TidY => rows.fill(|l| ((tid(l) / bxd) % byd) as u64),
                SpecialReg::TidZ => rows.fill(|l| (tid(l) / (bxd * byd)) as u64),
                SpecialReg::CtaIdX => rows.fill(|_| cx as u64),
                SpecialReg::CtaIdY => rows.fill(|_| cy as u64),
                SpecialReg::CtaIdZ => rows.fill(|_| cz as u64),
                SpecialReg::NtidX => rows.fill(|_| bxd as u64),
                SpecialReg::NtidY => rows.fill(|_| byd as u64),
                SpecialReg::NtidZ => rows.fill(|_| bzd as u64),
                SpecialReg::NctaIdX => rows.fill(|_| gx as u64),
                SpecialReg::NctaIdY => rows.fill(|_| gy as u64),
                SpecialReg::NctaIdZ => rows.fill(|_| gz as u64),
            }
        }
        Kind::Bin(kind) => bin_rows(&mut rows, kind, op.a, op.b)?,
        Kind::Un(kind) => un_rows(&mut rows, kind, op.a),
        // Multiply, round, add, round: never a fused `mul_add`.
        Kind::Mad(kind) => {
            let (a, b, c) = (op.a, op.b, op.c);
            match kind {
                MadKind::F32 => {
                    rows.map3(a, b, c, |x, y, z| of_f32(f32_of(x) * f32_of(y) + f32_of(z)))
                }
                MadKind::U32 => rows.map3(a, b, c, |x, y, z| {
                    (x as u32).wrapping_mul(y as u32).wrapping_add(z as u32) as u64
                }),
                MadKind::S32 => rows.map3(a, b, c, |x, y, z| {
                    sext32((x as u32).wrapping_mul(y as u32).wrapping_add(z as u32))
                }),
            }
        }
        Kind::Setp(cmp, domain) => {
            let (a, b) = (op.a, op.b);
            match domain {
                CmpDomain::F32 => cmp_rows(&mut rows, cmp, a, b, f32_of),
                CmpDomain::U32 => cmp_rows(&mut rows, cmp, a, b, |x| x as u32),
                CmpDomain::S32 => cmp_rows(&mut rows, cmp, a, b, |x| x as u32 as i32),
                CmpDomain::U64 => cmp_rows(&mut rows, cmp, a, b, |x| x),
            }
        }
        Kind::Selp => rows.map3(op.a, op.b, op.c, |x, y, p| if p != 0 { x } else { y }),
        Kind::Cvt(kind) => cvt_rows(&mut rows, kind, op.a),
        Kind::Ld {
            space: Space::Global,
            sext,
            ..
        } => {
            let addrs = lane_addresses(&w.regs, op);
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
            let dst = &mut w.regs[op.dst as usize];
            // SAFETY: `check_lanes` passed, so every active lane's address
            // is in bounds and aligned.
            let word = |lane: usize| unsafe { env.global.read_u32_unchecked(addrs[lane]) };
            if sext {
                for_lanes(mask, |lane| dst[lane] = sext32(word(lane)));
            } else {
                for_lanes(mask, |lane| dst[lane] = word(lane) as u64);
            }
        }
        Kind::Ld { space, sext, wide } => {
            // Lane by lane into `out`: a lane that traps leaves the
            // destination unwritten.
            let addrs = lane_addresses(&w.regs, op);
            let mut out: Row = [0; 32];
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
                        out[lane] = ext32(read_buf(shared, addrs[lane], "shared")?, sext);
                    }
                }
                Space::Local => {
                    let lb = plan.local_bytes as u64;
                    for lane in lanes(mask) {
                        let a = local_addr(addrs[lane], lane, lb)?;
                        out[lane] = ext32(read_buf(&w.local, a, "local")?, sext);
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
            write_row(&mut w.regs[op.dst as usize], mask, &out);
        }
        Kind::St { space } => {
            let addrs = lane_addresses(&w.regs, op);
            // Stores keep the low 32 bits of the register.
            let src = source_row(&w.regs, &plan.imm_rows, op.b);
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
                            unsafe {
                                env.global
                                    .write_u32_unchecked(addrs[lane], src[lane] as u32)
                            };
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
                            env.global.write_u32(addrs[lane], src[lane] as u32)?;
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
                        write_buf(shared, addrs[lane], src[lane] as u32, "shared")?;
                    }
                }
                Space::Local => {
                    let lb = plan.local_bytes as u64;
                    for lane in lanes(mask) {
                        let a = local_addr(addrs[lane], lane, lb)?;
                        write_buf(&mut w.local, a, src[lane] as u32, "local")?;
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
            let idx = source_row(&w.regs, &plan.imm_rows, op.a);
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
            let mut out: Row = [0; 32];
            for lane in lanes(mask) {
                out[lane] = ext32(env.global.read_u32(addrs[lane])?, sext);
            }
            write_row(&mut w.regs[op.dst as usize], mask, &out);
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
/// plus the offset, or the absolute offset when there is no base
/// register. Inactive lanes' addresses are not checked and must not be
/// used.
#[inline(always)]
fn lane_addresses(regs: &[Row], op: &Op) -> Row {
    match regs.get(op.a as usize) {
        None => [op.imm as u64; 32],
        Some(base) => {
            let mut out = [0u64; 32];
            for lane in 0..32 {
                out[lane] = base[lane].wrapping_add(op.imm as u64);
            }
            out
        }
    }
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
