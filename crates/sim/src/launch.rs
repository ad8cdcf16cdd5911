//! Kernel launch orchestration: grid iteration, parameter marshalling,
//! functional execution of every block (rayon-parallel, mirroring block
//! independence on real GPUs), block-sampled timing collection, and the
//! SM-level throughput model that turns per-warp scoreboard data into a
//! simulated kernel time.

use crate::device::DeviceConfig;
use crate::interp::{run_block, BlockScratch, Costs, ExecStats, GlobalView, LaunchEnv, SimError};
use crate::memo;
use crate::occupancy::{occupancy, Limiter, Occupancy};
use crate::plan::LaunchPlan;
use ks_ir::{Module, Space, Ty};
use rayon::prelude::*;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A kernel launch argument.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KArg {
    I32(i32),
    U32(u32),
    F32(f32),
    /// Device pointer (from `GlobalMem::alloc`).
    Ptr(u64),
}

/// Grid/block geometry for a launch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaunchDims {
    pub grid: (u32, u32, u32),
    pub block: (u32, u32, u32),
    /// Dynamically allocated shared memory per block, in bytes.
    pub dynamic_shared: u32,
}

impl LaunchDims {
    pub fn linear(grid: u32, block: u32) -> LaunchDims {
        LaunchDims {
            grid: (grid, 1, 1),
            block: (block, 1, 1),
            dynamic_shared: 0,
        }
    }

    pub(crate) fn grid_blocks(&self) -> u64 {
        self.grid.0 as u64 * self.grid.1 as u64 * self.grid.2 as u64
    }

    pub(crate) fn block_threads(&self) -> u32 {
        self.block.0 * self.block.1 * self.block.2
    }
}

/// How a launch executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaunchOptions {
    /// Functionally execute *every* block (writes all outputs). When
    /// false, only the timing sample runs — use for perf sweeps whose
    /// outputs are not inspected.
    pub functional: bool,
    /// Number of blocks to interpret with scoreboard timing (spread over
    /// the grid; block-homogeneous kernels need only a few).
    pub timing_sample_blocks: u32,
    /// Use the event-driven SM scheduler (`ks_sim::event`) for the round
    /// time instead of the analytic assembly — higher fidelity, slower.
    pub event_timing: bool,
    /// Instrument shared memory with per-word access-set tracking between
    /// barriers; cross-warp hazards fail the launch (a dynamic analogue of
    /// the ks-analysis KSA001 racecheck).
    pub racecheck: bool,
    /// Diagnose barriers that only part of the block reaches (some threads
    /// returned, others wait) as errors instead of releasing the waiters.
    pub strict_barriers: bool,
}

impl Default for LaunchOptions {
    fn default() -> Self {
        LaunchOptions {
            functional: true,
            timing_sample_blocks: 8,
            event_timing: false,
            racecheck: false,
            strict_barriers: false,
        }
    }
}

/// Everything the simulator reports about one launch.
#[derive(Debug, Clone)]
pub struct LaunchReport {
    pub kernel: String,
    pub device: String,
    /// Simulated execution time in milliseconds.
    pub time_ms: f64,
    pub cycles: u64,
    pub occupancy: Occupancy,
    pub regs_per_thread: u32,
    pub pred_regs: u32,
    pub shared_per_block: u32,
    pub local_bytes_per_thread: u32,
    pub static_insts: usize,
    /// Aggregated (scaled-to-full-grid) execution statistics.
    pub stats: ExecStats,
    /// What bounded the SM round time.
    pub bound: Bound,
    /// Host wall-clock of this launch, in microseconds, split three ways:
    /// getting ready (fault-plan probe, argument marshalling,
    /// occupancy), …
    pub host_plan_us: f64,
    /// … the timing model (scoreboard-timed sample blocks, and the
    /// event-driven round when asked for) — on a timing-memo hit, the
    /// memo key build and lookup alone, plus any event round, …
    pub host_sample_us: f64,
    /// … and the functional execution of every other block. On a memo
    /// hit the sample blocks run here too, untimed.
    pub host_functional_us: f64,
}

/// The binding resource in the SM timing model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bound {
    Compute,
    Memory,
    Latency,
}

/// The device-side mutable state a launch runs against.
pub struct DeviceState {
    pub dev: DeviceConfig,
    pub global: crate::mem::GlobalMem,
    pub(crate) const_mem: Vec<u8>,
    /// Texture-reference bindings by name (`cudaBindTexture`).
    pub tex_bindings: std::collections::HashMap<String, u64>,
}

impl DeviceState {
    /// A device with the given heap size.
    pub fn new(dev: DeviceConfig, heap_bytes: u64) -> DeviceState {
        let const_bytes = dev.const_bytes as usize;
        DeviceState {
            dev,
            global: crate::mem::GlobalMem::new(heap_bytes),
            const_mem: vec![0; const_bytes],
            tex_bindings: std::collections::HashMap::new(),
        }
    }

    /// Bind a texture reference to a device address (`cudaBindTexture`).
    pub fn bind_texture(&mut self, name: &str, addr: u64) {
        self.tex_bindings.insert(name.to_string(), addr);
    }

    /// Write into a module's constant symbol.
    pub fn set_const(&mut self, m: &Module, name: &str, data: &[u8]) -> Result<(), SimError> {
        let c = m
            .const_decl(name)
            .ok_or_else(|| SimError(format!("no __constant__ named {name}")))?;
        if data.len() as u32 > c.size_bytes {
            return Err(SimError(format!(
                "constant {name} holds {} bytes, got {}",
                c.size_bytes,
                data.len()
            )));
        }
        let off = c.offset as usize;
        self.const_mem[off..off + data.len()].copy_from_slice(data);
        Ok(())
    }
}

/// Serialize launch arguments into the kernel's param space layout.
pub(crate) fn marshal_params(plan: &LaunchPlan, args: &[KArg]) -> Result<Vec<u8>, SimError> {
    if args.len() != plan.params.len() {
        return Err(SimError(format!(
            "kernel {} expects {} arguments, got {}",
            plan.kernel,
            plan.params.len(),
            args.len()
        )));
    }
    let mut buf = vec![0u8; plan.param_bytes as usize];
    for (p, a) in plan.params.iter().zip(args) {
        let off = p.offset as usize;
        match (p.ty, a) {
            (Ty::S32, KArg::I32(v)) => buf[off..off + 4].copy_from_slice(&v.to_le_bytes()),
            (Ty::U32, KArg::U32(v)) => buf[off..off + 4].copy_from_slice(&v.to_le_bytes()),
            (Ty::S32, KArg::U32(v)) => buf[off..off + 4].copy_from_slice(&v.to_le_bytes()),
            (Ty::U32, KArg::I32(v)) => buf[off..off + 4].copy_from_slice(&v.to_le_bytes()),
            (Ty::F32, KArg::F32(v)) => buf[off..off + 4].copy_from_slice(&v.to_le_bytes()),
            (Ty::Ptr(Space::Global), KArg::Ptr(v)) => {
                buf[off..off + 8].copy_from_slice(&v.to_le_bytes())
            }
            (ty, a) => {
                return Err(SimError(format!(
                    "argument {} type mismatch: param is {ty}, arg is {a:?}",
                    p.name
                )))
            }
        }
    }
    Ok(buf)
}

fn block_index(linear: u64, grid: (u32, u32, u32)) -> (u32, u32, u32) {
    let gx = grid.0 as u64;
    let gy = grid.1 as u64;
    (
        (linear % gx) as u32,
        ((linear / gx) % gy) as u32,
        (linear / (gx * gy)) as u32,
    )
}

/// Pre-resolved ks-trace registry handles for launch accounting. The
/// counters mirror the `ExecStats` fields of every successful launch's
/// report, so exported totals can be reconciled against per-launch
/// stats exactly; every successful launch also counts once as a timing
/// memo hit, miss or ineligible launch.
struct TraceMetrics {
    launches: ks_trace::Counter,
    memo_hits: ks_trace::Counter,
    memo_misses: ks_trace::Counter,
    memo_ineligible: ks_trace::Counter,
    dyn_insts: ks_trace::Counter,
    global_bytes: ks_trace::Counter,
    divergent_branches: ks_trace::Counter,
    barriers: ks_trace::Counter,
    time_us: ks_trace::Histogram,
    occupancy: ks_trace::Gauge,
}

fn trace_metrics() -> &'static TraceMetrics {
    static HANDLES: std::sync::OnceLock<TraceMetrics> = std::sync::OnceLock::new();
    HANDLES.get_or_init(|| {
        let r = ks_trace::registry();
        TraceMetrics {
            launches: r.counter(ks_trace::names::SIM_LAUNCHES),
            memo_hits: r.counter(ks_trace::names::SIM_MEMO_HITS),
            memo_misses: r.counter(ks_trace::names::SIM_MEMO_MISSES),
            memo_ineligible: r.counter(ks_trace::names::SIM_MEMO_INELIGIBLE),
            dyn_insts: r.counter(ks_trace::names::SIM_DYN_INSTS),
            global_bytes: r.counter(ks_trace::names::SIM_GLOBAL_BYTES),
            divergent_branches: r.counter(ks_trace::names::SIM_DIVERGENT_BRANCHES),
            barriers: r.counter(ks_trace::names::SIM_BARRIERS),
            time_us: r.histogram(ks_trace::names::SIM_TIME_US),
            occupancy: r.gauge(ks_trace::names::SIM_OCCUPANCY),
        }
    })
}

/// Launch `kernel` of `module` on the simulated device, unidentified to
/// a fault plan. Decodes the kernel into a plan of its own first, so a
/// repeat never hits the timing memo: it serves tests over hand-built
/// IR. A compiled kernel launches its binary's cached plan
/// (`ks_core::Binary::plan`) through [`launch_planned`].
pub fn launch(
    state: &mut DeviceState,
    module: &Module,
    kernel: &str,
    dims: LaunchDims,
    args: &[KArg],
    opts: LaunchOptions,
) -> Result<LaunchReport, SimError> {
    let f = module
        .function(kernel)
        .ok_or_else(|| SimError(format!("kernel {kernel} not found in module")))?;
    let plan = LaunchPlan::from_function(f);
    launch_planned(state, &module.textures, &plan, dims, args, opts, 0, "")
}

/// Launch a decoded kernel on the simulated device: span, fault
/// injection, execution, telemetry. `textures` is the texture-reference
/// table of the module the plan's kernel came from. The bound binary is
/// identified by its specialization cache key and rendered `-D` command
/// line so an active [`ks_fault::FaultPlan`] can scope launch faults to
/// one exact variant (`Target::Key` / `Target::Define`). Key 0 and an
/// empty `-D` line mean "unidentified" and match only un-keyed
/// selectors.
#[allow(clippy::too_many_arguments)]
pub fn launch_planned(
    state: &mut DeviceState,
    textures: &[String],
    plan: &LaunchPlan,
    dims: LaunchDims,
    args: &[KArg],
    opts: LaunchOptions,
    key: u64,
    defines: &str,
) -> Result<LaunchReport, SimError> {
    let started = Instant::now();
    let kernel = plan.kernel.as_str();
    let _span = ks_trace::span_fields("launch", || {
        vec![
            ("kernel".to_string(), kernel.to_string()),
            ("device".to_string(), state.dev.name.clone()),
            ("blocks".to_string(), dims.grid_blocks().to_string()),
        ]
    });
    // Injected device faults fire before any device state is touched,
    // so a faulted launch is always safe to retry. A SilentFlip is the
    // exception: the launch must *succeed* and corrupt an output
    // afterwards, so it is held until the kernel completes.
    let mut pending_flip = None;
    if let Some(plan) = ks_fault::active() {
        if let Some(fault) = plan.check_device_keyed(kernel, key, defines) {
            if fault.kind == ks_fault::FaultKind::SilentFlip {
                pending_flip = Some(fault);
            } else {
                ks_trace::registry()
                    .counter(ks_trace::names::SIM_FAULTS_INJECTED)
                    .inc();
                return Err(SimError(fault.message()));
            }
        }
    }
    let (report, memo) = launch_inner(state, textures, plan, dims, args, opts, started)?;
    if let Some(fault) = pending_flip {
        if apply_silent_flip(state, &report, fault.entropy) {
            ks_trace::registry()
                .counter(ks_trace::names::SIM_SILENT_FLIPS)
                .inc();
        }
    }
    let m = trace_metrics();
    m.launches.inc();
    match memo {
        memo::Outcome::Hit => m.memo_hits.inc(),
        memo::Outcome::Miss => m.memo_misses.inc(),
        memo::Outcome::Ineligible => m.memo_ineligible.inc(),
    }
    m.dyn_insts.add(report.stats.dyn_insts);
    m.global_bytes.add(report.stats.global_bytes);
    m.divergent_branches.add(report.stats.divergent_branches);
    m.barriers.add(report.stats.barriers);
    m.time_us.record((report.time_ms * 1e3) as u64);
    m.occupancy.set(report.occupancy.occupancy);
    Ok(report)
}

/// Apply an injected [`ks_fault::FaultKind::SilentFlip`]: XOR one bit
/// of a word the kernel verifiably stored to, chosen from the fault's
/// deterministic entropy stream. Targeting recorded store addresses —
/// never a guessed extent — guarantees the corruption lands in an
/// *output* buffer, so a witness re-run on the same inputs can expose
/// it; an input-side flip would corrupt the witness identically and be
/// undetectable by construction. Returns whether a bit was flipped
/// (false when the kernel stored nothing; the caller only counts real
/// corruptions). Errors are swallowed: the whole point is that the
/// launch still reports success.
fn apply_silent_flip(state: &mut DeviceState, report: &LaunchReport, entropy: u64) -> bool {
    let first = report.stats.first_store_addr;
    let last = report.stats.last_store_addr;
    if first == 0 {
        return false;
    }
    let addr = if entropy & 1 == 0 { first } else { last };
    let bit = ((entropy >> 1) % 32) as u32;
    match state.global.read_u32(addr) {
        Ok(word) => state.global.write_u32(addr, word ^ (1u32 << bit)).is_ok(),
        Err(_) => false,
    }
}

/// Fewest warp-instructions one call of [`run_blocks`] must hold before
/// it is shared with a pool worker: about a third of a millisecond of one
/// core, against the 10–50 µs a parked worker takes to wake. A call under
/// it is one chunk on the calling thread: no wake-up, no second register
/// file, and a process whose launches all stay under it never starts the
/// pool.
const SHARE_WARP_INSTS: u64 = 1 << 15;

/// Fewest warp-instructions in one chunk of a shared call. Fine chunks
/// let the participants finish together (a worker's chunks run slower
/// than the caller's, and it enters late); the shim's cap of a few chunks
/// per participant keeps their claims cheap.
const CHUNK_WARP_INSTS: u64 = 1 << 12;

/// The fewest blocks in one chunk of a call that runs `blocks` blocks of
/// about `warp_insts_per_block` each: all of them (one chunk) when the
/// call is under [`SHARE_WARP_INSTS`], otherwise [`CHUNK_WARP_INSTS`]'
/// worth. Counts, not clocks, so a launch is always cut the same way.
fn min_chunk_blocks(warp_insts_per_block: u64, blocks: usize) -> usize {
    let per_block = warp_insts_per_block.max(1);
    if per_block.saturating_mul(blocks as u64) < SHARE_WARP_INSTS {
        blocks.max(1)
    } else {
        CHUNK_WARP_INSTS.div_ceil(per_block) as usize
    }
}

/// A launch's block scratches that no worker is using. A worker takes
/// one (building it if there is none) and its [`Lent`] puts it back, so
/// the calling thread — the only worker of a short launch — fills one
/// register file per launch, not one per call to [`run_blocks`].
type IdleScratches = Mutex<Vec<BlockScratch>>;

struct Lent<'a> {
    scratch: Option<BlockScratch>,
    idle: &'a IdleScratches,
}

impl<'a> Lent<'a> {
    fn new(env: &LaunchEnv<'_>, idle: &'a IdleScratches) -> Lent<'a> {
        let spare = idle.lock().expect("workers do not panic").pop();
        Lent {
            scratch: Some(spare.unwrap_or_else(|| BlockScratch::new(env))),
            idle,
        }
    }
}

impl Drop for Lent<'_> {
    fn drop(&mut self) {
        if let (Some(scratch), Ok(mut idle)) = (self.scratch.take(), self.idle.lock()) {
            idle.push(scratch);
        }
    }
}

/// Run `blocks`, of about `warp_insts_per_block` each, through the
/// parallel iterator in chunks cut by [`min_chunk_blocks`], each
/// participating thread running all of its blocks on one scratch. Returns
/// the per-block stats in `blocks` order when `TIMING`, nothing otherwise
/// (there are none to keep).
fn run_blocks<const TIMING: bool>(
    env: &LaunchEnv<'_>,
    idle: &IdleScratches,
    blocks: &[u64],
    warp_insts_per_block: u64,
) -> Result<Vec<ExecStats>, SimError> {
    let borrow = || Lent::new(env, idle);
    let run = |lent: &mut Lent<'_>, &b: &u64| {
        let scratch = lent.scratch.as_mut().expect("held until drop");
        run_block::<TIMING>(env, block_index(b, env.grid_dim), scratch)
    };
    let min_blocks = min_chunk_blocks(warp_insts_per_block, blocks.len());
    let blocks = blocks.par_iter().with_min_len(min_blocks);
    if TIMING {
        blocks.map_init(borrow, run).collect()
    } else {
        blocks.try_for_each_init(borrow, |s, b| run(s, b).map(drop))?;
        Ok(Vec::new())
    }
}

fn launch_inner(
    state: &mut DeviceState,
    textures: &[String],
    plan: &LaunchPlan,
    dims: LaunchDims,
    args: &[KArg],
    opts: LaunchOptions,
    started: Instant,
) -> Result<(LaunchReport, memo::Outcome), SimError> {
    let DeviceState {
        dev,
        global,
        const_mem,
        tex_bindings,
    } = state;
    let dev: &DeviceConfig = dev;
    let params = marshal_params(plan, args)?;
    let shared_per_block = plan.shared_bytes + dims.dynamic_shared;
    let occ = occupancy(
        dev,
        dims.block_threads(),
        plan.gpr_count.max(2), // architectural baseline registers
        shared_per_block,
    );
    if occ.limiter == Limiter::Infeasible {
        return Err(SimError(format!(
            "launch infeasible on {}: {} threads, {} regs/thread, {} B shared",
            dev.name,
            dims.block_threads(),
            plan.gpr_count,
            shared_per_block
        )));
    }
    let nblocks = dims.grid_blocks();
    if nblocks == 0 {
        return Err(SimError("empty grid".into()));
    }

    // Resolve texture bindings in module order (0 = unbound → trap on use).
    let tex_bindings: Vec<u64> = textures
        .iter()
        .map(|name| tex_bindings.get(name).copied().unwrap_or(0))
        .collect();
    let view = GlobalView::new(global.raw_mut());
    let env = LaunchEnv {
        dev,
        plan,
        global: view,
        const_mem,
        params: &params,
        tex_bindings: &tex_bindings,
        block_dim: dims.block,
        grid_dim: dims.grid,
        dynamic_shared: dims.dynamic_shared,
        racecheck: opts.racecheck,
        strict_barriers: opts.strict_barriers,
        costs: Costs::new(dev),
    };
    let planned = Instant::now();

    let memo_key = plan.timing_memo.as_ref().map(|memo| {
        let key = memo::Key::new(
            dev,
            dims,
            opts.timing_sample_blocks,
            &params,
            &tex_bindings,
            &plan.const_reads,
            const_mem,
        );
        (memo, key)
    });

    // --- timing sample: every `stride`-th block, scoreboard-timed ---
    let sample_n = (opts.timing_sample_blocks as u64).min(nblocks).max(1);
    let stride = nblocks / sample_n;
    let sample_ids: Vec<u64> = (0..sample_n).map(|i| i * stride).collect();
    let is_sample = |b: u64| b.is_multiple_of(stride) && b / stride < sample_n;
    let idle = IdleScratches::default();
    let hit = memo_key.as_ref().and_then(|(memo, key)| memo.get(key));
    let is_hit = hit.is_some();
    let per_block_samples: Arc<[ExecStats]> = match hit {
        Some(samples) => samples,
        None => {
            // The first block runs alone; its instruction count says
            // whether the others are worth a worker thread.
            let mut samples = run_blocks::<true>(&env, &idle, &sample_ids[..1], 0)?;
            let per_block = samples[0].dyn_insts;
            samples.extend(run_blocks::<true>(
                &env,
                &idle,
                &sample_ids[1..],
                per_block,
            )?);
            Arc::from(samples)
        }
    };
    let sampled = Instant::now();

    // --- functional execution of the remaining blocks; on a memo hit
    // the sample blocks run here too, untimed and first, as on a miss ---
    let mut blocks = if is_hit {
        sample_ids.clone()
    } else {
        Vec::new()
    };
    if opts.functional {
        blocks.extend((0..nblocks).filter(|&b| !is_sample(b)));
    }
    let sample_insts: u64 = per_block_samples.iter().map(|s| s.dyn_insts).sum();
    run_blocks::<false>(&env, &idle, &blocks, sample_insts / sample_n)?;
    let functional_time = sampled.elapsed();
    let mut sample_time = sampled - planned;
    let mut sample_stats = ExecStats::default();
    for s in per_block_samples.iter() {
        sample_stats.accumulate(s);
    }

    // --- SM-level timing model ---
    // Average per-block figures from the sample.
    let n = per_block_samples.len() as f64;
    let avg_issue = sample_stats.issue_cycles as f64 / n;
    let avg_bytes = sample_stats.global_bytes as f64 / n;
    let avg_isolated = per_block_samples
        .iter()
        .map(|s| s.isolated_cycles)
        .max()
        .unwrap_or(0) as f64;

    // Device-level throughput terms (issue bandwidth and DRAM bandwidth
    // integrate smoothly over the whole grid), plus a latency term: each
    // wave of resident blocks cannot finish faster than one block's
    // critical path, and waves are serialized.
    let concurrent = (occ.blocks_per_sm as f64 * dev.sm_count as f64).max(1.0);
    let waves = (nblocks as f64 / concurrent).ceil().max(1.0);
    let compute_cycles =
        avg_issue * nblocks as f64 / (dev.sm_count as f64 * dev.schedulers_per_sm as f64);
    let mem_cycles =
        avg_bytes * nblocks as f64 / (dev.bytes_per_cycle_per_sm() * dev.sm_count as f64);
    let latency_cycles = avg_isolated * waves;
    let (total_cycles, bound);
    if opts.event_timing {
        // Event-driven round: co-schedule one SM's resident block set.
        // It re-executes blocks against global memory, so it runs on a
        // memo hit too: a hit must leave memory exactly as a miss does.
        let resident = (occ.blocks_per_sm as u64).min(nblocks) as usize;
        let indices: Vec<(u32, u32, u32)> = (0..resident)
            .map(|i| block_index(sample_ids[i % sample_ids.len()], dims.grid))
            .collect();
        let round_started = Instant::now();
        let round = crate::event::run_sm_round(
            dev,
            plan,
            view,
            const_mem,
            &params,
            dims.block,
            dims.grid,
            &indices,
            dims.dynamic_shared,
            &tex_bindings,
        )?;
        sample_time += round_started.elapsed();
        let mem_round = round.stats.global_bytes as f64 / dev.bytes_per_cycle_per_sm();
        let round_cycles = (round.cycles as f64).max(mem_round);
        total_cycles = round_cycles * waves;
        bound = if round_cycles > round.cycles as f64 {
            Bound::Memory
        } else {
            Bound::Latency
        };
    } else {
        total_cycles = compute_cycles.max(mem_cycles).max(latency_cycles);
        bound = if total_cycles == compute_cycles {
            Bound::Compute
        } else if total_cycles == mem_cycles {
            Bound::Memory
        } else {
            Bound::Latency
        };
    }
    let time_ms = total_cycles / (dev.clock_ghz * 1e9) * 1e3;

    // Scale sampled stats to the full grid for reporting.
    let scale = nblocks as f64 / n;
    let mut stats = sample_stats;
    let s = |v: u64| (v as f64 * scale) as u64;
    stats.dyn_insts = s(stats.dyn_insts);
    stats.alu = s(stats.alu);
    stats.mul = s(stats.mul);
    stats.div_sqrt = s(stats.div_sqrt);
    stats.global_loads = s(stats.global_loads);
    stats.global_stores = s(stats.global_stores);
    stats.global_transactions = s(stats.global_transactions);
    stats.global_bytes = s(stats.global_bytes);
    stats.shared_accesses = s(stats.shared_accesses);
    stats.bank_conflict_extra = s(stats.bank_conflict_extra);
    stats.local_accesses = s(stats.local_accesses);
    stats.const_loads = s(stats.const_loads);
    stats.param_loads = s(stats.param_loads);
    stats.branches = s(stats.branches);
    stats.divergent_branches = s(stats.divergent_branches);
    stats.barriers = s(stats.barriers);
    stats.issue_cycles = s(stats.issue_cycles);

    let outcome = match memo_key {
        Some(_) if is_hit => memo::Outcome::Hit,
        Some((memo, key)) => {
            memo.insert(key, per_block_samples);
            memo::Outcome::Miss
        }
        None => memo::Outcome::Ineligible,
    };

    let us = |d: std::time::Duration| d.as_secs_f64() * 1e6;
    let report = LaunchReport {
        kernel: plan.kernel.clone(),
        device: dev.name.clone(),
        time_ms,
        cycles: total_cycles as u64,
        occupancy: occ,
        regs_per_thread: plan.gpr_count.max(2),
        pred_regs: plan.pred_count,
        shared_per_block,
        local_bytes_per_thread: plan.local_bytes,
        static_insts: plan.static_insts,
        stats,
        bound,
        host_plan_us: us(planned - started),
        host_sample_us: us(sample_time),
        host_functional_us: us(functional_time),
    };
    Ok((report, outcome))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether the shim shares a call of `blocks` blocks cut at `min`:
    /// it opens a job only when two chunks of `min` fit.
    fn shared(blocks: usize, min: usize) -> bool {
        blocks / min >= 2
    }

    #[test]
    fn stream_launches_are_shared_in_chunks_of_the_chunk_grain() {
        // (blocks, warp-instructions per block) of one `stream` round:
        // piv_ssd, backproject, window_stats, numerator_tiles; then
        // `churn`'s largest backproject.
        for (blocks, per_block) in [(189, 1214), (108, 1980), (144, 566), (36, 1700), (48, 922)] {
            let min = min_chunk_blocks(per_block, blocks);
            assert!(shared(blocks, min), "{blocks} x {per_block}: {min}");
            assert!(
                min as u64 * per_block >= CHUNK_WARP_INSTS,
                "{blocks} x {per_block}"
            );
        }
    }

    #[test]
    fn calls_under_the_share_threshold_are_one_chunk() {
        // The largest `adapt` and `restart` launches (piv_ssd), a 23 k
        // `churn` backproject, a call just under the threshold, and a
        // degenerate one.
        for (blocks, per_block) in [(4, 3081), (25, 352), (48, 496), (32, 1023), (1, 0)] {
            let min = min_chunk_blocks(per_block, blocks);
            assert!(per_block * (blocks as u64) < SHARE_WARP_INSTS);
            assert!(!shared(blocks, min), "{blocks} x {per_block}: {min}");
            assert!(min >= blocks, "{blocks} x {per_block}: {min}");
        }
        // From the threshold on, a call is shared.
        assert!(shared(32, min_chunk_blocks(1024, 32)));
    }
}
