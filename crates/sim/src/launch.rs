//! Kernel launch orchestration: grid iteration, parameter marshalling,
//! functional execution of every block (rayon-parallel, mirroring block
//! independence on real GPUs), block-sampled timing collection, and the
//! SM-level throughput model that turns per-warp scoreboard data into a
//! simulated kernel time.

use crate::device::DeviceConfig;
use crate::interp::{run_block, BlockScratch, Costs, ExecStats, GlobalView, LaunchEnv, SimError};
use crate::occupancy::{occupancy, Limiter, Occupancy};
use crate::plan::LaunchPlan;
use ks_ir::{Module, Space, Ty};
use rayon::prelude::*;
use std::borrow::Borrow;
use std::sync::Mutex;
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

    pub fn grid_blocks(&self) -> u64 {
        self.grid.0 as u64 * self.grid.1 as u64 * self.grid.2 as u64
    }

    pub fn block_threads(&self) -> u32 {
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
    /// getting ready (plan lookup or build, argument marshalling,
    /// occupancy), …
    pub host_plan_us: f64,
    /// … the timing model (scoreboard-timed sample blocks, and the
    /// event-driven round when asked for), …
    pub host_sample_us: f64,
    /// … and the functional execution of every other block.
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
    pub const_mem: Vec<u8>,
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
fn marshal_params(plan: &LaunchPlan, args: &[KArg]) -> Result<Vec<u8>, SimError> {
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
/// stats exactly.
struct TraceMetrics {
    launches: ks_trace::Counter,
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
            dyn_insts: r.counter(ks_trace::names::SIM_DYN_INSTS),
            global_bytes: r.counter(ks_trace::names::SIM_GLOBAL_BYTES),
            divergent_branches: r.counter(ks_trace::names::SIM_DIVERGENT_BRANCHES),
            barriers: r.counter(ks_trace::names::SIM_BARRIERS),
            time_us: r.histogram(ks_trace::names::SIM_TIME_US),
            occupancy: r.gauge(ks_trace::names::SIM_OCCUPANCY),
        }
    })
}

/// Whether `KS_SIM_TRACE` asks for the per-instruction issue trace of
/// warp 0 of the timed blocks. Read once per process.
pub(crate) fn trace_enabled() -> bool {
    static ON: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *ON.get_or_init(|| std::env::var_os("KS_SIM_TRACE").is_some())
}

/// Launch a kernel on the simulated device.
///
/// Decodes the kernel into a throw-away [`LaunchPlan`] first; callers
/// that launch one kernel repeatedly keep the plan and use
/// [`launch_planned`].
pub fn launch(
    state: &mut DeviceState,
    module: &Module,
    kernel: &str,
    dims: LaunchDims,
    args: &[KArg],
    opts: LaunchOptions,
) -> Result<LaunchReport, SimError> {
    launch_keyed(state, module, kernel, dims, args, opts, 0, "")
}

/// [`launch`], with the bound binary identified by its specialization
/// cache key and rendered `-D` command line so an active
/// [`ks_fault::FaultPlan`] can scope launch faults to one exact variant
/// (`Target::Key` / `Target::Define`). Key 0 and an empty `-D` line
/// mean "unidentified" and match only un-keyed selectors.
#[allow(clippy::too_many_arguments)]
pub fn launch_keyed(
    state: &mut DeviceState,
    module: &Module,
    kernel: &str,
    dims: LaunchDims,
    args: &[KArg],
    opts: LaunchOptions,
    key: u64,
    defines: &str,
) -> Result<LaunchReport, SimError> {
    let textures = &module.textures;
    launch_with(
        state,
        textures,
        kernel,
        dims,
        args,
        opts,
        key,
        defines,
        || {
            let f = module
                .function(kernel)
                .ok_or_else(|| SimError(format!("kernel {kernel} not found in module")))?;
            Ok(LaunchPlan::from_function(f))
        },
    )
}

/// [`launch_keyed`] through a plan built earlier (by `ks_core::Binary`,
/// once per kernel). `textures` is the texture-reference table of the
/// module the plan's kernel came from.
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
    let kernel = plan.kernel();
    launch_with(
        state,
        textures,
        kernel,
        dims,
        args,
        opts,
        key,
        defines,
        || Ok(plan),
    )
}

/// The launch proper: span, fault injection, `get_plan`, execution,
/// telemetry. The plan is fetched after the fault check so an injected
/// fault costs nothing, and inside the span and the host-time clock so a
/// throw-away plan's decode is accounted to the launch that paid it.
#[allow(clippy::too_many_arguments)]
fn launch_with<P: Borrow<LaunchPlan>>(
    state: &mut DeviceState,
    textures: &[String],
    kernel: &str,
    dims: LaunchDims,
    args: &[KArg],
    opts: LaunchOptions,
    key: u64,
    defines: &str,
    get_plan: impl FnOnce() -> Result<P, SimError>,
) -> Result<LaunchReport, SimError> {
    let started = Instant::now();
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
    let plan = get_plan()?;
    let report = launch_inner(state, textures, plan.borrow(), dims, args, opts, started)?;
    if let Some(fault) = pending_flip {
        if apply_silent_flip(state, &report, fault.entropy) {
            ks_trace::registry()
                .counter(ks_trace::names::SIM_SILENT_FLIPS)
                .inc();
        }
    }
    let m = trace_metrics();
    m.launches.inc();
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

/// Fewest warp-instructions a launch cuts off as a chunk another thread
/// may take: about a millisecond of one core, against the tens of
/// microseconds a parked pool worker takes to wake. A launch under twice
/// this is one chunk and never leaves the calling thread: no wake-up, no
/// second register file.
const WORKER_GRAIN_WARP_INSTS: u64 = 1 << 15;

/// How many blocks of `warp_insts_per_block` make up the worker grain.
fn blocks_per_worker(warp_insts_per_block: u64) -> usize {
    WORKER_GRAIN_WARP_INSTS.div_ceil(warp_insts_per_block.max(1)) as usize
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

/// Run `blocks` through the parallel iterator in chunks of no fewer than
/// `min_blocks`, each participating thread running all of its blocks on
/// one scratch. Returns the per-block stats in `blocks` order when `TIMING`,
/// nothing otherwise (there are none to keep).
fn run_blocks<const TIMING: bool>(
    env: &LaunchEnv<'_>,
    idle: &IdleScratches,
    blocks: &[u64],
    min_blocks: usize,
) -> Result<Vec<ExecStats>, SimError> {
    let borrow = || Lent::new(env, idle);
    let run = |lent: &mut Lent<'_>, &b: &u64| {
        let scratch = lent.scratch.as_mut().expect("held until drop");
        run_block::<TIMING>(env, block_index(b, env.grid_dim), scratch)
    };
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
) -> Result<LaunchReport, SimError> {
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
        trace: trace_enabled(),
        racecheck: opts.racecheck,
        strict_barriers: opts.strict_barriers,
        costs: Costs::new(dev),
    };
    let planned = Instant::now();

    // --- timing sample: every `stride`-th block, scoreboard-timed ---
    let sample_n = (opts.timing_sample_blocks as u64).min(nblocks).max(1);
    let stride = nblocks / sample_n;
    let sample_ids: Vec<u64> = (0..sample_n).map(|i| i * stride).collect();
    let idle = IdleScratches::default();
    // The first block runs alone; its instruction count says whether the
    // others are worth a worker thread.
    let mut per_block_samples = run_blocks::<true>(&env, &idle, &sample_ids[..1], 1)?;
    let min_blocks = blocks_per_worker(per_block_samples[0].dyn_insts);
    per_block_samples.extend(run_blocks::<true>(
        &env,
        &idle,
        &sample_ids[1..],
        min_blocks,
    )?);
    let mut sample_stats = ExecStats::default();
    for s in &per_block_samples {
        sample_stats.accumulate(s);
    }
    let sampled = Instant::now();
    let mut sample_time = sampled - planned;

    // --- functional execution of the remaining blocks ---
    if opts.functional {
        let is_sample = |b: u64| b.is_multiple_of(stride) && b / stride < sample_n;
        let rest: Vec<u64> = (0..nblocks).filter(|&b| !is_sample(b)).collect();
        let min_blocks = blocks_per_worker(sample_stats.dyn_insts / sample_n);
        run_blocks::<false>(&env, &idle, &rest, min_blocks)?;
    }
    let functional_time = sampled.elapsed();

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

    let us = |d: std::time::Duration| d.as_secs_f64() * 1e6;
    Ok(LaunchReport {
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
    })
}
