//! # gpu-pf — the GPU Prototyping Framework
//!
//! A Rust reproduction of the dissertation's GPU-PF (§4.4.1): a host-side
//! framework for streaming processing pipelines built around three concept
//! classes —
//!
//! * **parameters** (Table 4.1): memory extents, subsets, schedules,
//!   integers, floats, pointers, triplets, pairs, data types, booleans, and
//!   self-updating steps;
//! * **resources** (Tables 4.2/4.3): modules (compiled with kernel
//!   specialization from bound parameters), kernels, and memory references
//!   (constant, global, host, and moving subset views);
//! * **actions** (Table 4.4): memory copies (direction inferred from the
//!   endpoint memory types), kernel executions, user functions, and file
//!   I/O.
//!
//! A pipeline's lifetime has three phases: **specification** (building the
//! object graph — nothing allocated), **refresh** (recompile/reallocate
//! exactly the resources whose parameters changed), and **execution**
//! (iterating the pipeline; each action fires per its schedule). Log output
//! mirrors Appendix G: refresh reports and per-operation timing.
//!
//! ```
//! use gpu_pf::{Arg, MacroBinding, Pipeline};
//! use std::sync::Arc;
//!
//! const SRC: &str = r#"
//!     #ifndef GAIN
//!     #define GAIN gain
//!     #endif
//!     __global__ void amp(float* x, int gain, int n) {
//!         int i = (int)(blockIdx.x * blockDim.x + threadIdx.x);
//!         if (i < n) { x[i] = x[i] * (float)GAIN; }
//!     }
//! "#;
//!
//! let compiler = Arc::new(ks_core::Compiler::new(ks_sim::DeviceConfig::tesla_c1060()));
//! let mut p = Pipeline::new(compiler, 1 << 20);
//! // specification phase
//! let gain = p.int_param("GAIN", 3);
//! let ext = p.extent_param("x", [64, 1, 1], 4);
//! let host = p.host_memory(ext);
//! let dev = p.global_memory(ext);
//! let m = p.module(SRC, vec![("GAIN", MacroBinding::Param(gain))]);
//! let k = p.kernel(m, "amp");
//! let every = p.schedule_param("every", 1, 0);
//! let (g, b) = (p.triplet_param("g", [1, 1, 1]), p.triplet_param("b", [64, 1, 1]));
//! let n = p.int_param("n", 64);
//! p.copy("h2d", host, dev, every);
//! p.exec("amp", k, g, b, None, vec![Arg::Mem(dev), Arg::Param(gain), Arg::Param(n)], every);
//! p.copy("d2h", dev, host, every);
//! // refresh phase: compiles the specialized module, allocates memory
//! p.refresh().unwrap();
//! p.set_host_f32(host, &[2.0; 64]);
//! // execution phase
//! p.run(1).unwrap();
//! assert_eq!(p.host_f32(host), vec![6.0; 64]);
//! // re-specialize and run again: exactly one recompilation happens
//! p.set_int(gain, 5);
//! p.refresh().unwrap();
//! p.run(1).unwrap();
//! assert_eq!(p.host_f32(host), vec![30.0; 64]);
//! ```

mod integrity;
pub mod log;
pub mod param;
mod select;

pub use integrity::{IntegrityConfig, IntegrityStats, IntegrityViolation, Verdict, ViolationKind};
pub use select::{BoundKey, Degradation, FallbackKind, PromotionStats, RefreshMode, Tier};

use ks_core::{Binary, Compiler, Defines, Fingerprint};
use ks_sim::{
    launch_planned, DeviceState, KArg, LaunchDims, LaunchOptions, LaunchReport, SimError,
};
use param::{ParamValue, StepParam};
use select::{tier_label, Books, Module};
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Per-pipeline registry handles. Unlabeled pipelines publish straight
/// to the global `gpu_pf.*` metrics; labeled ones
/// ([`Pipeline::set_label`]) publish through a
/// `{pipeline=<label>}` scope whose cells roll up exactly into the same
/// globals, so fleet-wide aggregates are unchanged by labeling. The
/// promotion and integrity events are this pipeline's own unregistered
/// leaves under those counters ([`ks_trace::Counter::cell`]): each event
/// is counted once, and [`PromotionStats`] / [`IntegrityStats`] read the
/// leaves back.
struct PfMetrics {
    iterations: ks_trace::Counter,
    refreshes: ks_trace::Counter,
    fallback_generic: ks_trace::Counter,
    fallback_last_good: ks_trace::Counter,
    launch_retries: ks_trace::Counter,
    promotions: ks_trace::Counter,
    promotions_failed: ks_trace::Counter,
    promotions_superseded: ks_trace::Counter,
    /// Ticket spawn → hot-swap latency (µs), the always-on histogram
    /// twin of the `tier_swap` spans.
    promotion_latency_us: ks_trace::Histogram,
    /// Wall time per pipeline iteration (µs) — the windowed-p95 readout
    /// `ks-prof watch` displays per pipeline.
    iteration_us: ks_trace::Histogram,
    integrity_checks: ks_trace::Counter,
    integrity_witness: ks_trace::Counter,
    integrity_violations: ks_trace::Counter,
    integrity_transient: ks_trace::Counter,
    integrity_corrupt: ks_trace::Counter,
    integrity_recovered: ks_trace::Counter,
    integrity_reexecs: ks_trace::Counter,
}

impl PfMetrics {
    fn from_scope(s: &ks_trace::Scope<'static>) -> PfMetrics {
        use ks_trace::names;
        let cell = |name| s.counter(name).cell();
        PfMetrics {
            iterations: s.counter(names::PF_ITERATIONS),
            refreshes: s.counter(names::PF_REFRESHES),
            fallback_generic: s.counter(names::PF_FALLBACK_GENERIC),
            fallback_last_good: s.counter(names::PF_FALLBACK_LAST_GOOD),
            launch_retries: s.counter(names::PF_LAUNCH_RETRIES),
            promotions: cell(names::PF_PROMOTIONS),
            promotions_failed: cell(names::PF_PROMOTIONS_FAILED),
            promotions_superseded: cell(names::PF_PROMOTIONS_SUPERSEDED),
            promotion_latency_us: s.histogram(names::PF_PROMOTION_LATENCY_US),
            iteration_us: s.histogram(names::PF_ITERATION_US),
            integrity_checks: cell(names::PF_INTEGRITY_CHECKS),
            integrity_witness: cell(names::PF_INTEGRITY_WITNESS),
            integrity_violations: cell(names::PF_INTEGRITY_VIOLATIONS),
            integrity_transient: cell(names::PF_INTEGRITY_TRANSIENT),
            integrity_corrupt: cell(names::PF_INTEGRITY_CORRUPT),
            integrity_recovered: cell(names::PF_INTEGRITY_RECOVERED),
            integrity_reexecs: cell(names::PF_INTEGRITY_REEXECS),
        }
    }
}

/// Handle to a parameter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParamId(pub usize);

/// Handle to a resource.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ResId(pub usize);

/// Errors from pipeline refresh or execution.
#[derive(Debug)]
pub enum PfError {
    Compile(ks_core::CompileError),
    Sim(SimError),
    Mem(ks_sim::MemError),
    Spec(String),
    Io(std::io::Error),
    /// A resource/parameter binding resolved to the wrong kind or an
    /// unallocated resource (formerly a panic; the message text is
    /// unchanged). The panicking accessors (`int_value`, `device_addr`,
    /// …) remain as thin wrappers over the `try_*` forms.
    Bind(String),
    /// Launch-path resolution failed: not a kernel resource, module not
    /// compiled, or a value unusable on the launch path.
    Launch(String),
}

impl std::fmt::Display for PfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PfError::Compile(e) => write!(f, "{e}"),
            PfError::Sim(e) => write!(f, "{e}"),
            PfError::Mem(e) => write!(f, "{e}"),
            PfError::Spec(s) => write!(f, "specification error: {s}"),
            PfError::Io(e) => write!(f, "io error: {e}"),
            // Bare text: the panicking wrappers rely on this rendering
            // matching the pre-conversion panic messages exactly.
            PfError::Bind(s) => write!(f, "{s}"),
            PfError::Launch(s) => write!(f, "{s}"),
        }
    }
}

impl std::error::Error for PfError {}

impl From<ks_core::CompileError> for PfError {
    fn from(e: ks_core::CompileError) -> Self {
        PfError::Compile(e)
    }
}

impl From<SimError> for PfError {
    fn from(e: SimError) -> Self {
        PfError::Sim(e)
    }
}

impl From<ks_sim::MemError> for PfError {
    fn from(e: ks_sim::MemError) -> Self {
        PfError::Mem(e)
    }
}

struct ParamSlot {
    name: String,
    value: ParamValue,
    dirty: bool,
}

/// How a module macro binds to a parameter.
#[derive(Debug, Clone)]
pub enum MacroBinding {
    /// The parameter's value rendered as an integer literal.
    Param(ParamId),
    /// A fixed string (escape hatch for type tokens etc.).
    Literal(String),
}

enum Resource {
    Module(Module),
    Kernel {
        module: ResId,
        name: Arc<str>,
    },
    GlobalMem {
        extent: ParamId,
        addr: Option<u64>,
        bytes: u64,
    },
    HostMem {
        extent: ParamId,
        data: Vec<u8>,
    },
    ConstMem {
        module: ResId,
        name: String,
    },
    /// A moving window over another memory reference; the subset parameter
    /// advances each iteration (streaming input frames, §4.4.1).
    Subset {
        of: ResId,
        subset: ParamId,
    },
    /// A texture reference inside a module, bound to a memory reference
    /// (Table 4.2's Texture resource): rebound before every launch, so a
    /// moving subset can stream frames through the texture path.
    Texture {
        module: ResId,
        name: String,
        mem: ResId,
    },
}

/// A kernel-execution argument.
#[derive(Debug, Clone, Copy)]
pub enum Arg {
    /// Scalar from a parameter (Integer/Float/Pointer/Bool).
    Param(ParamId),
    /// Device pointer of a memory resource.
    Mem(ResId),
}

/// One kernel launch as the fault plan and the integrity records see
/// it: the pinned binary with its canonical key, and what it runs on.
#[derive(Clone, Copy)]
struct Launch<'a> {
    bin: &'a Arc<Binary>,
    bound: &'a BoundKey,
    kernel: &'a str,
    dims: LaunchDims,
    kargs: &'a [KArg],
    label: &'a str,
}

type UserFn = Box<dyn FnMut(&mut DeviceState, u64) -> Result<(), PfError> + Send>;

enum Action {
    Copy {
        src: ResId,
        dst: ResId,
        schedule: ParamId,
        label: String,
    },
    Exec {
        kernel: ResId,
        grid: ParamId,
        block: ParamId,
        dynamic_shared: Option<ParamId>,
        args: Vec<Arg>,
        schedule: ParamId,
        label: String,
    },
    User {
        f: UserFn,
        schedule: ParamId,
        label: String,
    },
    FileOut {
        mem: ResId,
        path: PathBuf,
        schedule: ParamId,
        label: String,
    },
    FileIn {
        mem: ResId,
        path: PathBuf,
        schedule: ParamId,
        label: String,
    },
}

/// Result of a §4.4.2-style output validation.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidationReport {
    pub compared: usize,
    pub mismatches: usize,
    pub first_mismatch: Option<usize>,
    pub worst_abs: f32,
    pub worst_rel: f32,
    pub length_mismatch: bool,
}

impl ValidationReport {
    pub fn passed(&self) -> bool {
        self.mismatches == 0 && !self.length_mismatch
    }
}

/// Timing record for one executed operation.
#[derive(Debug, Clone)]
pub struct OpTiming {
    pub iteration: u64,
    pub label: String,
    /// Simulated GPU milliseconds for kernel executions; modeled transfer
    /// time for copies.
    pub sim_ms: f64,
}

/// The pipeline: owns the device, the compiler, and the object graph.
pub struct Pipeline {
    compiler: Arc<Compiler>,
    pub state: DeviceState,
    params: Vec<ParamSlot>,
    resources: Vec<Resource>,
    actions: Vec<Action>,
    iteration: u64,
    refreshed: bool,
    pub launch_options: LaunchOptions,
    /// Launch retry budget for *transient* device faults (per
    /// execution; non-transient simulation traps never retry).
    pub launch_retries: u32,
    log: log::Logger,
    timings: Vec<OpTiming>,
    /// Reports of every kernel execution (most recent last).
    pub reports: Vec<LaunchReport>,
    degradations: Vec<Degradation>,
    refresh_mode: RefreshMode,
    /// Output-integrity checking, off by default ([`Pipeline::set_integrity`]).
    integrity: Option<IntegrityConfig>,
    /// Integrity-checked executions so far — the witness-period clock.
    integrity_seq: u64,
    violations: Vec<IntegrityViolation>,
    /// Pinned golden checksums by exec label ([`Pipeline::expect_checksum`]).
    golden: BTreeMap<String, Fingerprint>,
    /// Most recent observed output checksum by exec label.
    observed_checksums: BTreeMap<String, Fingerprint>,
    /// The metric scope this pipeline publishes through: global when
    /// unlabeled, `{pipeline=<label>}` after [`Pipeline::set_label`].
    scope: ks_trace::Scope<'static>,
    metrics: PfMetrics,
    label: Option<String>,
}

impl Pipeline {
    /// Specification phase begins: nothing is compiled or allocated yet.
    pub fn new(compiler: Arc<Compiler>, heap_bytes: u64) -> Pipeline {
        let dev = compiler.device().clone();
        let scope = ks_trace::registry().scoped(&[]);
        Pipeline {
            compiler,
            state: DeviceState::new(dev, heap_bytes),
            params: Vec::new(),
            resources: Vec::new(),
            actions: Vec::new(),
            iteration: 0,
            refreshed: false,
            launch_options: LaunchOptions::default(),
            launch_retries: 2,
            log: log::Logger::disabled(),
            timings: Vec::new(),
            reports: Vec::new(),
            degradations: Vec::new(),
            refresh_mode: RefreshMode::Blocking,
            integrity: None,
            integrity_seq: 0,
            violations: Vec::new(),
            golden: BTreeMap::new(),
            observed_checksums: BTreeMap::new(),
            metrics: PfMetrics::from_scope(&scope),
            scope,
            label: None,
        }
    }

    /// Tag every metric this pipeline publishes with a
    /// `{pipeline=<label>}` scope. Scoped cells roll up exactly into
    /// the global `gpu_pf.*` aggregates, so labeling changes nothing
    /// for fleet-wide readers; per-pipeline windows and dwell
    /// histograms become separable. Call before `refresh()` — metrics
    /// already published stay on the previous scope, and
    /// [`Pipeline::promotion_stats`] / [`Pipeline::integrity_stats`]
    /// start over.
    pub fn set_label(&mut self, label: &str) {
        self.scope = ks_trace::registry().scoped(&[("pipeline", label)]);
        self.metrics = PfMetrics::from_scope(&self.scope);
        self.label = Some(label.to_string());
    }

    /// The metric label set by [`Pipeline::set_label`], if any.
    pub fn label(&self) -> Option<&str> {
        self.label.as_deref()
    }

    /// The registry name `base` resolves to under this pipeline's
    /// scope (e.g. `gpu_pf.iteration_us{pipeline=p0}`), for readers
    /// that want this pipeline's cells out of a snapshot or window.
    pub fn metric_name(&self, base: &str) -> String {
        ks_trace::scoped_name(base, self.scope.labels())
    }

    /// Cumulative time-in-tier dwell histogram for `tier`, under this
    /// pipeline's scope: how long modules sat on that tier before
    /// transitioning off it. Derived from the same transitions the
    /// `tier_swap` spans mark, but always-on.
    pub fn tier_dwell(&self, tier: Tier) -> ks_trace::HistogramSnapshot {
        self.scope
            .histogram(&ks_trace::names::pf_tier_dwell_us(tier_label(tier)))
            .snapshot()
    }

    /// The resources next to the pipeline's side of a bind, so a module
    /// can be borrowed mutably while it writes the books.
    fn split(&mut self) -> (&mut [Resource], Books<'_>) {
        let books = Books {
            compiler: &self.compiler,
            metrics: &self.metrics,
            scope: &self.scope,
            log: &self.log,
            degradations: &mut self.degradations,
        };
        (&mut self.resources, books)
    }

    fn module_at(&self, i: usize) -> Option<&Module> {
        match &self.resources[i] {
            Resource::Module(m) => Some(m),
            _ => None,
        }
    }

    /// Every graceful degradation recorded by [`Pipeline::refresh`]
    /// (oldest first). Empty when all specialized compiles succeeded.
    pub fn degradations(&self) -> &[Degradation] {
        &self.degradations
    }

    /// Canonical identity of the binary a module currently serves, or
    /// `None` before the first bind (or if `id` is not a module).
    pub fn module_bound_key(&self, id: ResId) -> Option<&BoundKey> {
        Some(&self.module_at(id.0)?.served()?.1)
    }

    /// Select how [`Pipeline::refresh`] produces specialized binaries
    /// (blocking, the default, or tiered).
    pub fn set_refresh_mode(&mut self, mode: RefreshMode) {
        self.refresh_mode = mode;
    }

    pub fn refresh_mode(&self) -> RefreshMode {
        self.refresh_mode
    }

    /// The tier a module resource is currently serving from, or `None`
    /// if `id` is not a module.
    pub fn module_tier(&self, id: ResId) -> Option<Tier> {
        self.module_at(id.0).map(Module::tier)
    }

    /// Per-pipeline promotion accounting; `pending` counts tickets
    /// still in flight right now.
    pub fn promotion_stats(&self) -> PromotionStats {
        let pending = self
            .resources
            .iter()
            .filter(|r| matches!(r, Resource::Module(m) if m.ticket().is_some()))
            .count() as u64;
        PromotionStats {
            promoted: self.metrics.promotions.get(),
            failed: self.metrics.promotions_failed.get(),
            superseded: self.metrics.promotions_superseded.get(),
            pending,
        }
    }

    /// Route Appendix-G-style log output to a writer.
    pub fn set_logger(&mut self, w: Box<dyn std::io::Write + Send>) {
        self.log = log::Logger::new(w);
    }

    /// Route Appendix-G-style log output to a [`ks_trace::Subscriber`],
    /// sharing a sink with trace/metric exports.
    pub fn set_subscriber(&mut self, s: Arc<dyn ks_trace::Subscriber>) {
        self.log = log::Logger::subscriber(s);
    }

    // ---- parameters (Table 4.1) ----

    fn add_param(&mut self, name: &str, value: ParamValue) -> ParamId {
        self.params.push(ParamSlot {
            name: name.to_string(),
            value,
            dirty: true,
        });
        ParamId(self.params.len() - 1)
    }

    pub fn int_param(&mut self, name: &str, v: i64) -> ParamId {
        self.add_param(name, ParamValue::Int(v))
    }

    pub fn float_param(&mut self, name: &str, v: f64) -> ParamId {
        self.add_param(name, ParamValue::Float(v))
    }

    pub fn bool_param(&mut self, name: &str, v: bool) -> ParamId {
        self.add_param(name, ParamValue::Bool(v))
    }

    pub fn pointer_param(&mut self, name: &str, v: u64) -> ParamId {
        self.add_param(name, ParamValue::Ptr(v))
    }

    pub fn triplet_param(&mut self, name: &str, v: [u32; 3]) -> ParamId {
        self.add_param(name, ParamValue::Triplet(v))
    }

    /// Geometry (up to 3D) and element size of a memory reference.
    pub fn extent_param(&mut self, name: &str, dims: [u32; 3], elem_bytes: u32) -> ParamId {
        self.add_param(name, ParamValue::Extent { dims, elem_bytes })
    }

    /// Period between events and delay before the first occurrence.
    pub fn schedule_param(&mut self, name: &str, period: u64, delay: u64) -> ParamId {
        self.add_param(name, ParamValue::Schedule { period, delay })
    }

    /// Subrange of a memory extent with a per-iteration stride (in
    /// elements of the underlying extent).
    pub fn subset_param(
        &mut self,
        name: &str,
        offset_elems: u64,
        len_elems: u64,
        stride_elems: i64,
        reset_period: u64,
    ) -> ParamId {
        self.add_param(
            name,
            ParamValue::Subset {
                offset: offset_elems,
                len: len_elems,
                stride: stride_elems,
                reset_period,
            },
        )
    }

    /// Self-updating parameter iterating through a range with a stride.
    pub fn step_param(&mut self, name: &str, start: i64, stride: i64, end: i64) -> ParamId {
        self.add_param(
            name,
            ParamValue::Step(StepParam {
                current: start,
                start,
                stride,
                end,
            }),
        )
    }

    /// Update an integer parameter (marks dependents dirty; takes effect at
    /// the next refresh).
    /// The compiler backing this pipeline (shared, cache and all).
    pub fn compiler(&self) -> &Compiler {
        &self.compiler
    }

    pub fn set_int(&mut self, id: ParamId, v: i64) {
        let slot = &mut self.params[id.0];
        slot.value = ParamValue::Int(v);
        slot.dirty = true;
        self.refreshed = false;
    }

    pub fn set_triplet(&mut self, id: ParamId, v: [u32; 3]) {
        let slot = &mut self.params[id.0];
        slot.value = ParamValue::Triplet(v);
        slot.dirty = true;
        self.refreshed = false;
    }

    pub fn set_extent(&mut self, id: ParamId, dims: [u32; 3], elem_bytes: u32) {
        let slot = &mut self.params[id.0];
        slot.value = ParamValue::Extent { dims, elem_bytes };
        slot.dirty = true;
        self.refreshed = false;
    }

    /// Integer value of a parameter, or [`PfError::Bind`] if the
    /// parameter is not integer-valued.
    pub fn try_int_value(&self, id: ParamId) -> Result<i64, PfError> {
        match &self.params[id.0].value {
            ParamValue::Int(v) => Ok(*v),
            ParamValue::Step(s) => Ok(s.current),
            ParamValue::Bool(b) => Ok(i64::from(*b)),
            v => Err(PfError::Bind(format!(
                "parameter {} is not an integer: {v:?}",
                self.params[id.0].name
            ))),
        }
    }

    /// Panicking form of [`Pipeline::try_int_value`] (same message).
    pub fn int_value(&self, id: ParamId) -> i64 {
        self.try_int_value(id).unwrap_or_else(|e| panic!("{e}"))
    }

    fn triplet_value(&self, id: ParamId) -> Result<[u32; 3], PfError> {
        match &self.params[id.0].value {
            ParamValue::Triplet(v) => Ok(*v),
            v => Err(PfError::Bind(format!(
                "parameter {} is not a triplet: {v:?}",
                self.params[id.0].name
            ))),
        }
    }

    fn extent_bytes(&self, id: ParamId) -> Result<u64, PfError> {
        match &self.params[id.0].value {
            ParamValue::Extent { dims, elem_bytes } => {
                Ok(dims[0] as u64 * dims[1] as u64 * dims[2] as u64 * *elem_bytes as u64)
            }
            v => Err(PfError::Bind(format!(
                "parameter {} is not an extent: {v:?}",
                self.params[id.0].name
            ))),
        }
    }

    fn schedule_fires(&self, id: ParamId, iter: u64) -> Result<bool, PfError> {
        match &self.params[id.0].value {
            ParamValue::Schedule { period, delay } => {
                Ok(iter >= *delay && (*period > 0) && (iter - delay).is_multiple_of(*period))
            }
            v => Err(PfError::Bind(format!(
                "parameter {} is not a schedule: {v:?}",
                self.params[id.0].name
            ))),
        }
    }

    // ---- resources (Tables 4.2/4.3) ----

    fn add_res(&mut self, r: Resource) -> ResId {
        self.resources.push(r);
        ResId(self.resources.len() - 1)
    }

    /// A CUDA module compiled at refresh time with macro values taken from
    /// the bound parameters — kernel specialization automation.
    pub fn module(&mut self, source: &str, bindings: Vec<(&str, MacroBinding)>) -> ResId {
        self.add_res(Resource::Module(Module::new(source, bindings)))
    }

    pub fn kernel(&mut self, module: ResId, name: &str) -> ResId {
        self.add_res(Resource::Kernel {
            module,
            name: name.into(),
        })
    }

    pub fn global_memory(&mut self, extent: ParamId) -> ResId {
        self.add_res(Resource::GlobalMem {
            extent,
            addr: None,
            bytes: 0,
        })
    }

    pub fn host_memory(&mut self, extent: ParamId) -> ResId {
        self.add_res(Resource::HostMem {
            extent,
            data: Vec::new(),
        })
    }

    pub fn constant_memory(&mut self, module: ResId, name: &str) -> ResId {
        self.add_res(Resource::ConstMem {
            module,
            name: name.to_string(),
        })
    }

    /// A moving window over `of`, positioned by a subset parameter. Usable
    /// anywhere a full memory reference is (Table 4.3).
    pub fn subset(&mut self, of: ResId, subset: ParamId) -> ResId {
        self.add_res(Resource::Subset { of, subset })
    }

    /// A texture reference of `module`, bound to `mem`'s device address
    /// before every kernel execution.
    pub fn texture(&mut self, module: ResId, name: &str, mem: ResId) -> ResId {
        self.add_res(Resource::Texture {
            module,
            name: name.to_string(),
            mem,
        })
    }

    /// Fill a host memory resource (before or between runs), or
    /// [`PfError::Bind`] if `id` is not host memory.
    pub fn try_set_host_data(&mut self, id: ResId, bytes: &[u8]) -> Result<(), PfError> {
        match &mut self.resources[id.0] {
            Resource::HostMem { data, .. } => {
                data.clear();
                data.extend_from_slice(bytes);
                Ok(())
            }
            _ => Err(PfError::Bind("resource is not host memory".to_string())),
        }
    }

    /// Panicking form of [`Pipeline::try_set_host_data`] (same message).
    pub fn set_host_data(&mut self, id: ResId, bytes: &[u8]) {
        self.try_set_host_data(id, bytes)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    pub fn set_host_f32(&mut self, id: ResId, vals: &[f32]) {
        let bytes: Vec<u8> = vals.iter().flat_map(|v| v.to_le_bytes()).collect();
        self.set_host_data(id, &bytes);
    }

    /// Contents of a host memory resource, or [`PfError::Bind`] if `id`
    /// is not host memory.
    pub fn try_host_data(&self, id: ResId) -> Result<&[u8], PfError> {
        match &self.resources[id.0] {
            Resource::HostMem { data, .. } => Ok(data),
            _ => Err(PfError::Bind("resource is not host memory".to_string())),
        }
    }

    /// Panicking form of [`Pipeline::try_host_data`] (same message).
    pub fn host_data(&self, id: ResId) -> &[u8] {
        self.try_host_data(id).unwrap_or_else(|e| panic!("{e}"))
    }

    pub fn host_f32(&self, id: ResId) -> Vec<f32> {
        self.host_data(id)
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
            .collect()
    }

    /// Device address of a global memory resource (after refresh), or
    /// [`PfError::Bind`] if unresolvable.
    pub fn try_device_addr(&self, id: ResId) -> Result<u64, PfError> {
        let unallocated = || PfError::Bind("refresh() first".to_string());
        match &self.resources[id.0] {
            Resource::GlobalMem { addr, .. } => addr.ok_or_else(unallocated),
            Resource::Subset { of, subset } => {
                let (base_addr, elem) = match &self.resources[of.0] {
                    Resource::GlobalMem { addr, extent, .. } => {
                        (addr.ok_or_else(unallocated)?, self.extent_elem(*extent)?)
                    }
                    _ => {
                        return Err(PfError::Bind(
                            "subset of non-global memory has no device address".to_string(),
                        ))
                    }
                };
                match &self.params[subset.0].value {
                    ParamValue::Subset { offset, .. } => Ok(base_addr + offset * elem as u64),
                    _ => Err(PfError::Bind(
                        "subset resource bound to non-subset parameter".to_string(),
                    )),
                }
            }
            _ => Err(PfError::Bind("resource has no device address".to_string())),
        }
    }

    /// Panicking form of [`Pipeline::try_device_addr`] (same messages).
    pub fn device_addr(&self, id: ResId) -> u64 {
        self.try_device_addr(id).unwrap_or_else(|e| panic!("{e}"))
    }

    fn extent_elem(&self, id: ParamId) -> Result<u32, PfError> {
        match &self.params[id.0].value {
            ParamValue::Extent { elem_bytes, .. } => Ok(*elem_bytes),
            _ => Err(PfError::Bind("not an extent".to_string())),
        }
    }

    /// The compiled binary backing a kernel (after refresh), or
    /// [`PfError::Launch`] if the resource isn't a compiled kernel.
    pub fn try_kernel_binary(&self, kernel: ResId) -> Result<&Arc<Binary>, PfError> {
        let Resource::Kernel { module, .. } = &self.resources[kernel.0] else {
            return Err(PfError::Launch("not a kernel resource".to_string()));
        };
        self.module_at(module.0)
            .and_then(Module::binary)
            .ok_or_else(|| PfError::Launch("module not compiled; refresh() first".to_string()))
    }

    /// Panicking form of [`Pipeline::try_kernel_binary`] (same messages).
    pub fn kernel_binary(&self, kernel: ResId) -> &Arc<Binary> {
        self.try_kernel_binary(kernel)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    // ---- actions (Table 4.4) ----

    /// Single copy function; endpoint memory types determine the transfer
    /// direction, like GPU-PF's one-function copy.
    pub fn copy(&mut self, label: &str, src: ResId, dst: ResId, schedule: ParamId) {
        self.actions.push(Action::Copy {
            src,
            dst,
            schedule,
            label: label.to_string(),
        });
    }

    #[allow(clippy::too_many_arguments)]
    pub fn exec(
        &mut self,
        label: &str,
        kernel: ResId,
        grid: ParamId,
        block: ParamId,
        dynamic_shared: Option<ParamId>,
        args: Vec<Arg>,
        schedule: ParamId,
    ) {
        self.actions.push(Action::Exec {
            kernel,
            grid,
            block,
            dynamic_shared,
            args,
            schedule,
            label: label.to_string(),
        });
    }

    pub fn user_fn(
        &mut self,
        label: &str,
        f: impl FnMut(&mut DeviceState, u64) -> Result<(), PfError> + Send + 'static,
        schedule: ParamId,
    ) {
        self.actions.push(Action::User {
            f: Box::new(f),
            schedule,
            label: label.to_string(),
        });
    }

    pub fn file_out(
        &mut self,
        label: &str,
        mem: ResId,
        path: impl Into<PathBuf>,
        schedule: ParamId,
    ) {
        self.actions.push(Action::FileOut {
            mem,
            path: path.into(),
            schedule,
            label: label.to_string(),
        });
    }

    /// Binary data input: read a file into a host or global memory
    /// resource each time the schedule fires (Table 4.4's File I/O).
    pub fn file_in(
        &mut self,
        label: &str,
        path: impl Into<PathBuf>,
        mem: ResId,
        schedule: ParamId,
    ) {
        self.actions.push(Action::FileIn {
            mem,
            path: path.into(),
            schedule,
            label: label.to_string(),
        });
    }

    // ---- refresh phase ----

    /// Recompute every resource affected by parameter changes: recompile
    /// modules whose bound macros changed, (re)allocate memory whose
    /// extents changed. Comprehensive error checking happens here so the
    /// execution phase stays fast (§4.4.1).
    pub fn refresh(&mut self) -> Result<(), PfError> {
        let _span = ks_trace::span("refresh");
        let dirty: BTreeSet<usize> = self
            .params
            .iter()
            .enumerate()
            .filter(|(_, p)| p.dirty)
            .map(|(i, _)| i)
            .collect();
        self.log.line_with(|| {
            format!(
                "=== refresh: {} dirty parameter(s) of {} ===",
                dirty.len(),
                self.params.len()
            )
        });
        for i in 0..self.resources.len() {
            match &self.resources[i] {
                Resource::Module(m) if m.needs_refresh(&dirty) => {
                    let mut want = Defines::new();
                    for (name, b) in &m.bindings {
                        want = match b {
                            MacroBinding::Param(p) => want.def(name, self.render_param(*p)?),
                            MacroBinding::Literal(s) => want.def(name, s),
                        };
                    }
                    let mode = self.refresh_mode;
                    let (resources, mut books) = self.split();
                    if let Resource::Module(m) = &mut resources[i] {
                        m.refresh(&mut books, i, want, mode)?;
                    }
                }
                Resource::GlobalMem { extent, addr, .. } => {
                    let needs = addr.is_none() || dirty.contains(&extent.0);
                    if !needs {
                        continue;
                    }
                    let bytes = self.extent_bytes(*extent)?;
                    let a = self.state.global.alloc(bytes)?;
                    self.log
                        .line_with(|| format!("global[{i}]: allocated {bytes} B at {a:#x}"));
                    if let Resource::GlobalMem { addr, bytes: b, .. } = &mut self.resources[i] {
                        *addr = Some(a);
                        *b = bytes;
                    }
                }
                Resource::HostMem { extent, .. } => {
                    let bytes = self.extent_bytes(*extent)? as usize;
                    if let Resource::HostMem { data, .. } = &mut self.resources[i] {
                        data.resize(bytes, 0);
                    }
                }
                Resource::Texture { module, name, .. } => {
                    // Validate the binding target once the module exists.
                    if let Some(bin) = self.module_at(module.0).and_then(Module::binary) {
                        if bin.module.texture_index(name).is_none() {
                            return Err(PfError::Spec(format!(
                                "module declares no texture named {name}"
                            )));
                        }
                    }
                }
                _ => {}
            }
        }
        for p in &mut self.params {
            p.dirty = false;
        }
        self.log.line_with(|| {
            let store = match self.compiler.store_path() {
                Some(p) => format!(", store {}", p.display()),
                None => String::new(),
            };
            format!(
                "=== refresh complete: cache {}{store} ===",
                self.compiler.cache_stats()
            )
        });
        self.metrics.refreshes.inc();
        self.refreshed = true;
        Ok(())
    }

    /// Apply every resolved promotion ticket (non-blocking): hot-swap
    /// the module's binary on success, or record a degradation and mark
    /// the module [`Tier::Failed`] — the next refresh retries. Returns
    /// the number of modules promoted by this call. Launches pin their
    /// binary `Arc` before executing, so a swap never affects an
    /// in-flight launch — only the next one.
    ///
    /// This, [`Pipeline::refresh`], [`Pipeline::wait_promotions`] and the
    /// end of a [`Pipeline::run`] iteration are the only places a
    /// module's binary changes: a caller that sets launch arguments by
    /// what [`Pipeline::module_tier`] reports can rely on that report
    /// until it calls one of them, and through the first iteration of
    /// the `run` that follows.
    pub fn poll_promotions(&mut self) -> usize {
        let (resources, mut books) = self.split();
        let mut promoted = 0;
        for (i, r) in resources.iter_mut().enumerate() {
            if let Resource::Module(m) = r {
                promoted += usize::from(m.poll(&mut books, i));
            }
        }
        promoted
    }

    /// Block until every in-flight promotion resolves, then apply them
    /// all. Returns the number of modules promoted.
    pub fn wait_promotions(&mut self) -> usize {
        for r in &self.resources {
            if let Resource::Module(m) = r {
                if let Some(ticket) = m.ticket() {
                    let _ = ticket.wait();
                }
            }
        }
        self.poll_promotions()
    }

    /// Render a parameter as a macro value string.
    fn render_param(&self, id: ParamId) -> Result<String, PfError> {
        match &self.params[id.0].value {
            ParamValue::Int(v) => Ok(v.to_string()),
            ParamValue::Bool(b) => Ok(if *b { "1" } else { "0" }.to_string()),
            ParamValue::Float(v) => Ok(format!("{v}f")),
            ParamValue::Ptr(v) => Ok(format!("{v:#x}")),
            ParamValue::Step(s) => Ok(s.current.to_string()),
            ParamValue::Triplet(v) => Ok(v[0].to_string()), // .x by convention
            v => Err(PfError::Bind(format!(
                "parameter {} ({v:?}) cannot be rendered as a macro value",
                self.params[id.0].name
            ))),
        }
    }

    // ---- execution phase ----

    /// Run `iterations` pipeline iterations.
    ///
    /// In [`RefreshMode::Tiered`] each iteration ends by applying the
    /// promotions that have resolved ([`Pipeline::poll_promotions`]),
    /// after its last action and before the self-updating parameters
    /// advance. A module's binary therefore changes only inside
    /// [`Pipeline::refresh`], `poll_promotions`,
    /// [`Pipeline::wait_promotions`] or after the last action of an
    /// iteration — never between the caller's last look at
    /// [`Pipeline::module_tier`] and a launch: `run(1)` launches exactly
    /// the binaries that were bound when it was called.
    pub fn run(&mut self, iterations: u64) -> Result<(), PfError> {
        if !self.refreshed {
            return Err(PfError::Spec("refresh() must run before execution".into()));
        }
        for _ in 0..iterations {
            let iter = self.iteration;
            let _span = ks_trace::span_fields("pipeline-iteration", || {
                vec![("iter".to_string(), iter.to_string())]
            });
            let iter_started = Instant::now();
            self.log
                .line_with(|| format!("--- pipeline iteration {iter} ---"));
            for a in 0..self.actions.len() {
                self.run_action(a, iter)?;
            }
            // Tiered mode: promotions land after an iteration's last
            // action, never before its first. The caller chose this
            // iteration's launch arguments for the binaries it saw
            // bound (`module_tier`); a ticket that resolved since must
            // not swap another binary in under them.
            if self.refresh_mode == RefreshMode::Tiered {
                self.poll_promotions();
            }
            self.metrics.iterations.inc();
            self.metrics
                .iteration_us
                .record_duration_us(iter_started.elapsed());
            // Self-updating parameters advance at the end of the iteration.
            for p in &mut self.params {
                match &mut p.value {
                    ParamValue::Step(s) => s.advance(),
                    ParamValue::Subset {
                        offset,
                        stride,
                        reset_period,
                        ..
                    } => {
                        if *reset_period > 0 && (iter + 1).is_multiple_of(*reset_period) {
                            // Reset to the start of the window cycle.
                            *offset = offset
                                .wrapping_sub((*stride as u64).wrapping_mul(*reset_period - 1));
                        } else {
                            *offset = offset.wrapping_add(*stride as u64);
                        }
                    }
                    _ => {}
                }
            }
            self.iteration += 1;
        }
        Ok(())
    }

    /// §4.4.2 validation: compare a host memory resource against reference
    /// values with an absolute/relative tolerance, reporting mismatches.
    pub fn validate_f32(
        &self,
        mem: ResId,
        reference: &[f32],
        abs_tol: f32,
        rel_tol: f32,
    ) -> ValidationReport {
        let got = self.host_f32(mem);
        let n = got.len().min(reference.len());
        let mut worst_abs = 0.0f32;
        let mut worst_rel = 0.0f32;
        let mut mismatches = 0usize;
        let mut first_mismatch = None;
        for i in 0..n {
            let (g, r) = (got[i], reference[i]);
            let abs = (g - r).abs();
            let rel = abs / r.abs().max(1e-30);
            worst_abs = worst_abs.max(abs);
            worst_rel = worst_rel.max(rel);
            if abs > abs_tol && rel > rel_tol {
                mismatches += 1;
                if first_mismatch.is_none() {
                    first_mismatch = Some(i);
                }
            }
        }
        let report = ValidationReport {
            compared: n,
            mismatches,
            first_mismatch,
            worst_abs,
            worst_rel,
            length_mismatch: got.len() != reference.len(),
        };
        self.log.line_with(|| {
            format!(
                "  [validate] {} elements, {} mismatches (worst abs {:.3e}, rel {:.3e})",
                report.compared, report.mismatches, report.worst_abs, report.worst_rel
            )
        });
        report
    }

    /// Total simulated GPU time accumulated so far (kernels + transfers).
    pub fn total_sim_ms(&self) -> f64 {
        self.timings.iter().map(|t| t.sim_ms).sum()
    }

    pub fn timings(&self) -> &[OpTiming] {
        &self.timings
    }

    pub fn clear_timings(&mut self) {
        self.timings.clear();
        self.reports.clear();
    }

    fn run_action(&mut self, idx: usize, iter: u64) -> Result<(), PfError> {
        // Determine schedule without holding a borrow on the action.
        let (fires, label) = match &self.actions[idx] {
            Action::Copy {
                schedule, label, ..
            }
            | Action::Exec {
                schedule, label, ..
            }
            | Action::User {
                schedule, label, ..
            }
            | Action::FileOut {
                schedule, label, ..
            }
            | Action::FileIn {
                schedule, label, ..
            } => (self.schedule_fires(*schedule, iter)?, label.clone()),
        };
        if !fires {
            return Ok(());
        }
        match &mut self.actions[idx] {
            Action::User { f, .. } => {
                let mut func = std::mem::replace(f, Box::new(|_, _| Ok(())));
                let r = func(&mut self.state, iter);
                // Restore the original closure.
                if let Action::User { f, .. } = &mut self.actions[idx] {
                    *f = func;
                }
                r?;
                self.log.line_with(|| format!("  [user] {label}"));
                Ok(())
            }
            _ => self.run_simple_action(idx, iter, &label),
        }
    }

    fn run_simple_action(&mut self, idx: usize, iter: u64, label: &str) -> Result<(), PfError> {
        match &self.actions[idx] {
            Action::Copy { src, dst, .. } => {
                let (src, dst) = (*src, *dst);
                let ms = self.do_copy(src, dst)?;
                self.log
                    .line_with(|| format!("  [copy] {label}: {ms:.6} ms"));
                self.timings.push(OpTiming {
                    iteration: iter,
                    label: label.to_string(),
                    sim_ms: ms,
                });
                Ok(())
            }
            Action::Exec {
                kernel,
                grid,
                block,
                dynamic_shared,
                args,
                ..
            } => {
                // Re-bind every texture resource (their backing memory —
                // e.g. a moving subset — may have advanced).
                let bindings: Vec<(String, u64)> = self
                    .resources
                    .iter()
                    .filter_map(|r| match r {
                        Resource::Texture { name, mem, .. } => {
                            Some(self.try_device_addr(*mem).map(|a| (name.clone(), a)))
                        }
                        _ => None,
                    })
                    .collect::<Result<_, _>>()?;
                for (name, addr) in bindings {
                    self.state.bind_texture(&name, addr);
                }
                let grid = self.triplet_value(*grid)?;
                let block = self.triplet_value(*block)?;
                let dyn_sh = match dynamic_shared {
                    Some(p) => self.try_int_value(*p)? as u32,
                    None => 0,
                };
                let kargs: Vec<KArg> = args
                    .iter()
                    .map(|a| self.resolve_arg(a))
                    .collect::<Result<_, _>>()?;
                // Integrity checking compares output bytes, so it needs
                // every block functionally executed.
                let integrity = self.integrity.filter(|_| self.launch_options.functional);
                let pre = match integrity {
                    Some(_) => {
                        let bufs = self.mem_arg_buffers(args)?;
                        let snap = self.read_bufs(&bufs)?;
                        Some((bufs, snap))
                    }
                    None => None,
                };
                let Resource::Kernel { module, name } = &self.resources[kernel.0] else {
                    return Err(PfError::Launch(format!("{label}: not a kernel resource")));
                };
                let (module_idx, name) = (module.0, name.clone());
                // Pin the served binary (a hot-swap only changes what the
                // next launch pins); its canonical key identifies the
                // launch to the fault plan and to integrity records.
                let Some((bin, bound)) =
                    self.module_at(module_idx).and_then(Module::served).cloned()
                else {
                    return Err(PfError::Launch(format!("{label}: module not compiled")));
                };
                let launch = Launch {
                    bin: &bin,
                    bound: &bound,
                    kernel: &name,
                    dims: LaunchDims {
                        grid: (grid[0], grid[1], grid[2]),
                        block: (block[0], block[1], block[2]),
                        dynamic_shared: dyn_sh,
                    },
                    kargs: &kargs,
                    label,
                };
                let mut report = self.launch_with_retry(&launch)?;
                if let (Some(cfg), Some((bufs, pre))) = (integrity, pre) {
                    report = self.check_integrity(cfg, module_idx, &launch, &bufs, &pre, report)?;
                }
                self.log.line_with(|| {
                    format!(
                        "  [exec] {label}: {} grid=({},{},{}) block=({},{},{}) {:.6} ms, {} regs, occ {:.2}",
                        name,
                        grid[0],
                        grid[1],
                        grid[2],
                        block[0],
                        block[1],
                        block[2],
                        report.time_ms,
                        report.regs_per_thread,
                        report.occupancy.occupancy,
                    )
                });
                self.timings.push(OpTiming {
                    iteration: iter,
                    label: label.to_string(),
                    sim_ms: report.time_ms,
                });
                self.reports.push(report);
                Ok(())
            }
            Action::FileOut { mem, path, .. } => {
                let (mem, path) = (*mem, path.clone());
                let bytes = match &self.resources[mem.0] {
                    Resource::HostMem { data, .. } => data.clone(),
                    Resource::GlobalMem { addr, bytes, .. } => self
                        .state
                        .global
                        .read_bytes(
                            addr.ok_or_else(|| PfError::Spec("unallocated".into()))?,
                            *bytes,
                        )?
                        .to_vec(),
                    _ => {
                        return Err(PfError::Spec(
                            "file output needs host or global memory".into(),
                        ))
                    }
                };
                std::fs::write(&path, bytes).map_err(PfError::Io)?;
                self.log
                    .line_with(|| format!("  [file] {label}: wrote {}", path.display()));
                Ok(())
            }
            Action::FileIn { mem, path, .. } => {
                let (mem, path) = (*mem, path.clone());
                let bytes = std::fs::read(&path).map_err(PfError::Io)?;
                match &mut self.resources[mem.0] {
                    Resource::HostMem { data, .. } => {
                        let n = bytes.len().min(data.len());
                        data[..n].copy_from_slice(&bytes[..n]);
                    }
                    Resource::GlobalMem {
                        addr, bytes: cap, ..
                    } => {
                        let a = addr.ok_or_else(|| PfError::Spec("unallocated".into()))?;
                        let n = (bytes.len() as u64).min(*cap);
                        let a2 = a;
                        let slice = bytes[..n as usize].to_vec();
                        self.state.global.write_bytes(a2, &slice)?;
                    }
                    _ => {
                        return Err(PfError::Spec(
                            "file input needs host or global memory".into(),
                        ))
                    }
                }
                self.log
                    .line_with(|| format!("  [file] {label}: read {}", path.display()));
                Ok(())
            }
            Action::User { .. } => unreachable!("handled by run_action"),
        }
    }

    fn resolve_arg(&self, a: &Arg) -> Result<KArg, PfError> {
        Ok(match a {
            Arg::Param(p) => match &self.params[p.0].value {
                ParamValue::Int(v) => KArg::I32(*v as i32),
                ParamValue::Bool(b) => KArg::I32(i64::from(*b) as i32),
                ParamValue::Float(v) => KArg::F32(*v as f32),
                ParamValue::Ptr(v) => KArg::Ptr(*v),
                ParamValue::Step(s) => KArg::I32(s.current as i32),
                v => {
                    return Err(PfError::Spec(format!(
                        "parameter {} ({v:?}) cannot be a kernel argument",
                        self.params[p.0].name
                    )))
                }
            },
            Arg::Mem(r) => KArg::Ptr(self.try_device_addr(*r)?),
        })
    }

    /// One kernel launch with the transient-fault retry loop, identified
    /// to an active fault plan by the served variant's cache key.
    /// Transient device faults (injected watchdog timeouts, OOM, ECC)
    /// fire before any device state changes, so a retry is safe; genuine
    /// simulation traps are deterministic and fail fast. Does not touch
    /// `reports`/`timings` — the caller decides which launch represents
    /// the action.
    fn launch_with_retry(&mut self, l: &Launch) -> Result<LaunchReport, PfError> {
        // Decoded once per binary, on its first launch.
        let plan = l.bin.plan(l.kernel).ok_or_else(|| {
            PfError::Sim(SimError(format!("kernel {} not found in module", l.kernel)))
        })?;
        let mut attempt = 0u32;
        loop {
            let launched = launch_planned(
                &mut self.state,
                &l.bin.module.textures,
                plan,
                l.dims,
                l.kargs,
                self.launch_options,
                l.bound.fingerprint.lo64(),
                &l.bound.defines,
            );
            match launched {
                Ok(r) => return Ok(r),
                Err(e) if e.is_transient() && attempt < self.launch_retries => {
                    attempt += 1;
                    self.metrics.launch_retries.inc();
                    self.log.line_with(|| {
                        format!(
                            "  [retry] {}: transient device fault ({e}); \
                             attempt {attempt}",
                            l.label
                        )
                    });
                }
                Err(e) => return Err(PfError::Sim(e)),
            }
        }
    }

    /// Copy between two memory references; returns a modeled transfer time
    /// (PCIe-class for host↔device, device bandwidth for device↔device).
    fn do_copy(&mut self, src: ResId, dst: ResId) -> Result<f64, PfError> {
        // Resolve (kind, addr-or-host) for both ends.
        enum End {
            Host(ResId),
            Dev(u64),
            Const(ResId, String),
        }
        let classify = |p: &Pipeline, r: ResId| -> Result<(End, u64), PfError> {
            match &p.resources[r.0] {
                Resource::HostMem { data, .. } => Ok((End::Host(r), data.len() as u64)),
                Resource::GlobalMem { addr, bytes, .. } => Ok((
                    End::Dev(addr.ok_or_else(|| PfError::Spec("unallocated global".into()))?),
                    *bytes,
                )),
                Resource::Subset { of, subset } => {
                    let ParamValue::Subset { len, .. } = &p.params[subset.0].value else {
                        return Err(PfError::Spec("bad subset parameter".into()));
                    };
                    match &p.resources[of.0] {
                        Resource::GlobalMem { extent, .. } => {
                            let elem = p.extent_elem(*extent)? as u64;
                            Ok((End::Dev(p.try_device_addr(r)?), len * elem))
                        }
                        Resource::HostMem { .. } => Err(PfError::Spec(
                            "host subsets not supported; copy the full buffer".into(),
                        )),
                        _ => Err(PfError::Spec("subset of unsupported memory".into())),
                    }
                }
                Resource::ConstMem { module, name } => Ok((End::Const(*module, name.clone()), 0)),
                _ => Err(PfError::Spec("not a memory resource".into())),
            }
        };
        let (se, sb) = classify(self, src)?;
        let (de, db) = classify(self, dst)?;
        let n = match (&se, &de) {
            (End::Const(..), _) => 0,
            (_, End::Const(..)) => sb,
            _ => sb.min(db),
        };
        match (se, de) {
            (End::Host(h), End::Dev(a)) => {
                let data = match &self.resources[h.0] {
                    Resource::HostMem { data, .. } => data[..n as usize].to_vec(),
                    _ => unreachable!(),
                };
                self.state.global.write_bytes(a, &data)?;
            }
            (End::Dev(a), End::Host(h)) => {
                let data = self.state.global.read_bytes(a, n)?.to_vec();
                match &mut self.resources[h.0] {
                    Resource::HostMem { data: d, .. } => d[..n as usize].copy_from_slice(&data),
                    _ => unreachable!(),
                }
            }
            (End::Dev(a), End::Dev(b)) => {
                let data = self.state.global.read_bytes(a, n)?.to_vec();
                self.state.global.write_bytes(b, &data)?;
            }
            (End::Host(s), End::Host(d)) => {
                let data = self.host_data(s)[..n as usize].to_vec();
                match &mut self.resources[d.0] {
                    Resource::HostMem { data: dd, .. } => dd[..n as usize].copy_from_slice(&data),
                    _ => unreachable!(),
                }
            }
            (End::Host(h), End::Const(m, name)) => {
                let data = match &self.resources[h.0] {
                    Resource::HostMem { data, .. } => data.clone(),
                    _ => unreachable!(),
                };
                let Some(bin) = self.module_at(m.0).and_then(Module::binary).cloned() else {
                    return Err(PfError::Spec("module not compiled".into()));
                };
                self.state.set_const(&bin.module, &name, &data)?;
            }
            _ => return Err(PfError::Spec("unsupported copy direction".into())),
        }
        // Transfer-time model: host↔device over PCIe-gen2 (~6 GB/s
        // effective) + fixed launch overhead; device↔device at memory BW.
        let gbps = 6.0e9;
        Ok(n as f64 / gbps * 1e3 + 0.005)
    }
}

#[cfg(test)]
mod tests;
