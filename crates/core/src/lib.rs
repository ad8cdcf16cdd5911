//! # ks-core — the kernel specialization engine
//!
//! The dissertation's primary contribution as an API (§4): write a CUDA-C
//! kernel once *in terms of undefined constants*, then, at run time — once
//! problem and hardware parameters are known — compile a binary customized
//! for exactly those values:
//!
//! ```
//! use ks_core::{Compiler, Defines};
//! use ks_sim::DeviceConfig;
//!
//! let src = r#"
//!     #ifndef COUNT
//!     #define COUNT count   // run-time evaluated fallback
//!     #endif
//!     __global__ void k(float* out, int count) {
//!         float acc = 0.0f;
//!         for (int i = 0; i < COUNT; i++) { acc += 1.0f; }
//!         out[threadIdx.x] = acc;
//!     }
//! "#;
//! let compiler = Compiler::new(DeviceConfig::tesla_c1060());
//! // Run-time evaluated build: no defines.
//! let re = compiler.compile(src, &Defines::new()).unwrap();
//! // Specialized build: `-D COUNT=8`.
//! let sk = compiler.compile(src, Defines::new().def("COUNT", 8)).unwrap();
//! assert!(sk.static_insts("k") < re.static_insts("k"));
//! ```
//!
//! The engine mirrors the GPU-PF behaviour described in §4.3/§4.4:
//! compiled binaries are **cached** keyed by (source, defines, device,
//! passes), so re-encountering a parameter set loads the previous binary
//! ("with speed similar to loading a dynamically linked shared object"),
//! and compile overhead is tracked — per phase, via [`CompileMetrics`] —
//! so applications can report it.
//!
//! The cache is a **sharded, single-flight concurrent compile service**
//! (see [`cache`]): concurrent requests for the same key block on one
//! compilation and all receive the same `Arc<Binary>` (exactly one miss),
//! distinct keys compile fully in parallel, and [`Compiler::compile_batch`]
//! / [`Compiler::precompile`] fan a whole sweep's variant set out across
//! threads. Define *order* never affects the cache key: `cache_key`
//! canonicalizes the define set, so `.def("A",1).def("B",2)` and
//! `.def("B",2).def("A",1)` share a slot.

pub use ks_analysis::{AnalysisConfig, Diagnostic};
use ks_codegen::CodegenOptions;
use ks_sim::{DeviceConfig, LaunchPlan, RegAlloc};
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

mod background;
mod cache;
mod metrics;
mod store;

pub use background::{AsyncStats, CompileTicket};
pub use ks_store::{Fingerprint, ScrubReport, StableHasher, StoreError};
pub use metrics::CompileMetrics;
pub use store::{BINARY_SCHEMA_VERSION, PASS_PIPELINE};

/// Pre-resolved ks-trace registry handles for the compile pipeline.
/// Counters and histograms are always on (atomic updates only); spans
/// are separately gated by `ks_trace::set_enabled`. Built from a
/// [`ks_trace::Scope`] — unlabeled by default, or a labeled view when
/// the compiler was configured with [`Compiler::with_metric_labels`];
/// scoped handles chain into the unlabeled globals, so the registry-
/// wide `hits + misses == requests` style invariants stay exact.
struct TraceMetrics {
    requests: ks_trace::Counter,
    phases: [(&'static str, ks_trace::Histogram); 8],
    verify_checks: ks_trace::Counter,
    verify_diffs: ks_trace::Counter,
    verify_inconclusive: ks_trace::Counter,
}

impl TraceMetrics {
    fn from_scope(scope: &ks_trace::Scope<'_>) -> TraceMetrics {
        let phase = |name| scope.histogram(&ks_trace::names::compile_phase_us(name));
        TraceMetrics {
            requests: scope.counter(ks_trace::names::COMPILE_REQUESTS),
            phases: [
                ("preproc", phase("preproc")),
                ("parse", phase("parse")),
                ("sema", phase("sema")),
                ("lower", phase("lower")),
                ("opt", phase("opt")),
                ("analysis", phase("analysis")),
                ("verify", phase("verify")),
                ("regalloc", phase("regalloc")),
            ],
            verify_checks: scope.counter(ks_trace::names::VERIFY_CHECKS),
            verify_diffs: scope.counter(ks_trace::names::VERIFY_DIFFS),
            verify_inconclusive: scope.counter(ks_trace::names::VERIFY_INCONCLUSIVE),
        }
    }
    /// Publish one successful (miss-path) compilation's phase breakdown.
    fn record_phases(&self, m: &CompileMetrics) {
        for (name, hist) in &self.phases {
            let d = match *name {
                "preproc" => m.preproc,
                "parse" => m.parse,
                "sema" => m.sema,
                "lower" => m.lower,
                "opt" => m.opt,
                "analysis" => m.analysis,
                "verify" => m.verify,
                _ => m.regalloc,
            };
            hist.record_duration_us(d);
        }
    }
}

/// An ordered set of `-D NAME=value` definitions.
///
/// Insertion order is preserved for [`Defines::command_line`] (a faithful
/// `-D` echo), but does **not** affect caching: the compiler hashes a
/// canonical (name-sorted) view of the set.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct Defines {
    items: Vec<(String, String)>,
    /// Invalid definitions (e.g. a non-finite f32) as `(name, message)`,
    /// tracked **per name**: redefining a name with a valid value
    /// replaces the offending entry and clears its marker, while other
    /// names' markers stand. Recorded here so the fluent builder stays
    /// infallible; surfaced as a [`CompileError`] the moment the defines
    /// reach [`Compiler::compile`], *before* the bad token can produce a
    /// confusing downstream lex error.
    invalid: Vec<(String, String)>,
}

impl Defines {
    pub fn new() -> Defines {
        Defines::default()
    }

    /// `-D NAME=<int>`.
    pub fn def(mut self, name: &str, value: impl std::fmt::Display) -> Defines {
        self.items.retain(|(n, _)| n != name);
        self.invalid.retain(|(n, _)| n != name);
        self.items.push((name.to_string(), value.to_string()));
        self
    }

    /// `-D NAME` (defined as 1, like nvcc).
    pub fn flag(mut self, name: &str) -> Defines {
        self.items.retain(|(n, _)| n != name);
        self.invalid.retain(|(n, _)| n != name);
        self.items.push((name.to_string(), String::new()));
        self
    }

    /// A pointer constant, rendered as a hexadecimal literal the kernel can
    /// cast: `-D PTR_IN=0x200ca0200` (§4, footnote 1).
    pub fn ptr(self, name: &str, addr: u64) -> Defines {
        self.def(name, format!("{addr:#x}"))
    }

    /// A single-precision float constant (§4 footnote 1: floating-point
    /// values can be specified on the command line), rendered with an `f`
    /// suffix so it lexes as `float`. Non-finite values (NaN, ±inf) have
    /// no float-literal spelling; they are rejected with a clear error at
    /// compile time instead of failing to lex downstream.
    pub fn f32(mut self, name: &str, value: f32) -> Defines {
        if !value.is_finite() {
            // The bad entry replaces any earlier definition (valid or
            // invalid) of the same name, exactly like a valid redefine.
            self.items.retain(|(n, _)| n != name);
            self.invalid.retain(|(n, _)| n != name);
            self.invalid.push((
                name.to_string(),
                format!(
                    "invalid define `-D {name}={value}`: f32 defines must be \
                     finite ({value} has no float-literal spelling)"
                ),
            ));
            return self;
        }
        self.def(name, format!("{value:?}f"))
    }

    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    pub fn items(&self) -> &[(String, String)] {
        &self.items
    }

    /// The first invalid definition still in effect, if any. A marker is
    /// cleared when its name is later redefined with a valid value (the
    /// offending entry no longer exists); markers for other names stand.
    pub fn invalid(&self) -> Option<&str> {
        self.invalid.first().map(|(_, msg)| msg.as_str())
    }

    /// Render the nvcc-style command-line fragment (for logs).
    pub fn command_line(&self) -> String {
        self.items
            .iter()
            .map(|(n, v)| {
                if v.is_empty() {
                    format!("-D {n}")
                } else {
                    format!("-D {n}={v}")
                }
            })
            .collect::<Vec<_>>()
            .join(" ")
    }
}

/// A compiled kernel module: the analogue of a loaded `.cubin`.
#[derive(Debug)]
pub struct Binary {
    pub module: ks_ir::Module,
    /// PTX-like listing (Appendices C/D style), for inspection.
    pub ptx: String,
    /// Per-kernel register allocation results.
    pub regalloc: HashMap<String, RegAlloc>,
    pub defines: Defines,
    pub device: String,
    /// Wall-clock cost of this compilation (the §4.3 trade-off).
    pub compile_time: Duration,
    /// Per-phase breakdown of `compile_time`.
    pub metrics: CompileMetrics,
    /// Non-deny analysis diagnostics (deny-level findings abort the
    /// compile instead). Empty unless the compiler carries an
    /// [`AnalysisConfig`].
    pub diagnostics: Vec<ks_analysis::Diagnostic>,
    /// Translation-validation findings (KSV codes). Empty unless the
    /// compiler carries a [`ValidationConfig`]; with `deny` set (the
    /// default) error findings abort the compile, so only warnings —
    /// KSV101 inconclusive outcomes — appear here.
    pub verification: Vec<ks_verify::Finding>,
    /// Decoded launch plans, one slot per `module.functions` entry,
    /// filled by [`Binary::plan`]. Derived from `module` + `regalloc`,
    /// so never stored or compared.
    plans: Vec<OnceLock<LaunchPlan>>,
}

/// Empty plan slots for a binary holding `module`.
fn plan_slots(module: &ks_ir::Module) -> Vec<OnceLock<LaunchPlan>> {
    module.functions.iter().map(|_| OnceLock::new()).collect()
}

impl Binary {
    /// Whether this binary computes correctly under `bindings`: every
    /// `-D` it was compiled with is among them. The generic
    /// (define-free) binary reads everything from launch arguments and
    /// is valid everywhere.
    pub fn valid_for(&self, bindings: &Defines) -> bool {
        let wanted = bindings.items();
        self.defines.items().iter().all(|d| wanted.contains(d))
    }

    /// The decode-once launch plan of `kernel` (`None` if the module has
    /// no such kernel), built on the first call — a binary that is
    /// resolved but never launched pays nothing. Launch through it with
    /// [`ks_sim::launch_planned`] and `module.textures`.
    pub fn plan(&self, kernel: &str) -> Option<&LaunchPlan> {
        let (f, slot) = self
            .module
            .functions
            .iter()
            .zip(&self.plans)
            .find(|(f, _)| f.name == kernel)?;
        Some(slot.get_or_init(|| match self.regalloc.get(kernel) {
            Some(regalloc) => LaunchPlan::new(f, regalloc),
            None => LaunchPlan::from_function(f),
        }))
    }

    /// Physical registers per thread for a kernel.
    pub fn regs_per_thread(&self, kernel: &str) -> u32 {
        self.regalloc
            .get(kernel)
            .map(|r| r.gpr_count.max(2))
            .unwrap_or(0)
    }

    /// Static instruction count of a kernel.
    pub fn static_insts(&self, kernel: &str) -> usize {
        self.module
            .function(kernel)
            .map(|f| f.static_inst_count())
            .unwrap_or(0)
    }

    /// Static shared-memory bytes per block.
    pub fn shared_bytes(&self, kernel: &str) -> u32 {
        self.module
            .function(kernel)
            .map(|f| f.shared_bytes())
            .unwrap_or(0)
    }

    /// Per-thread local (spill) memory.
    pub fn local_bytes(&self, kernel: &str) -> u32 {
        self.module
            .function(kernel)
            .map(|f| f.local_bytes)
            .unwrap_or(0)
    }
}

/// A compile-time error, annotated with the defines in play.
#[derive(Debug, Clone, PartialEq)]
pub struct CompileError {
    pub message: String,
    pub command_line: String,
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "compile error [{}]: {}", self.command_line, self.message)
    }
}

impl std::error::Error for CompileError {}

/// Cache statistics (hits mean the §4.3 overhead was avoided entirely):
/// a snapshot of this compiler's cells under the `ks_core.*` registry
/// counters, which sum them over all compilers of a label and globally.
///
/// A call moves its counters once, in the same operation that probes
/// or fills the cache, so at quiescence `hits + misses` equals the number
/// of successful [`Compiler::compile`] calls under arbitrary thread
/// interleavings. Requests deduplicated by single-flight count as hits
/// (the overhead was paid once, by the leader); their blocked time is
/// itemized in `dedup_waits` / `total_dedup_wait_micros`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    /// Entries dropped by LRU eviction (bounded caches only).
    pub evictions: u64,
    /// Calls that blocked on another thread's in-flight compilation of
    /// the same key (each also counted as a hit on success).
    pub dedup_waits: u64,
    pub total_compile_micros: u64,
    /// Total time calls spent blocked on in-flight compilations.
    pub total_dedup_wait_micros: u64,
    /// Cache-path calls that returned an error: failed leaders (after
    /// exhausting retries), followers of a failed flight, and
    /// quarantine fast-fails. Itemized *outside* the success invariant —
    /// `hits + misses` still equals successful compile calls. Pre-cache
    /// rejections (invalid defines) are not cache traffic and don't
    /// count.
    pub failures: u64,
    /// Calls served an error straight from a quarantined (recently
    /// failed) entry, without re-compiling. Quarantined entries never
    /// occupy LRU capacity. Each is also counted in `failures`.
    pub quarantined: u64,
    /// Retry attempts after a leader failure (bounded by
    /// [`ResilienceConfig::max_retries`] per flight).
    pub retries: u64,
    /// Circuit-breaker open transitions: the Kth consecutive failure of
    /// one key, and every failed half-open probe after it.
    pub breaker_opens: u64,
    /// Calls served from the persistent artifact store attached with
    /// [`Compiler::with_store`]. Each is *also* counted as a hit — the
    /// compile overhead was avoided — so `hits - disk_hits` is the
    /// memory-only hit count.
    pub disk_hits: u64,
    /// Leader compiles that probed an attached store and found no
    /// record (the compile then ran and was written through).
    pub disk_misses: u64,
    /// Store read/write failures degraded to plain recompilation:
    /// corrupt, truncated, or unreadable records, and failed writes.
    /// Never a panic, never a failed compile call.
    pub store_errors: u64,
}

impl std::fmt::Display for CacheStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} hits / {} misses / {} evictions / {} dedup-waits / \
             {} failures / {} quarantined / {} retries / {} breaker-opens / \
             {} disk-hits / {} disk-misses / {} store-errors / \
             compile {:.1?} / dedup-wait {:.1?}",
            self.hits,
            self.misses,
            self.evictions,
            self.dedup_waits,
            self.failures,
            self.quarantined,
            self.retries,
            self.breaker_opens,
            self.disk_hits,
            self.disk_misses,
            self.store_errors,
            Duration::from_micros(self.total_compile_micros),
            Duration::from_micros(self.total_dedup_wait_micros),
        )
    }
}

/// Resilience policy for the compile service: bounded retry with seeded
/// exponential backoff, a cooperative per-compile deadline, failure
/// quarantine, and a per-variant circuit breaker. The default is the
/// pre-resilience behaviour — no retries, no quarantine, breaker off,
/// panics propagate — so existing callers are unchanged until they opt
/// in via [`Compiler::with_resilience`].
#[derive(Debug, Clone)]
pub struct ResilienceConfig {
    /// Extra compile attempts after a failed leader attempt (0 = fail
    /// fast). Retries happen inside the single-flight slot, so N
    /// followers of a failing key still cost one retry wave.
    pub max_retries: u32,
    /// Backoff before retry k is `base * 2^(k-1)` (capped), scaled by a
    /// deterministic jitter factor in `[0.5, 1.5)` drawn from
    /// `(jitter_seed, key, attempt)`.
    pub backoff_base: Duration,
    pub backoff_cap: Duration,
    pub jitter_seed: u64,
    /// Cooperative per-attempt deadline: an attempt whose wall-clock
    /// exceeds the budget is reported as a failure even if the pipeline
    /// eventually produced a binary (the service would have abandoned
    /// the wait).
    pub compile_timeout: Option<Duration>,
    /// Consecutive failures of one key that trip its breaker
    /// (0 = breaker disabled). While open, calls fast-fail with a
    /// breaker error until `breaker_cooldown` elapses; the next call
    /// after cooldown is the half-open probe.
    pub breaker_threshold: u32,
    pub breaker_cooldown: Duration,
    /// How long a failed key fast-fails with its recorded error before
    /// a fresh compile is attempted (zero = failures are not
    /// quarantined; every call re-attempts).
    pub quarantine_ttl: Duration,
    /// Convert leader panics into `CompileError`s (and retry them like
    /// any failure) instead of unwinding into the caller.
    pub catch_panics: bool,
}

impl Default for ResilienceConfig {
    fn default() -> ResilienceConfig {
        ResilienceConfig {
            max_retries: 0,
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(16),
            jitter_seed: 0x5EED,
            compile_timeout: None,
            breaker_threshold: 0,
            breaker_cooldown: Duration::from_millis(100),
            quarantine_ttl: Duration::ZERO,
            catch_panics: false,
        }
    }
}

impl ResilienceConfig {
    /// The delay before retry `attempt` (1-based) of `key`:
    /// exponential, capped, with deterministic jitter in `[0.5, 1.5)`.
    pub fn backoff(&self, key: u64, attempt: u32) -> Duration {
        if self.backoff_base.is_zero() || attempt == 0 {
            return Duration::ZERO;
        }
        let exp = self
            .backoff_base
            .saturating_mul(1u32 << (attempt - 1).min(16));
        let capped = exp.min(self.backoff_cap);
        let roll = splitmix64(self.jitter_seed ^ key ^ u64::from(attempt));
        let frac = (roll % 1_000_000) as f64 / 1_000_000.0;
        capped.mul_f64(0.5 + frac)
    }
}

/// Feed every [`AnalysisConfig`] field that affects analysis results
/// into the stable hasher, mirroring `AnalysisConfig::hash_into`'s field
/// list but with explicit tags and widths (the generic `hash_into` goes
/// through `std::hash::Hasher`, whose compound-type encodings make no
/// cross-release stability promise).
fn feed_analysis(h: &mut StableHasher, a: &AnalysisConfig) {
    match a.block_dim {
        None => {
            h.u8(0);
        }
        Some((x, y, z)) => {
            h.u8(1).u32(x).u32(y).u32(z);
        }
    }
    h.u32(a.grid_dim.0).u32(a.grid_dim.1).u32(a.grid_dim.2);
    h.u32(a.block_idx.0).u32(a.block_idx.1).u32(a.block_idx.2);
    h.u32(a.dynamic_shared);
    h.usize(a.param_assumptions.len());
    for (name, value) in &a.param_assumptions {
        h.str(name);
        match value {
            ks_analysis::ParamValue::Int(v) => {
                h.u8(0).i64(*v);
            }
            ks_analysis::ParamValue::F32(v) => {
                h.u8(1).f32_bits(*v);
            }
        }
    }
    h.u64(a.max_steps);
    h.usize(a.levels.len());
    for (code, severity) in &a.levels {
        h.str(code.code());
        h.u8(match severity {
            ks_analysis::Severity::Allow => 0,
            ks_analysis::Severity::Warn => 1,
            ks_analysis::Severity::Deny => 2,
        });
    }
    h.u64(a.bank_conflict_threshold.to_bits());
    h.u64(a.coalescing_slack.to_bits());
}

/// SplitMix64 finalizer (same mixer ks-fault uses): deterministic jitter
/// as a pure function of (seed, key, attempt).
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Translation-validation policy for [`Compiler::with_validation`].
///
/// When attached, every miss-path compilation symbolically summarizes each
/// kernel before and after every HIR transform stage and every IR
/// optimization pass, and compares the summaries ([`ks_verify`]). A diff
/// means a pass changed observable behavior — a miscompile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ValidationConfig {
    /// Evaluation budgets for the symbolic summaries.
    pub limits: ks_verify::Limits,
    /// Fail the compile on any error finding (KSV001/KSV003). When false,
    /// findings ride along on [`Binary::verification`] instead.
    pub deny: bool,
}

impl Default for ValidationConfig {
    fn default() -> Self {
        ValidationConfig {
            limits: ks_verify::Limits::default(),
            deny: true,
        }
    }
}

/// The run-time kernel compiler with a sharded, single-flight binary
/// cache. Shareable across threads (`&Compiler` is all any API needs);
/// concurrent compiles of distinct keys run fully in parallel, while
/// concurrent requests for the same key cost exactly one compilation.
pub struct Compiler {
    device: DeviceConfig,
    options: CodegenOptions,
    opt_config: ks_opt::OptConfig,
    analysis: Option<AnalysisConfig>,
    validation: Option<ValidationConfig>,
    cache: cache::BinaryCache,
    /// Persistent artifact tier below the in-memory cache
    /// ([`Compiler::with_store`]); lookups read through it, fresh
    /// compiles write through to it.
    store: Option<store::StoreTier>,
    resilience: ResilienceConfig,
    fault_plan: Option<Arc<ks_fault::FaultPlan>>,
    /// Async-tier cells, shared with in-flight background jobs so
    /// `spawned == completed + failed + cancelled` holds at quiescence
    /// even if the compiler is dropped mid-flight.
    async_stats: Arc<background::AsyncCells>,
    /// Label set for scoped metric publication
    /// ([`Compiler::with_metric_labels`]); empty = unlabeled globals.
    metric_labels: Vec<(String, String)>,
    metrics: TraceMetrics,
}

impl Compiler {
    pub fn new(device: DeviceConfig) -> Compiler {
        Compiler {
            device,
            options: CodegenOptions::default(),
            opt_config: ks_opt::OptConfig::default(),
            analysis: None,
            validation: None,
            cache: cache::BinaryCache::new(None),
            store: None,
            resilience: ResilienceConfig::default(),
            fault_plan: None,
            async_stats: Arc::new(background::AsyncCells::new()),
            metric_labels: Vec::new(),
            metrics: TraceMetrics::from_scope(&ks_trace::registry().scoped(&[])),
        }
    }

    /// Publish this compiler's metrics under a labeled scope — e.g.
    /// `[("service", "pf")]` registers `ks_core.compile.requests{service=pf}`
    /// alongside the unlabeled global (scoped handles chain into the
    /// globals, so aggregates and invariants are unchanged). Configure
    /// before compiling: increments already published stay in the
    /// registry where they landed, and [`Compiler::cache_stats`] starts
    /// over under the new scope.
    pub fn with_metric_labels(mut self, labels: &[(&str, &str)]) -> Compiler {
        self.metric_labels = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        let scope = self.metric_scope();
        self.metrics = TraceMetrics::from_scope(&scope);
        self.cache.set_metric_scope(&scope);
        self
    }

    /// The label set metrics are published under (empty = unlabeled).
    pub fn metric_labels(&self) -> &[(String, String)] {
        &self.metric_labels
    }

    /// The ks-trace scope this compiler publishes into.
    fn metric_scope(&self) -> ks_trace::Scope<'static> {
        let labels: Vec<(&str, &str)> = self
            .metric_labels
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .collect();
        ks_trace::registry().scoped(&labels)
    }

    /// The end-to-end compile latency histogram for one variant:
    /// `ks_core.compile.total_us{variant=...}` (plus this compiler's
    /// labels), chained so a record also lands in the per-compiler and
    /// global aggregates. Only touched on the miss path, where the
    /// registry lookup is noise next to the compile itself.
    fn variant_total_us(&self, defines: &Defines) -> ks_trace::Histogram {
        let cl = defines.command_line();
        let variant = if cl.is_empty() {
            "generic"
        } else {
            cl.as_str()
        };
        self.metric_scope()
            .scoped(&[("variant", variant)])
            .histogram(ks_trace::names::COMPILE_TOTAL_US)
    }

    pub fn with_options(device: DeviceConfig, options: CodegenOptions) -> Compiler {
        Compiler {
            options,
            ..Compiler::new(device)
        }
    }

    /// Full control over HIR-level and IR-level passes (ablation studies).
    pub fn with_passes(
        device: DeviceConfig,
        options: CodegenOptions,
        opt_config: ks_opt::OptConfig,
    ) -> Compiler {
        Compiler {
            options,
            opt_config,
            ..Compiler::new(device)
        }
    }

    /// Attach an [`AnalysisConfig`]: every compile then runs the ks-analysis
    /// suite, records warnings on the [`Binary`], turns deny-level findings
    /// into [`CompileError`]s, and verifies the IR after lowering and after
    /// each optimization pass even in release builds.
    pub fn with_analysis(mut self, cfg: AnalysisConfig) -> Compiler {
        self.analysis = Some(cfg);
        self
    }

    /// Attach a [`ValidationConfig`]: every miss-path compile then runs
    /// translation validation over the HIR stages and IR passes, failing
    /// the compile on any diff (when `cfg.deny`) and recording the rest on
    /// [`Binary::verification`]. Expect a multiple of the plain compile
    /// time — this is a debugging/CI tool, not a hot-path default.
    pub fn with_validation(mut self, cfg: ValidationConfig) -> Compiler {
        self.validation = Some(cfg);
        self
    }

    /// Bound the binary cache to `capacity` entries with LRU eviction
    /// (eviction counts land in [`CacheStats::evictions`]). Unbounded by
    /// default. Configure before compiling: this replaces the cache, so
    /// any already-cached binaries are dropped.
    pub fn with_cache_capacity(mut self, capacity: usize) -> Compiler {
        self.cache = cache::BinaryCache::new(Some(capacity.max(1)));
        self.cache.set_metric_scope(&self.metric_scope());
        self
    }

    /// Attach a persistent, content-addressed artifact store rooted at
    /// `dir` (created if absent). The store becomes a read-through /
    /// write-through tier below the in-memory cache: lookups probe
    /// memory, then disk, then compile, and a fresh compile populates
    /// both — so a later process with the same store directory warm-
    /// starts every previously compiled variant without paying the §4.3
    /// overhead again. Records are keyed by the stable 128-bit cache
    /// fingerprint and carry a format version and payload checksum;
    /// unreadable or corrupt records degrade to recompilation (counted
    /// in [`CacheStats::store_errors`]), never a panic.
    pub fn with_store(
        mut self,
        dir: impl Into<std::path::PathBuf>,
    ) -> Result<Compiler, StoreError> {
        self.store = Some(store::StoreTier::open(dir)?);
        Ok(self)
    }

    /// [`Compiler::with_store`], preceded by a full-payload integrity
    /// scrub of the directory: every record is re-validated end to end
    /// (header fields *and* payload checksum) and corrupt records are
    /// moved into `quarantine/` **before** the store goes live, so a
    /// bit-rotted record becomes a clean recompile instead of a
    /// `store_errors` hit on the warm-start path. The walk publishes
    /// `ks_store.scrub.*` counters under this compiler's metric labels
    /// and returns the typed [`ScrubReport`] alongside the compiler.
    /// The offline equivalent is the `ks-store-scrub` binary.
    pub fn with_store_scrubbed(
        self,
        dir: impl Into<std::path::PathBuf>,
    ) -> Result<(Compiler, ks_store::ScrubReport), StoreError> {
        let compiler = self.with_store(dir)?;
        let report = compiler
            .scrub_store()
            .expect("store attached on the previous line")?;
        Ok((compiler, report))
    }

    /// Scrub the attached artifact store now (`None` when no store is
    /// attached): full-payload checksum walk, corrupt records moved to
    /// `quarantine/`, `ks_store.scrub.*` counters published under this
    /// compiler's labels. Safe to run while the store is live — records
    /// are immutable once published and the walk never touches valid
    /// ones.
    pub fn scrub_store(&self) -> Option<Result<ks_store::ScrubReport, StoreError>> {
        let tier = self.store.as_ref()?;
        Some(tier.scrub().inspect(|report| {
            let scope = self.metric_scope();
            scope
                .counter(ks_trace::names::STORE_SCRUB_SCANNED)
                .add(report.scanned as u64);
            scope
                .counter(ks_trace::names::STORE_SCRUB_QUARANTINED)
                .add(report.quarantined.len() as u64);
        }))
    }

    /// Root directory of the attached artifact store, if any.
    pub fn store_path(&self) -> Option<&std::path::Path> {
        self.store.as_ref().map(|s| s.root())
    }

    /// Attach a resilience policy: bounded retry with seeded backoff,
    /// per-compile deadline, failure quarantine, and the per-variant
    /// circuit breaker. See [`ResilienceConfig`].
    pub fn with_resilience(mut self, cfg: ResilienceConfig) -> Compiler {
        self.resilience = cfg;
        self
    }

    /// Attach a [`ks_fault::FaultPlan`] consulted on every compile
    /// attempt (takes precedence over any process-wide
    /// [`ks_fault::install`]ed plan). Used by fault drills and tests.
    pub fn with_fault_plan(mut self, plan: Arc<ks_fault::FaultPlan>) -> Compiler {
        self.fault_plan = Some(plan);
        self
    }

    /// The active resilience policy.
    pub fn resilience(&self) -> &ResilienceConfig {
        &self.resilience
    }

    pub fn device(&self) -> &DeviceConfig {
        &self.device
    }

    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Number of binaries currently cached.
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    fn nvcc_line(&self, defines: &Defines) -> String {
        format!(
            "nvcc -arch=sm_{}{} {}",
            self.device.cc_major,
            self.device.cc_minor,
            defines.command_line()
        )
    }

    /// The stable 128-bit cache key: a fingerprint over the canonical
    /// `(source, sorted defines, device, options, passes, analysis,
    /// validation)` tuple, prefixed by the store format, binary schema,
    /// and pass-pipeline versions so any encoding or pipeline change
    /// makes old persisted artifacts unreachable instead of wrongly
    /// reusable.
    ///
    /// Computed with [`ks_store::StableHasher`] — never `DefaultHasher`,
    /// whose output is explicitly unstable across Rust releases — so the
    /// key is safe to escape the process as the on-disk identity of a
    /// compiled artifact. A regression test pins exact key values.
    ///
    /// Public so layers above can *name* a variant canonically: gpu-pf
    /// stamps it on every bound binary (keyed launch-fault checks,
    /// `Degradation`/`IntegrityViolation` records, quarantine reports)
    /// and `ks-store-scrub` postmortems match record file names back to
    /// the `-D` configuration that produced them.
    pub fn cache_key(&self, source: &str, defines: &Defines) -> Fingerprint {
        let mut h = StableHasher::new();
        h.str("ks-core.cache-key.v1");
        h.u32(ks_store::FORMAT_VERSION);
        h.u32(store::BINARY_SCHEMA_VERSION);
        h.str(store::PASS_PIPELINE);
        h.str(source);
        // Canonicalize: hash the define set sorted by name (names are
        // unique, so the order is total), never the insertion order —
        // `.def("A",1).def("B",2)` and `.def("B",2).def("A",1)` are the
        // same `-D` set and must share a cache slot.
        let mut items: Vec<&(String, String)> = defines.items.iter().collect();
        items.sort();
        h.usize(items.len());
        for (name, value) in items {
            h.str(name);
            h.str(value);
        }
        h.str(&self.device.name);
        h.u32(self.device.cc_major);
        h.u32(self.device.cc_minor);
        h.u32(self.options.unroll_limit);
        h.u32(self.options.scalarize_cap);
        h.bool(self.options.optimize);
        h.bool(self.opt_config.constfold);
        h.bool(self.opt_config.strength);
        h.bool(self.opt_config.addrfold);
        h.bool(self.opt_config.cse);
        h.bool(self.opt_config.dce);
        match &self.analysis {
            None => {
                h.u8(0);
            }
            Some(a) => {
                h.u8(1);
                feed_analysis(&mut h, a);
            }
        }
        match &self.validation {
            None => {
                h.u8(0);
            }
            Some(v) => {
                // A validation failure is a compile failure, so the
                // outcome depends on the config: key it.
                h.u8(1);
                h.usize(v.limits.max_paths);
                h.usize(v.limits.max_steps);
                h.u32(v.limits.max_forks_per_site);
                h.bool(v.deny);
            }
        }
        h.finish()
    }

    /// Compile `source` with the given defines, or return the cached
    /// binary for an identical (source, defines, device, passes)
    /// combination. Concurrent calls with the same key block on a single
    /// compilation and all receive the same `Arc<Binary>`.
    pub fn compile(
        &self,
        source: &str,
        defines: impl std::borrow::Borrow<Defines>,
    ) -> Result<Arc<Binary>, CompileError> {
        let defines = defines.borrow();
        if let Some(msg) = defines.invalid() {
            return Err(CompileError {
                message: msg.to_string(),
                command_line: self.nvcc_line(defines),
            });
        }
        let key = self.cache_key(source, defines);
        let _lookup = ks_trace::span_fields("cache-lookup", || {
            vec![
                ("device".to_string(), self.device.name.clone()),
                ("defines".to_string(), defines.command_line()),
            ]
        });
        // Fault plans are consulted per *attempt* (inside the retry
        // loop), so transient injected faults clear under retry. The
        // compiler-local plan wins over the process-wide one.
        let plan = self.fault_plan.clone().or_else(ks_fault::active);
        let identity = plan.as_ref().map(|_| {
            ks_fault::kernel_names(source)
                .into_iter()
                .next()
                .unwrap_or_else(|| "?".to_string())
        });
        let store = self.store.as_ref();
        let result = self.cache.get_or_compile(key, &self.resilience, store, || {
            if let (Some(plan), Some(id)) = (&plan, &identity) {
                if let Some(fault) = plan.check_compile(id, key.lo64(), &defines.command_line()) {
                    if fault.kind == ks_fault::FaultKind::CompilePanic {
                        panic!("{}", fault.message());
                    }
                    return Err(CompileError {
                        message: fault.message(),
                        command_line: self.nvcc_line(defines),
                    });
                }
            }
            // The miss path: this span's children are the per-phase
            // spans recorded inside `compile_uncached`, so the phase
            // durations account for the compile span end to end.
            let _compile = ks_trace::span_fields("compile", || {
                vec![
                    ("device".to_string(), self.device.name.clone()),
                    ("defines".to_string(), defines.command_line()),
                ]
            });
            let start = Instant::now();
            let result = self.compile_uncached(source, defines).map(|mut bin| {
                let elapsed = start.elapsed();
                bin.compile_time = elapsed;
                bin.metrics.total = elapsed;
                // Total latency is recorded through a per-variant
                // scope (labeled by the define set), whose handle chain
                // also covers this compiler's scope and the unlabeled
                // global — one record, every level of the roll-up.
                self.variant_total_us(defines).record_duration_us(elapsed);
                self.metrics.record_phases(&bin.metrics);
                Arc::new(bin)
            });
            // Cooperative deadline: the work already ran, but a service
            // with a compile budget would have abandoned the wait, so
            // report the attempt as failed (and let the retry policy or
            // the caller's fallback take over).
            if let (Ok(_), Some(budget)) = (&result, self.resilience.compile_timeout) {
                let elapsed = start.elapsed();
                if elapsed > budget {
                    return Err(CompileError {
                        message: format!(
                            "compile deadline exceeded: {elapsed:.1?} > budget {budget:.1?}"
                        ),
                        command_line: self.nvcc_line(defines),
                    });
                }
            }
            result
        });
        if result.is_ok() {
            self.metrics.requests.inc();
        }
        result
    }

    /// Compile a batch of jobs in parallel (rayon), preserving order.
    /// Single-flight dedup applies across the batch and against any
    /// concurrent [`Compiler::compile`] callers, so duplicate jobs cost
    /// one compilation.
    pub fn compile_batch(
        &self,
        jobs: &[(&str, Defines)],
    ) -> Vec<Result<Arc<Binary>, CompileError>> {
        use rayon::prelude::*;
        jobs.par_iter()
            .map(|(source, defines)| self.compile(source, defines))
            .collect()
    }

    /// Warm the cache with every job in parallel, failing on the first
    /// compile error. Sweep drivers call this before walking a grid so
    /// the walk itself is all cache hits.
    pub fn precompile(&self, jobs: &[(&str, Defines)]) -> Result<(), CompileError> {
        use rayon::prelude::*;
        jobs.par_iter()
            .try_for_each(|(source, defines)| self.compile(source, defines).map(drop))
    }

    /// Enqueue a background compile and return immediately with a
    /// [`CompileTicket`]. The job runs on the bounded async worker pool
    /// and goes through the same single-flight cache as
    /// [`Compiler::compile`], so a ticket and a blocking call for the
    /// same canonical key cost exactly one compilation. Poll with
    /// [`CompileTicket::try_result`], block with [`CompileTicket::wait`],
    /// or [`CompileTicket::cancel`] to supersede the job.
    ///
    /// Requires `Arc<Compiler>`: the queued job holds only a weak
    /// reference, so dropping every other handle resolves outstanding
    /// tickets with an error instead of leaking the compiler.
    pub fn spawn_compile(
        self: &Arc<Self>,
        source: &str,
        defines: impl std::borrow::Borrow<Defines>,
    ) -> CompileTicket {
        let defines = defines.borrow();
        let key = self.cache_key(source, defines);
        background::spawn(self, self.async_stats.clone(), key, source, defines)
    }

    /// Async-tier counters for this compiler (exact; see [`AsyncStats`]).
    pub fn async_stats(&self) -> AsyncStats {
        self.async_stats.snapshot()
    }

    fn compile_uncached(&self, source: &str, defines: &Defines) -> Result<Binary, CompileError> {
        let err = |message: String| CompileError {
            message,
            command_line: self.nvcc_line(defines),
        };
        let mut metrics = CompileMetrics::default();
        // Built-in architecture macro, so kernels can `#if __CUDA_ARCH__ >= 200`
        // exactly like the OpenCV example (§2.6).
        let mut all_defines: Vec<(String, String)> = vec![(
            "__CUDA_ARCH__".to_string(),
            format!("{}{}0", self.device.cc_major, self.device.cc_minor),
        )];
        all_defines.extend(defines.items().iter().cloned());

        let sp = ks_trace::span("preprocess");
        let t = Instant::now();
        let toks = ks_lang::lexer::lex(source).map_err(|e| err(e.to_string()))?;
        let pp =
            ks_lang::preproc::preprocess(toks, &all_defines).map_err(|e| err(e.to_string()))?;
        metrics.preproc = t.elapsed();
        drop(sp);
        let sp = ks_trace::span("parse");
        let t = Instant::now();
        let unit = ks_lang::parser::parse(pp).map_err(|e| err(e.to_string()))?;
        metrics.parse = t.elapsed();
        drop(sp);
        let sp = ks_trace::span("sema");
        let t = Instant::now();
        let program = ks_lang::sema::check(&unit).map_err(|e| err(e.to_string()))?;
        metrics.sema = t.elapsed();
        drop(sp);

        // Translation validation follows every kernel from its first
        // lowering through each HIR transform stage ("codegen.unroll" =
        // unroll's output vs its input) and on through each IR pass,
        // summarizing every snapshot once. Time spent in it is `verify`
        // time, carved out of the phase it interleaves with.
        let envs = ks_verify::default_envs();
        let mut stages = self
            .validation
            .map(|v| ks_verify::ModuleChain::new(&envs, v.limits));
        let mut vreport = ks_verify::VerifyReport::default();
        let mut verify_time = Duration::ZERO;

        let sp = ks_trace::span("lower");
        let t = Instant::now();
        let mut module = match &mut stages {
            Some(stages) => {
                ks_codegen::compile_observed(&program, &self.options, &mut |stage, m| {
                    let _sp = ks_trace::span("verify-codegen");
                    let tv = Instant::now();
                    vreport.merge(stages.step(m, &format!("codegen.{stage}")));
                    verify_time += tv.elapsed();
                })
            }
            None => ks_codegen::compile(&program, &self.options),
        }
        .map_err(&err)?;
        metrics.lower = t.elapsed().saturating_sub(verify_time);
        drop(sp);

        // Sanitizer: verify the IR after lowering and after every pass
        // application, attributing any breakage to the pass that caused
        // it. Always on in debug builds; opt-in via `with_analysis` in
        // release builds (the final whole-module verify below is
        // unconditional).
        let sanitize = cfg!(debug_assertions) || self.analysis.is_some();
        let sp = ks_trace::span("opt");
        let t = Instant::now();
        let verify_before_opt = verify_time;
        if sanitize || stages.is_some() {
            if let Some(e) = ks_ir::verify_module(&module).first() {
                return Err(err(format!("verification failed after lowering: {e}")));
            }
            // Summarization only needs the module for const/texture
            // naming, so a functions-less clone serves as context while
            // the real functions are mutated in place.
            let vctx = ks_ir::Module {
                functions: vec![],
                consts: module.consts.clone(),
                textures: module.textures.clone(),
            };
            let mut broken: Option<(&'static str, String)> = None;
            for f in module.functions.iter_mut() {
                let mut chain = stages.as_mut().map(|stages| {
                    let tv = Instant::now();
                    let chain = stages.detach(f, &vctx);
                    verify_time += tv.elapsed();
                    chain
                });
                // `last` tracks the start of the current pass window:
                // everything since the previous observed pass (including
                // that pass's verification) attributes to this pass.
                let mut last = Instant::now();
                ks_opt::optimize_with_observer(f, &self.opt_config, &mut |pass, f| {
                    if ks_trace::enabled() {
                        ks_trace::complete_span(&format!("opt-pass.{pass}"), last);
                    }
                    if sanitize && broken.is_none() {
                        if let Some(e) = ks_ir::verify_function(f).first() {
                            broken = Some((pass, e.to_string()));
                        }
                    }
                    if let Some(chain) = &mut chain {
                        let tv = Instant::now();
                        vreport.merge(chain.step(f, &vctx, &format!("opt.{pass}")));
                        verify_time += tv.elapsed();
                    }
                    last = Instant::now();
                });
                if let Some((pass, e)) = broken.take() {
                    return Err(err(format!("verification failed after pass `{pass}`: {e}")));
                }
            }
        } else if ks_trace::enabled() {
            // Tracing wants per-pass attribution; the observer route
            // costs one clock read per applied pass, which is only paid
            // while spans are being collected.
            for f in module.functions.iter_mut() {
                let mut last = Instant::now();
                ks_opt::optimize_with_observer(f, &self.opt_config, &mut |pass, _| {
                    ks_trace::complete_span(&format!("opt-pass.{pass}"), last);
                    last = Instant::now();
                });
            }
        } else {
            ks_opt::optimize_module_with(&mut module, &self.opt_config);
        }
        metrics.opt = t.elapsed().saturating_sub(verify_time - verify_before_opt);
        metrics.verify = verify_time;
        drop(sp);

        // Finalize translation validation: publish counters, then fail the
        // compile on any diff when the policy denies.
        if let Some(vcfg) = &self.validation {
            let tm = &self.metrics;
            tm.verify_checks.add(vreport.checks as u64);
            tm.verify_diffs.add(vreport.error_count() as u64);
            tm.verify_inconclusive.add(vreport.warning_count() as u64);
            if vcfg.deny {
                if let Some(f) = vreport.findings.iter().find(|f| f.is_error()) {
                    return Err(err(format!("translation validation failed: {f}")));
                }
            }
        }

        let sp = ks_trace::span("analysis");
        let t = Instant::now();
        let verify = ks_ir::verify_module(&module);
        if let Some(e) = verify.first() {
            return Err(err(format!("post-optimization verification failed: {e}")));
        }

        // Static-analysis suite (racecheck, barrier divergence, bounds,
        // memory lints): deny-level findings fail the compile like any
        // other error; the rest ride along on the binary.
        let mut diagnostics = Vec::new();
        if let Some(acfg) = &self.analysis {
            let report = ks_analysis::analyze_module(&module, &self.device, acfg);
            if report.has_denials() {
                return Err(err(format!("analysis failed:\n{}", report.render())));
            }
            diagnostics = report.diagnostics;
        }
        metrics.analysis = t.elapsed();
        drop(sp);

        let sp = ks_trace::span("regalloc");
        let t = Instant::now();
        let mut regalloc = HashMap::new();
        for f in &module.functions {
            regalloc.insert(f.name.clone(), ks_sim::allocate(f));
        }
        metrics.regalloc = t.elapsed();
        drop(sp);
        let sp = ks_trace::span("print");
        let ptx = ks_ir::printer::print_module(&module);
        drop(sp);
        Ok(Binary {
            ptx,
            regalloc,
            defines: defines.clone(),
            device: self.device.name.clone(),
            compile_time: Duration::ZERO,
            metrics,
            diagnostics,
            verification: vreport.findings,
            plans: plan_slots(&module),
            module,
        })
    }

    /// Check RE→SK specialization equivalence for `source` under
    /// `defines`: compiles both the generic (no-defines) and specialized
    /// modules through the normal cached pipeline, then compares the
    /// generic kernel's symbolic summary *evaluated under the bindings the
    /// defines imply* against the specialized kernel's. Returns the full
    /// report; callers decide whether findings are fatal.
    pub fn validate_specialization(
        &self,
        source: &str,
        defines: &Defines,
    ) -> Result<ks_verify::VerifyReport, CompileError> {
        let re = self.compile(source, Defines::new())?;
        let sk = self.compile(source, defines)?;
        let limits = self.validation.map(|v| v.limits).unwrap_or_default();
        let report = ks_verify::check_specialization(
            &re.module,
            &sk.module,
            source,
            defines.items(),
            limits,
        );
        let tm = &self.metrics;
        tm.verify_checks.add(report.checks as u64);
        tm.verify_diffs.add(report.error_count() as u64);
        tm.verify_inconclusive.add(report.warning_count() as u64);
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MATHTEST: &str = r#"
        // Appendix-B-style flexibly specializable kernel.
        #ifndef LOOP_COUNT
        #define LOOP_COUNT loopCount
        #endif
        #ifndef ARG_A
        #define ARG_A argA
        #endif
        #ifndef ARG_B
        #define ARG_B argB
        #endif
        #ifndef BLOCK_DIM_X
        #define BLOCK_DIM_X blockDim.x
        #endif
        __global__ void mathTest(int* in, int* out, int argA, int argB, int loopCount) {
            int acc = 0;
            const unsigned int stride = ARG_A * ARG_B;
            const unsigned int offset = blockIdx.x * BLOCK_DIM_X + threadIdx.x;
            for (int i = 0; i < LOOP_COUNT; i++) {
                acc += *(in + offset + i * stride);
            }
            *(out + offset) = acc;
            return;
        }
    "#;

    #[test]
    fn re_vs_sk_static_shape() {
        let c = Compiler::new(DeviceConfig::tesla_c1060());
        let re = c.compile(MATHTEST, Defines::new()).unwrap();
        let sk = c
            .compile(
                MATHTEST,
                Defines::new()
                    .def("LOOP_COUNT", 5)
                    .def("ARG_A", 3)
                    .def("ARG_B", 7)
                    .def("BLOCK_DIM_X", 128),
            )
            .unwrap();
        // Specialized: single basic block (no control flow), fewer regs.
        let f_sk = sk.module.function("mathTest").unwrap();
        let reachable = f_sk
            .blocks
            .iter()
            .filter(|b| !b.insts.is_empty() || !matches!(b.term, ks_ir::Terminator::Ret))
            .count();
        assert!(
            reachable <= 3,
            "specialized kernel should be nearly straight-line"
        );
        assert!(
            sk.regs_per_thread("mathTest") < re.regs_per_thread("mathTest"),
            "specialization must reduce register usage ({} vs {})",
            sk.regs_per_thread("mathTest"),
            re.regs_per_thread("mathTest")
        );
        // The RE PTX has condition checks; SK has none. SK keeps only the
        // two pointer parameter loads (in/out were not specialized here),
        // while RE also loads the three scalar parameters.
        let count = |s: &str, pat: &str| s.matches(pat).count();
        assert!(re.ptx.contains("setp"));
        assert!(!sk.ptx.contains("setp"));
        assert_eq!(count(&re.ptx, "ld.param"), 5);
        assert_eq!(count(&sk.ptx, "ld.param"), 2);
    }

    #[test]
    fn labeled_compiler_publishes_scoped_metrics() {
        // Labels unique to this test: the registry is process-global
        // and other tests move the unlabeled aggregates concurrently.
        let c = Compiler::new(DeviceConfig::tesla_c1060())
            .with_metric_labels(&[("service", "core-lbl-test")]);
        let r = ks_trace::registry();
        c.compile(MATHTEST, Defines::new()).unwrap();
        c.compile(MATHTEST, Defines::new().def("LOOP_COUNT", 5))
            .unwrap();
        c.compile(MATHTEST, Defines::new()).unwrap(); // cache hit
        assert_eq!(
            r.counter_value("ks_core.compile.requests{service=core-lbl-test}"),
            3
        );
        assert_eq!(
            r.counter_value("ks_core.cache.hits{service=core-lbl-test}"),
            1
        );
        assert_eq!(
            r.counter_value("ks_core.cache.misses{service=core-lbl-test}"),
            2
        );
        // Per-variant latency: one miss per variant cell, chained
        // through the compiler scope.
        let generic = r
            .histogram("ks_core.compile.total_us{service=core-lbl-test,variant=generic}")
            .snapshot();
        assert_eq!(generic.count, 1);
        let spec = r
            .histogram("ks_core.compile.total_us{service=core-lbl-test,variant=-D_LOOP_COUNT_5}")
            .snapshot();
        assert_eq!(spec.count, 1);
        let svc = r
            .histogram("ks_core.compile.total_us{service=core-lbl-test}")
            .snapshot();
        assert_eq!(svc.count, 2);
        assert_eq!(svc.sum, generic.sum + spec.sum);
        // The compiler's own stats are its leaves under those cells.
        let stats = c.cache_stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 2);
    }

    #[test]
    fn cache_hits_on_identical_parameters() {
        let c = Compiler::new(DeviceConfig::tesla_c1060());
        let d = Defines::new().def("LOOP_COUNT", 4);
        let b1 = c.compile(MATHTEST, &d).unwrap();
        let b2 = c.compile(MATHTEST, &d).unwrap();
        assert!(Arc::ptr_eq(&b1, &b2), "second compile must be a cache hit");
        let s = c.cache_stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
        // Different parameters miss.
        let _ = c
            .compile(MATHTEST, Defines::new().def("LOOP_COUNT", 8))
            .unwrap();
        assert_eq!(c.cache_stats().misses, 2);
    }

    #[test]
    fn define_order_is_canonicalized_in_the_cache_key() {
        let c = Compiler::new(DeviceConfig::tesla_c1060());
        let forward = Defines::new().def("ARG_A", 3).def("ARG_B", 7);
        let backward = Defines::new().def("ARG_B", 7).def("ARG_A", 3);
        // Semantically identical `-D` sets: same key, and the second
        // compile is a hit, not a spurious recompile.
        assert_eq!(
            c.cache_key(MATHTEST, &forward),
            c.cache_key(MATHTEST, &backward)
        );
        let b1 = c.compile(MATHTEST, &forward).unwrap();
        let b2 = c.compile(MATHTEST, &backward).unwrap();
        assert!(Arc::ptr_eq(&b1, &b2));
        assert_eq!(c.cache_stats().misses, 1);
        assert_eq!(c.cache_stats().hits, 1);
        // The command line still echoes insertion order faithfully.
        assert_eq!(forward.command_line(), "-D ARG_A=3 -D ARG_B=7");
        assert_eq!(backward.command_line(), "-D ARG_B=7 -D ARG_A=3");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 24, ..Default::default()
        })]

        /// Any permutation of the same define set yields the same cache
        /// key — and therefore a cache hit, never a spurious recompile.
        #[test]
        fn define_permutations_share_a_cache_slot(
            values in proptest::collection::vec(0i64..1000, 2..6),
            shuffle_seed in 0u64..10_000,
        ) {
            let names = ["ARG_A", "ARG_B", "LOOP_COUNT", "BLOCK_DIM_X", "EXTRA"];
            let pairs: Vec<(&str, i64)> = names
                .iter()
                .zip(values.iter())
                .map(|(n, v)| (*n, *v))
                .collect();
            // Fisher–Yates with a tiny deterministic LCG.
            let mut shuffled = pairs.clone();
            let mut state = shuffle_seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            for i in (1..shuffled.len()).rev() {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                shuffled.swap(i, (state % (i as u64 + 1)) as usize);
            }
            let build = |pairs: &[(&str, i64)]| {
                pairs.iter().fold(Defines::new(), |d, (n, v)| d.def(n, v))
            };
            let (a, b) = (build(&pairs), build(&shuffled));
            let c = Compiler::new(DeviceConfig::tesla_c1060());
            proptest::prop_assert_eq!(c.cache_key(MATHTEST, &a), c.cache_key(MATHTEST, &b));
            let b1 = c.compile(MATHTEST, &a).unwrap();
            let b2 = c.compile(MATHTEST, &b).unwrap();
            proptest::prop_assert!(Arc::ptr_eq(&b1, &b2), "permutation caused a recompile");
            proptest::prop_assert_eq!(c.cache_stats().misses, 1);
        }
    }

    #[test]
    fn defines_builder_and_command_line() {
        let d = Defines::new()
            .def("A", 3)
            .flag("FAST")
            .ptr("PTR_IN", 0x200ca0200);
        assert_eq!(d.command_line(), "-D A=3 -D FAST -D PTR_IN=0x200ca0200");
        // Redefinition replaces.
        let d = d.def("A", 9);
        assert!(d.command_line().contains("A=9"));
        assert!(!d.command_line().contains("A=3"));
    }

    #[test]
    fn a_binary_is_valid_where_its_defines_are_among_the_bindings() {
        let src = "__global__ void k(int* o) { o[0] = 1; }";
        let c = Compiler::new(DeviceConfig::tesla_c1060());
        let generic = c.compile(src, Defines::new()).unwrap();
        let a3 = c.compile(src, Defines::new().def("A", 3)).unwrap();
        let want = Defines::new().def("B", 1).def("A", 3);
        assert!(generic.valid_for(&want) && generic.valid_for(&Defines::new()));
        assert!(
            a3.valid_for(&want),
            "order and extra bindings do not matter"
        );
        assert!(!a3.valid_for(&Defines::new().def("A", 5)), "stale value");
        assert!(!a3.valid_for(&Defines::new()), "binding gone");
    }

    #[test]
    fn float_defines_specialize_scaling_factors() {
        let src = r#"
            #ifndef SCALE
            #define SCALE scale
            #endif
            __global__ void k(float* out, float scale) {
                out[threadIdx.x] = (float)threadIdx.x * SCALE;
            }
        "#;
        let c = Compiler::new(DeviceConfig::tesla_c1060());
        let sk = c.compile(src, Defines::new().f32("SCALE", 2.5)).unwrap();
        // The constant must appear as a float immediate in the PTX.
        assert!(
            sk.ptx.contains(&format!("0f{:08X}", 2.5f32.to_bits())),
            "{}",
            sk.ptx
        );
        // RE build keeps the parameter load instead.
        let re = c.compile(src, Defines::new()).unwrap();
        assert!(re.ptx.matches("ld.param").count() > sk.ptx.matches("ld.param").count());
    }

    #[test]
    fn non_finite_f32_defines_are_rejected_up_front() {
        let src = r#"
            #ifndef SCALE
            #define SCALE scale
            #endif
            __global__ void k(float* out, float scale) {
                out[threadIdx.x] = (float)threadIdx.x * SCALE;
            }
        "#;
        let c = Compiler::new(DeviceConfig::tesla_c1060());
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let d = Defines::new().f32("SCALE", bad);
            assert!(d.invalid().is_some(), "{bad} must poison the builder");
            let e = c.compile(src, &d).unwrap_err();
            assert!(
                e.message.contains("SCALE") && e.message.contains("finite"),
                "unclear error for {bad}: {e}"
            );
        }
        // Rejected before any caching: no stats movement.
        assert_eq!(c.cache_stats(), CacheStats::default());
        // A finite value after a non-finite one *replaces* the offending
        // entry, so the marker clears and the set compiles.
        let d = Defines::new().f32("SCALE", f32::NAN).f32("SCALE", 1.0);
        assert!(d.invalid().is_none(), "redefinition must clear the marker");
        assert!(c.compile(src, &d).is_ok());
    }

    #[test]
    fn invalid_define_markers_are_per_name() {
        // Valid then invalid: the invalid entry replaces the valid one.
        let d = Defines::new().f32("S", 1.0).f32("S", f32::NAN);
        assert!(d.invalid().is_some());
        assert!(
            !d.command_line().contains("S="),
            "the replaced valid entry must not linger: {}",
            d.command_line()
        );
        // Invalid then valid: the offending entry was replaced; cleared.
        let d = d.f32("S", 2.0);
        assert!(d.invalid().is_none());
        assert!(d.command_line().contains("S=2"));
        // def() and flag() replacements clear a marker too.
        assert!(Defines::new()
            .f32("S", f32::INFINITY)
            .def("S", 3)
            .invalid()
            .is_none());
        assert!(Defines::new()
            .f32("S", f32::NEG_INFINITY)
            .flag("S")
            .invalid()
            .is_none());
        // Distinct names track independently: clearing one does not
        // silently forgive another.
        let d = Defines::new()
            .f32("A", f32::NAN)
            .f32("B", f32::NAN)
            .f32("A", 1.0);
        assert!(d.invalid().is_some(), "B's marker must survive A's clear");
        assert!(d.invalid().unwrap().contains('B'));
        assert!(d.f32("B", 1.0).invalid().is_none());
    }

    /// Pins exact key values for fixed inputs. These keys are the
    /// on-disk identity of persisted artifacts: if this test fails, the
    /// fingerprint computation changed and every existing store written
    /// by a previous build is orphaned. Either revert the change or
    /// accept the invalidation *deliberately* by bumping the domain tag
    /// in `cache_key` and re-pinning.
    #[test]
    fn cache_keys_are_pinned_for_fixed_inputs() {
        let src = "__global__ void k(int* o) { o[0] = 1; }";
        let c = Compiler::new(DeviceConfig::tesla_c1060());
        let c2 = Compiler::new(DeviceConfig::tesla_c2070());
        let keys = [
            c.cache_key(src, &Defines::new()).to_hex(),
            c.cache_key(src, &Defines::new().def("A", 1).def("B", 2))
                .to_hex(),
            c2.cache_key(src, &Defines::new()).to_hex(),
        ];
        assert_eq!(
            keys,
            [
                "f67b81dd2904aa1bcb6f6575a3ace48a".to_string(),
                "7eb9abd86c740598a889bfde8f304aee".to_string(),
                "5386e440d87047af2a43bf7843aff400".to_string(),
            ]
        );
    }

    #[test]
    fn cuda_arch_macro_selects_per_device() {
        let src = r#"
            __global__ void k(int* out) {
            #if __CUDA_ARCH__ >= 200
                out[0] = 200;
            #else
                out[0] = 130;
            #endif
            }
        "#;
        let c1 = Compiler::new(DeviceConfig::tesla_c1060());
        let c2 = Compiler::new(DeviceConfig::tesla_c2070());
        let b1 = c1.compile(src, Defines::new()).unwrap();
        let b2 = c2.compile(src, Defines::new()).unwrap();
        let find_store_imm = |b: &Binary| {
            b.module.function("k").unwrap().blocks[0]
                .insts
                .iter()
                .find_map(|i| match i {
                    ks_ir::Inst::St {
                        src: ks_ir::Operand::ImmI(v),
                        ..
                    } => Some(*v),
                    _ => None,
                })
                .unwrap()
        };
        assert_eq!(find_store_imm(&b1), 130);
        assert_eq!(find_store_imm(&b2), 200);
    }

    #[test]
    fn analysis_denials_fail_the_compile() {
        let src = r#"
            __global__ void k(float* out) {
                __shared__ float s[64];
                int t = (int)threadIdx.x;
                s[t] = 1.0f;
                if (t < 16) {
                    __syncthreads();
                }
                out[t] = s[t];
            }
        "#;
        // Without analysis the kernel compiles.
        let plain = Compiler::new(DeviceConfig::tesla_c2070());
        assert!(plain.compile(src, Defines::new()).is_ok());
        // With it, the divergent barrier is a KSA002 deny.
        let c = Compiler::new(DeviceConfig::tesla_c2070())
            .with_analysis(ks_analysis::AnalysisConfig::default());
        let e = c.compile(src, Defines::new()).unwrap_err();
        assert!(e.message.contains("KSA002"), "{}", e.message);
        // Demoted to a warning, it compiles and rides on the binary.
        let c =
            Compiler::new(DeviceConfig::tesla_c2070()).with_analysis(ks_analysis::AnalysisConfig {
                levels: vec![(
                    ks_analysis::LintCode::BarrierDivergence,
                    ks_analysis::Severity::Warn,
                )],
                ..Default::default()
            });
        let bin = c.compile(src, Defines::new()).unwrap();
        assert_eq!(bin.diagnostics.len(), 1);
        assert_eq!(
            bin.diagnostics[0].code,
            ks_analysis::LintCode::BarrierDivergence
        );
    }

    #[test]
    fn analysis_config_is_part_of_the_cache_key() {
        // Same source, different analysis geometry: must not share a
        // cache slot (diagnostics depend on it).
        let c = Compiler::new(DeviceConfig::tesla_c1060())
            .with_analysis(ks_analysis::AnalysisConfig::default());
        let _ = c.compile(MATHTEST, Defines::new()).unwrap();
        assert_eq!(c.cache_stats().misses, 1);
        let c2 =
            Compiler::new(DeviceConfig::tesla_c1060()).with_analysis(ks_analysis::AnalysisConfig {
                block_dim: Some((32, 1, 1)),
                ..Default::default()
            });
        // Keys differ across configs even though source and defines match.
        assert_ne!(
            c.cache_key(MATHTEST, &Defines::new()),
            c2.cache_key(MATHTEST, &Defines::new())
        );
    }

    #[test]
    fn compile_errors_carry_command_line() {
        let c = Compiler::new(DeviceConfig::tesla_c1060());
        let err = c.compile("__global__ void k(int* o) { o[0] = wat; }", Defines::new());
        let e = err.unwrap_err();
        assert!(e.message.contains("wat"));
        assert!(e.command_line.contains("nvcc"));
    }

    #[test]
    fn metrics_cover_the_pipeline_phases() {
        let c = Compiler::new(DeviceConfig::tesla_c1060());
        let bin = c
            .compile(MATHTEST, Defines::new().def("LOOP_COUNT", 8))
            .unwrap();
        let m = &bin.metrics;
        assert_eq!(m.total, bin.compile_time);
        assert!(m.total > Duration::ZERO);
        // The itemized phases never exceed the end-to-end wall clock.
        let itemized = m.preproc + m.parse + m.sema + m.lower + m.opt + m.analysis + m.regalloc;
        assert!(
            itemized <= m.total,
            "phases {itemized:?} exceed total {:?}",
            m.total
        );
        assert!(m.summary().contains("preproc"));
    }

    #[test]
    fn compile_batch_preserves_order_and_dedupes() {
        let c = Compiler::new(DeviceConfig::tesla_c1060());
        let jobs: Vec<(&str, Defines)> = vec![
            (MATHTEST, Defines::new().def("LOOP_COUNT", 2)),
            (MATHTEST, Defines::new().def("LOOP_COUNT", 3)),
            // Duplicate of the first job: must not cost a second compile.
            (MATHTEST, Defines::new().def("LOOP_COUNT", 2)),
            ("__global__ void k(int* o) { o[0] = wat; }", Defines::new()),
        ];
        let results = c.compile_batch(&jobs);
        assert_eq!(results.len(), 4);
        assert!(results[0].is_ok() && results[1].is_ok() && results[2].is_ok());
        assert!(Arc::ptr_eq(
            results[0].as_ref().unwrap(),
            results[2].as_ref().unwrap()
        ));
        assert!(results[3].is_err(), "bad job must fail in place");
        let s = c.cache_stats();
        assert_eq!(s.misses, 2, "duplicate job must dedup, got {s}");
        // precompile over the good jobs is now free (all hits).
        let good = &jobs[..3];
        let before = c.cache_stats();
        c.precompile(good).unwrap();
        let after = c.cache_stats();
        assert_eq!(after.misses, before.misses);
        assert_eq!(after.hits, before.hits + 3);
    }

    #[test]
    fn cache_capacity_bounds_entries_with_lru_eviction() {
        let c = Compiler::new(DeviceConfig::tesla_c1060()).with_cache_capacity(3);
        for i in 0..8 {
            let _ = c
                .compile(MATHTEST, Defines::new().def("LOOP_COUNT", i + 1))
                .unwrap();
        }
        let s = c.cache_stats();
        assert_eq!(s.misses, 8);
        assert!(c.cache_len() <= 3, "capacity exceeded: {}", c.cache_len());
        assert_eq!(s.evictions, 8 - c.cache_len() as u64);
    }

    #[test]
    fn dynamically_sized_constant_memory() {
        // §4.1: specialization converts fixed-size constant declarations to
        // dynamically sized ones.
        let src = r#"
            #ifndef KSIZE
            #define KSIZE 32
            #endif
            __constant__ float filt[KSIZE];
            __global__ void k(float* o) { o[threadIdx.x] = filt[threadIdx.x]; }
        "#;
        let c = Compiler::new(DeviceConfig::tesla_c1060());
        let small = c.compile(src, Defines::new().def("KSIZE", 8)).unwrap();
        let big = c.compile(src, Defines::new().def("KSIZE", 4096)).unwrap();
        assert_eq!(small.module.const_bytes(), 32);
        assert_eq!(big.module.const_bytes(), 16384);
        // Exceeding the 64 KB limit is a compile error, as on real CUDA.
        assert!(c.compile(src, Defines::new().def("KSIZE", 20000)).is_err());
    }
}
