//! # ks-trace — unified tracing, metrics, and per-kernel profiling
//!
//! The dissertation's methodology lives on measurement: Appendix-G refresh
//! logs, §4.3 per-phase compile timing, and the Chapter-6 runtime tables
//! all depend on knowing where cycles and compiles go. Before this crate,
//! every subsystem spoke its own dialect — `CompileMetrics` in ks-core,
//! `ExecStats` in ks-sim, `CacheStats` in the binary cache, a bespoke line
//! `Logger` in gpu-pf. ks-trace is the one layer they all publish into:
//!
//! * **Spans** ([`span`], [`SpanGuard`], [`SpanRecord`]) — monotonic,
//!   nested timing of the full pipeline path `compile → preprocess →
//!   parse → sema → lower → opt-pass(each) → analysis → regalloc →
//!   cache-lookup → launch → pipeline-iteration`. Zero-cost when tracing
//!   is disabled (the default): a disabled [`SpanGuard`] records nothing
//!   and never reads the clock.
//! * **Metrics registry** ([`registry`], [`Counter`], [`Gauge`],
//!   [`Histogram`]) — process-wide named counters, gauges, and log-scale
//!   histograms with p50/p95/p99 queries. ks-core publishes compile
//!   latency per phase and cache hit/miss/dedup/eviction counts, ks-sim
//!   publishes dynamic instructions / global bytes / divergent branches /
//!   occupancy, gpu-pf publishes pipeline iterations. Canonical metric names live in [`names`].
//! * **[`KernelProfile`]** — the joined report for one specialized
//!   kernel: per-phase compile breakdown, cache counters, simulator
//!   execution counters, analysis diagnostics, and the span tree;
//!   rendered as text, JSON-lines (schema-validated via
//!   [`validate_profile_jsonl`]) or Prometheus exposition (checked by
//!   [`validate_prometheus`]) and surfaced by the `ks-prof` CLI (in
//!   ks-apps). [`spans_to_text`] and [`metrics_to_text`] render a span
//!   list and a registry snapshot for humans.
//! * **Live telemetry** ([`History`], [`WindowView`], [`Watchdog`],
//!   [`StreamSink`]) — rolling windows over the registry, the
//!   edge-triggered SDC-rate SLO rule, and a bounded never-blocking JSONL
//!   sink; driven by `ks-prof watch`.
//!
//! ```
//! use ks_trace::{registry, span, spans_to_text};
//!
//! ks_trace::set_enabled(true);
//! {
//!     let _outer = span("compile");
//!     let _inner = span("parse");
//!     registry().counter("demo.compiles").inc();
//! }
//! let spans = ks_trace::drain_spans();
//! assert!(spans.iter().any(|s| s.name == "parse" && s.depth == 1));
//! println!("{}", spans_to_text(&spans));
//! ks_trace::set_enabled(false);
//! ```

mod export;
mod json;
mod metrics;
mod profile;
mod scope;
mod span;
mod subscriber;
mod watchdog;
mod window;

pub use export::{metrics_to_text, spans_to_text, validate_prometheus};
pub use json::Json;
pub use metrics::{
    registry, Counter, Gauge, Histogram, HistogramSnapshot, MetricsSnapshot, Registry,
};
pub use profile::{validate_profile_jsonl, CompileProfile, KernelProfile};
pub use scope::{scoped_counter_sum, scoped_name, Scope};
pub use span::{
    complete_span, drain_spans, enabled, set_enabled, span, span_fields, SpanGuard, SpanRecord,
};
pub use subscriber::StreamSink;
pub use watchdog::{CounterRule, SloEvent, Watchdog};
pub use window::{History, WindowSummary, WindowView};

/// Canonical metric names. Publishers and consumers meet here so
/// `ks-prof`, `ks-bench --assert-warm` and tests all read the counters
/// the pipeline actually writes.
pub mod names {
    /// Cache hits (including single-flight dedup joins), as in
    /// `CacheStats::hits`.
    pub const CACHE_HITS: &str = "ks_core.cache.hits";
    /// Cache misses (actual compilations), as in `CacheStats::misses`.
    pub const CACHE_MISSES: &str = "ks_core.cache.misses";
    /// LRU evictions, as in `CacheStats::evictions`.
    pub const CACHE_EVICTIONS: &str = "ks_core.cache.evictions";
    /// Calls that blocked on another thread's in-flight compilation.
    pub const CACHE_DEDUP_WAITS: &str = "ks_core.cache.dedup_waits";
    /// Successful `Compiler::compile` calls. At quiescence,
    /// `CACHE_HITS + CACHE_MISSES == COMPILE_REQUESTS`.
    pub const COMPILE_REQUESTS: &str = "ks_core.compile.requests";
    /// End-to-end compile latency histogram (µs), misses only.
    pub const COMPILE_TOTAL_US: &str = "ks_core.compile.total_us";
    /// Per-phase compile latency histogram name (µs), misses only.
    pub fn compile_phase_us(phase: &str) -> String {
        format!("ks_core.compile.phase_us.{phase}")
    }
    /// Translation-validation comparisons performed, misses only, when
    /// validation is enabled: one per (function, env) of a codegen stage,
    /// one per (function, step) of the optimizer plus one per env of a
    /// block-check fallback (`VerifyReport::checks`).
    pub const VERIFY_CHECKS: &str = "ks_verify.checks";
    /// Translation-validation *error* findings (KSV0xx): a pass or a
    /// specialization changed observable behavior.
    pub const VERIFY_DIFFS: &str = "ks_verify.diffs";
    /// Inconclusive verification outcomes (KSV101): budgets stopped
    /// evaluation before a verdict.
    pub const VERIFY_INCONCLUSIVE: &str = "ks_verify.inconclusive";
    /// Optimizer pass steps whose block-by-block check did not match and
    /// fell back to the whole-function path check
    /// (`VerifyReport::block_fallbacks`).
    pub const VERIFY_BLOCK_FALLBACKS: &str = "ks_verify.block_fallbacks";
    /// Simulator launches completed.
    pub const SIM_LAUNCHES: &str = "ks_sim.launches";
    /// Completed launches whose timing sample came from their plan's
    /// timing memo (every block ran untimed). At quiescence,
    /// `SIM_MEMO_HITS + SIM_MEMO_MISSES + SIM_MEMO_INELIGIBLE ==
    /// SIM_LAUNCHES`.
    pub const SIM_MEMO_HITS: &str = "ks_sim.memo.hits";
    /// Completed launches of a data-independent plan that timed their
    /// sample blocks (first sight of the key).
    pub const SIM_MEMO_MISSES: &str = "ks_sim.memo.misses";
    /// Completed launches of a plan whose timing can depend on data.
    pub const SIM_MEMO_INELIGIBLE: &str = "ks_sim.memo.ineligible";
    /// Dynamic instructions, summed over launches (`ExecStats::dyn_insts`).
    pub const SIM_DYN_INSTS: &str = "ks_sim.dyn_insts";
    /// Global-memory bytes moved (`ExecStats::global_bytes`).
    pub const SIM_GLOBAL_BYTES: &str = "ks_sim.global_bytes";
    /// Divergent branches (`ExecStats::divergent_branches`).
    pub const SIM_DIVERGENT_BRANCHES: &str = "ks_sim.divergent_branches";
    /// Barriers executed (`ExecStats::barriers`).
    pub const SIM_BARRIERS: &str = "ks_sim.barriers";
    /// Simulated kernel time histogram (µs of simulated time).
    pub const SIM_TIME_US: &str = "ks_sim.time_us";
    /// Occupancy of the most recent launch (gauge, 0..=1).
    pub const SIM_OCCUPANCY: &str = "ks_sim.occupancy";
    /// GPU-PF pipeline iterations executed.
    pub const PF_ITERATIONS: &str = "gpu_pf.iterations";
    /// GPU-PF refresh phases completed.
    pub const PF_REFRESHES: &str = "gpu_pf.refreshes";
    /// Compile retry attempts after a leader failure
    /// (`CacheStats::retries`).
    pub const COMPILE_RETRIES: &str = "ks_core.compile.retries";
    /// `Compiler::compile` calls that returned an error
    /// (`CacheStats::failures`). Failures are itemized outside the
    /// `hits + misses == requests` invariant, which counts successes.
    pub const CACHE_FAILURES: &str = "ks_core.cache.failures";
    /// Calls fast-failed from a quarantined (recently failed) entry
    /// without re-compiling (`CacheStats::quarantined`).
    pub const CACHE_QUARANTINED: &str = "ks_core.cache.quarantined";
    /// Per-variant circuit-breaker open transitions
    /// (`CacheStats::breaker_opens`).
    pub const BREAKER_OPEN: &str = "ks_core.breaker.open";
    /// Compile calls served from the persistent artifact store
    /// (`CacheStats::disk_hits`; each is also counted in `CACHE_HITS`).
    pub const STORE_DISK_HITS: &str = "ks_core.store.disk_hits";
    /// Leader compiles that probed an attached store and found no
    /// record (`CacheStats::disk_misses`).
    pub const STORE_DISK_MISSES: &str = "ks_core.store.disk_misses";
    /// Store read/write failures degraded to a recompile
    /// (`CacheStats::store_errors`).
    pub const STORE_ERRORS: &str = "ks_core.store.errors";
    /// Device faults injected by an active `ks_fault::FaultPlan`.
    pub const SIM_FAULTS_INJECTED: &str = "ks_sim.faults_injected";
    /// GPU-PF refreshes that degraded a module to the generic
    /// (unspecialized) kernel binary after a failed specialized compile.
    pub const PF_FALLBACK_GENERIC: &str = "gpu_pf.fallback.generic";
    /// GPU-PF refreshes that kept a module's last-known-good binary
    /// after a failed specialized compile.
    pub const PF_FALLBACK_LAST_GOOD: &str = "gpu_pf.fallback.last_good";
    /// GPU-PF kernel launches retried after a transient device fault.
    pub const PF_LAUNCH_RETRIES: &str = "gpu_pf.launch.retries";
    /// Background compile tickets enqueued via `Compiler::spawn_compile`.
    /// At quiescence, `ASYNC_SPAWNED == ASYNC_COMPLETED + ASYNC_FAILED +
    /// ASYNC_CANCELLED`.
    pub const ASYNC_SPAWNED: &str = "ks_core.async.spawned";
    /// Background compiles that resolved with a binary.
    pub const ASYNC_COMPLETED: &str = "ks_core.async.completed";
    /// Background compiles that resolved with a `CompileError` (including
    /// worker-site injected faults and dropped compilers).
    pub const ASYNC_FAILED: &str = "ks_core.async.failed";
    /// Tickets cancelled before their job ran (superseded promotions).
    pub const ASYNC_CANCELLED: &str = "ks_core.async.cancelled";
    /// Queue wait histogram (µs): enqueue → worker pickup.
    pub const ASYNC_QUEUE_WAIT_US: &str = "ks_core.async.queue_wait_us";
    /// GPU-PF modules hot-swapped from a fallback tier to their
    /// specialized binary (`tier_swap` spans mark each one).
    pub const PF_PROMOTIONS: &str = "gpu_pf.promotions";
    /// GPU-PF promotions whose background compile failed; the module
    /// keeps its fallback binary and retries on the next refresh.
    pub const PF_PROMOTIONS_FAILED: &str = "gpu_pf.promotions.failed";
    /// In-flight promotions superseded because the module was re-dirtied
    /// before the ticket resolved; the stale ticket is cancelled and its
    /// result (if any) discarded.
    pub const PF_PROMOTIONS_SUPERSEDED: &str = "gpu_pf.promotions.superseded";
    /// Promotion latency histogram (µs): ticket spawn → hot-swap. The
    /// same interval the `tier_swap` spans record, always-on.
    pub const PF_PROMOTION_LATENCY_US: &str = "gpu_pf.promotion.latency_us";
    /// Per-iteration pipeline wall time histogram (µs). Scoped
    /// per-pipeline, this is the windowed-p95 readout `ks-prof watch`
    /// displays.
    pub const PF_ITERATION_US: &str = "gpu_pf.iteration_us";
    /// Time-in-tier dwell histogram name (µs) for one tier
    /// (`generic` / `promoting` / `specialized` / `failed`): how long a
    /// module sat on that tier before transitioning off it.
    pub fn pf_tier_dwell_us(tier: &str) -> String {
        format!("gpu_pf.tier.dwell_us.{tier}")
    }
    /// Typed SLO-breach events emitted by the [`crate::Watchdog`].
    pub const SLO_BREACHES: &str = "ks_trace.slo.breaches";
    /// SLO recoveries (breached metric back within budget).
    pub const SLO_RECOVERIES: &str = "ks_trace.slo.recoveries";
    /// Lines dropped by bounded [`crate::StreamSink`]s (ring full; the
    /// hot path never blocks on a slow consumer).
    pub const SINK_DROPPED: &str = "ks_trace.sink.dropped";
    /// Silent bit flips actually applied to device memory by an active
    /// `ks_fault::FaultPlan` (`FaultKind::SilentFlip`). Counted only
    /// when a bit changed, so a drill can reconcile corruptions applied
    /// vs. detected exactly.
    pub const SIM_SILENT_FLIPS: &str = "ks_sim.silent_flips";
    /// GPU-PF integrity checks performed (one per integrity-checked
    /// exec launch: checksum and, when scheduled, witness comparison).
    pub const PF_INTEGRITY_CHECKS: &str = "gpu_pf.integrity.checks";
    /// Witness launches: the generic (RE) binary re-run on the saved
    /// pre-launch inputs to referee the specialized output.
    pub const PF_INTEGRITY_WITNESS: &str = "gpu_pf.integrity.witness_launches";
    /// Typed `IntegrityViolation`s raised (golden-checksum or witness
    /// mismatch). The SDC-rate watchdog rule breaches on this counter.
    pub const PF_INTEGRITY_VIOLATIONS: &str = "gpu_pf.integrity.violations";
    /// Violations triaged as transient device flips by N-of-M
    /// re-execution voting (the binary reproduced the witness output).
    pub const PF_INTEGRITY_TRANSIENT: &str = "gpu_pf.integrity.transient_flips";
    /// Violations triaged as corrupt binaries (re-executions kept
    /// disagreeing with the witness); the variant is quarantined through
    /// the degradation ladder.
    pub const PF_INTEGRITY_CORRUPT: &str = "gpu_pf.integrity.corrupt_binaries";
    /// Violations fully recovered: the iteration re-executed cleanly and
    /// the output now matches the witness.
    pub const PF_INTEGRITY_RECOVERED: &str = "gpu_pf.integrity.recovered";
    /// Launches re-executed during violation triage and recovery
    /// (voting re-runs plus the final clean re-execution).
    pub const PF_INTEGRITY_REEXECS: &str = "gpu_pf.integrity.reexecutions";
    /// Records visited by a `ks_store` scrub walk.
    pub const STORE_SCRUB_SCANNED: &str = "ks_store.scrub.scanned";
    /// Records a scrub walk moved into `quarantine/` (corrupt payload,
    /// bad header, or unparsable name).
    pub const STORE_SCRUB_QUARANTINED: &str = "ks_store.scrub.quarantined";
}
