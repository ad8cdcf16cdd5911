//! The metric tables: every name a run prints, with its unit. The names
//! and units here are the ones `BENCHMARK.json` lists (`--check`
//! compares the two); definitions and estimators are in `README.md`.

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// A count the program makes that must repeat exactly between two
    /// runs of one seed (`--check` enforces it).
    pub exact: bool,
}

const fn timed(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        exact: true,
    }
}

/// End-to-end metrics, reported by every workload from untraced runs.
pub const END_TO_END: &[Metric] = &[
    timed("setup_s", "s"),
    timed("ops_per_s", "1/s"),
    timed("op_ms_p50", "ms"),
    timed("op_ms_p95", "ms"),
    timed("warp_insts_per_s", "1/s"),
    timed("peak_rss_mb", "MB"),
    exact("sim_cycles", "cycles"),
    exact("static_insts", "insts"),
];

/// Per-layer metrics, reported by every workload from the traced run.
/// A time or count of 0 means the layer did no work on that workload.
pub const PER_LAYER: &[Metric] = &[
    // ks-lang
    timed("lang.lex_us", "us"),
    timed("lang.preproc_us", "us"),
    timed("lang.parse_us", "us"),
    timed("lang.sema_us", "us"),
    exact("lang.tokens", "count"),
    // ks-codegen
    timed("codegen.lower_us", "us"),
    exact("codegen.insts_out", "insts"),
    // ks-opt
    timed("opt.total_us", "us"),
    timed("opt.constfold_us", "us"),
    timed("opt.strength_us", "us"),
    timed("opt.addrfold_us", "us"),
    timed("opt.cse_us", "us"),
    timed("opt.dce_us", "us"),
    exact("opt.pass_calls", "count"),
    exact("opt.folded", "count"),
    exact("opt.strength_reduced", "count"),
    exact("opt.addresses_folded", "count"),
    exact("opt.cse_replaced", "count"),
    exact("opt.dead_removed", "count"),
    exact("opt.insts_in", "insts"),
    exact("opt.insts_out", "insts"),
    // ks-ir
    timed("ir.verify_us", "us"),
    timed("ir.print_us", "us"),
    exact("ir.ptx_bytes", "bytes"),
    // ks-analysis
    timed("analysis.analyze_us", "us"),
    // ks-verify
    timed("verify.spec_us", "us"),
    timed("verify.checked_extra_us", "us"),
    exact("verify.checks", "count"),
    exact("verify.inconclusive", "count"),
    // ks-sim
    timed("sim.regalloc_us", "us"),
    exact("sim.regs_max", "count"),
    timed("sim.launch_fixed_us", "us"),
    timed("sim.timing_only_us", "us"),
    timed("sim.functional_us", "us"),
    timed("sim.tm.launch_us", "us"),
    timed("sim.piv.launch_us", "us"),
    timed("sim.bp.launch_us", "us"),
    timed("sim.tm.warp_insts_per_s", "1/s"),
    timed("sim.piv.warp_insts_per_s", "1/s"),
    timed("sim.bp.warp_insts_per_s", "1/s"),
    exact("sim.dyn_insts", "insts"),
    exact("sim.global_bytes", "bytes"),
    exact("sim.shared_accesses", "count"),
    exact("sim.divergent_branches", "count"),
    exact("sim.barriers", "count"),
    timed("sim.cpu_per_wall", "ratio"),
    // ks-core
    timed("core.compile_cold_us", "us"),
    timed("core.self_us", "us"),
    timed("core.cache_key_ns", "ns"),
    timed("core.hit_ns", "ns"),
    timed("core.disk_hit_us", "us"),
    timed("core.decode_us", "us"),
    timed("core.publish_us", "us"),
    timed("core.spawn_us", "us"),
    timed("core.queue_wait_us_p50", "us"),
    timed("core.batch_variants_per_s", "1/s"),
    timed("core.batch_speedup", "ratio"),
    exact("core.requests", "count"),
    exact("core.hits", "count"),
    exact("core.misses", "count"),
    exact("core.disk_hits", "count"),
    exact("core.dedup_waits", "count"),
    exact("core.evictions", "count"),
    exact("core.store_errors", "count"),
    exact("core.async_spawned", "count"),
    exact("core.async_completed", "count"),
    exact("core.async_cancelled", "count"),
    // ks-store
    timed("store.save_us", "us"),
    timed("store.load_us", "us"),
    timed("store.scrub_us_per_record", "us"),
    exact("store.records", "count"),
    exact("store.bytes", "bytes"),
    // gpu-pf
    timed("pf.refresh_hit_us", "us"),
    timed("pf.refresh_tiered_us", "us"),
    timed("pf.iter_us", "us"),
    timed("pf.self_us", "us"),
    timed("pf.self_share", "ratio"),
    timed("pf.integrity_base_us", "us"),
    timed("pf.integrity_overhead_pct", "%"),
    timed("pf.witness_us", "us"),
    timed("pf.poll_idle_ns", "ns"),
    timed("pf.copy_us_per_mb", "us"),
    timed("pf.iter_ms_p95", "ms"),
    timed("pf.first_launch_us_p50", "us"),
    timed("pf.first_launch_us_p95", "us"),
    timed("pf.promotion_ms_p50", "ms"),
    exact("pf.promotions", "count"),
    exact("pf.promotions_failed", "count"),
    exact("pf.degradations", "count"),
    exact("pf.integrity_checks", "count"),
    exact("pf.witness_launches", "count"),
    exact("pf.violations", "count"),
    timed("pf.specialized_share", "ratio"),
    // ks-trace
    timed("trace.counter_inc_ns", "ns"),
    timed("trace.hist_record_ns", "ns"),
    timed("trace.span_off_ns", "ns"),
    timed("trace.span_on_ns", "ns"),
    timed("trace.snapshot_us", "us"),
    timed("trace.registry_cells", "count"),
    // the benchmark itself
    timed("bench.trace_overhead_pct", "%"),
    exact("bench.spans", "count"),
    timed("bench.launch_share", "ratio"),
    timed("bench.fixed_share", "ratio"),
    timed("bench.compile_share", "ratio"),
    exact("loc.total", "lines"),
    exact("loc.analysis", "lines"),
    exact("loc.apps", "lines"),
    exact("loc.bench", "lines"),
    exact("loc.codegen", "lines"),
    exact("loc.core", "lines"),
    exact("loc.fault", "lines"),
    exact("loc.gpu-pf", "lines"),
    exact("loc.ir", "lines"),
    exact("loc.lang", "lines"),
    exact("loc.opt", "lines"),
    exact("loc.sim", "lines"),
    exact("loc.store", "lines"),
    exact("loc.trace", "lines"),
    exact("loc.tune", "lines"),
    exact("loc.verify", "lines"),
];
