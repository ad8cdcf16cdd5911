//! Per-layer metrics: derived from the traced lap's spans and counts,
//! plus the micro-probes. Times are totals over the traced lap in µs
//! unless the name says otherwise (`_p50`, `_ns`, `_per_`); a layer that
//! did no work on a workload reads 0 there.

use crate::metrics::PER_LAYER;
use crate::stats::{median, percentile, ratio};
use crate::trace::{Kind, Span, Tracer};
use crate::workloads::Lap;
use std::collections::BTreeMap;

/// Metrics that are the summed duration of one span name.
const SPAN_TOTALS: &[(&str, &str)] = &[
    ("lang.lex_us", "lang.lex"),
    ("lang.preproc_us", "lang.preproc"),
    ("lang.parse_us", "lang.parse"),
    ("lang.sema_us", "lang.sema"),
    ("codegen.lower_us", "codegen.lower"),
    ("opt.total_us", "opt.total"),
    ("opt.constfold_us", "opt.constfold"),
    ("opt.strength_us", "opt.strength"),
    ("opt.addrfold_us", "opt.addrfold"),
    ("opt.cse_us", "opt.cse"),
    ("opt.dce_us", "opt.dce"),
    ("ir.verify_us", "ir.verify"),
    ("ir.print_us", "ir.print"),
    ("analysis.analyze_us", "analysis.analyze"),
    ("verify.spec_us", "verify.spec"),
    ("sim.regalloc_us", "sim.regalloc"),
    ("sim.timing_only_us", "sim.timing_only"),
    ("sim.tm.launch_us", "sim.tm.launch"),
    ("sim.piv.launch_us", "sim.piv.launch"),
    ("sim.bp.launch_us", "sim.bp.launch"),
    ("core.compile_cold_us", "core.compile_cold"),
    ("core.disk_hit_us", "core.disk_hit"),
    ("store.save_us", "store.save"),
    ("store.load_us", "store.load"),
];

const LAUNCH_SPANS: [&str; 3] = ["sim.tm.launch", "sim.piv.launch", "sim.bp.launch"];

/// What the run measured outside the traced lap.
pub struct Context {
    /// Median op latency of the untraced lap that preceded the traced
    /// one (the base of `bench.trace_overhead_pct`).
    pub untraced_op_ms_p50: f64,
    /// Process CPU seconds ÷ wall seconds over that untraced lap.
    pub cpu_per_wall: f64,
    pub probes: BTreeMap<&'static str, f64>,
}

pub fn collect(tr: &Tracer, lap: &Lap, ctx: Context) -> BTreeMap<&'static str, f64> {
    let mut m: BTreeMap<&'static str, f64> = ctx.probes;
    for (metric, span) in SPAN_TOTALS {
        m.insert(metric, tr.total_us(span));
    }
    let count = |name: &str| lap.exact.get(name).copied().unwrap_or(0) as f64;
    let wall_us = lap.wall_s() * 1e6;

    // ks-core / ks-verify / ks-store differences between whole calls.
    let cold = tr.total_us("core.compile_cold");
    m.insert("core.self_us", cold - tr.total_us("core.phases"));
    m.insert("core.publish_us", tr.total_us("core.compile_store") - cold);
    m.insert(
        "core.decode_us",
        tr.total_us("core.disk_hit") - tr.total_us("store.load"),
    );
    m.insert(
        "store.scrub_us_per_record",
        ratio(tr.total_us("store.scrub"), count("store.scrubbed")),
    );
    // Per operation: the compile that ran on the clock was the checked
    // one where a checked replay exists, the plain one otherwise.
    let by_op = |name: &str| -> BTreeMap<u64, f64> {
        let mut out = BTreeMap::new();
        for s in tr.spans().iter().filter(|s| s.name == name) {
            *out.entry(s.op).or_default() += s.us();
        }
        out
    };
    let cold_by_op = by_op("core.compile_cold");
    let checked_by_op = by_op("core.compile_checked");
    let mut checked_extra = 0.0;
    let mut on_path = 0.0;
    for (op, cold) in &cold_by_op {
        match checked_by_op.get(op) {
            Some(checked) => {
                checked_extra += checked - cold;
                on_path += checked;
            }
            None => on_path += cold,
        }
    }
    m.insert("verify.checked_extra_us", checked_extra);
    m.insert("bench.compile_share", ratio(on_path, wall_us));

    // ks-sim: replayed launches.
    let launches: f64 = LAUNCH_SPANS.iter().map(|s| tr.total_us(s)).sum();
    m.insert(
        "sim.functional_us",
        launches - tr.total_us("sim.timing_only"),
    );
    for (rate, insts, span) in [
        (
            "sim.tm.warp_insts_per_s",
            "sim.tm.replayed_insts",
            LAUNCH_SPANS[0],
        ),
        (
            "sim.piv.warp_insts_per_s",
            "sim.piv.replayed_insts",
            LAUNCH_SPANS[1],
        ),
        (
            "sim.bp.warp_insts_per_s",
            "sim.bp.replayed_insts",
            LAUNCH_SPANS[2],
        ),
    ] {
        m.insert(rate, ratio(count(insts), tr.total_us(span) / 1e6));
    }
    m.insert("sim.cpu_per_wall", ctx.cpu_per_wall);
    m.insert(
        "sim.launch_fixed_us",
        median(&tr.durations_us("sim.one_block")),
    );

    // gpu-pf: `run(1)` boundaries, and self time where launches were
    // replayed beneath them.
    let runs: Vec<&Span> = tr.spans().iter().filter(|s| s.name == "pf.run").collect();
    let run_us: Vec<f64> = runs.iter().map(|s| s.us()).collect();
    m.insert("pf.iter_us", median(&run_us));
    m.insert("pf.iter_ms_p95", percentile(&run_us, 95.0) / 1e3);
    let mut replayed: BTreeMap<u32, f64> = BTreeMap::new();
    for s in tr.spans() {
        if let (Kind::Replay, Some(parent), true) =
            (s.kind, s.parent, LAUNCH_SPANS.contains(&s.name))
        {
            *replayed.entry(parent).or_default() += s.us();
        }
    }
    let matched: f64 = runs
        .iter()
        .filter(|r| replayed.contains_key(&r.id))
        .map(|r| r.us())
        .sum();
    let self_us = matched - replayed.values().sum::<f64>();
    m.insert("pf.self_us", self_us);
    m.insert("pf.self_share", ratio(self_us, matched));
    // Launch share of the timed wall, and the part of it a one-block
    // grid already costs; where only some runs were replayed (`adapt`),
    // the replayed ones stand for the rest.
    let run_share = ratio(run_us.iter().sum(), wall_us);
    m.insert("bench.launch_share", ratio(launches, matched) * run_share);
    m.insert(
        "bench.fixed_share",
        ratio(tr.total_us("sim.one_block"), matched) * run_share,
    );
    m.insert(
        "pf.refresh_tiered_us",
        median(&tr.durations_us("pf.refresh_tiered")),
    );
    let samples = |name: &str| lap.samples.get(name).map_or(&[][..], Vec::as_slice);
    let first = samples("pf.first_launch_us");
    m.insert("pf.first_launch_us_p50", median(first));
    m.insert("pf.first_launch_us_p95", percentile(first, 95.0));
    m.insert("pf.promotion_ms_p50", median(samples("pf.promotion_ms")));
    let share = samples("pf.specialized_share");
    m.insert(
        "pf.specialized_share",
        ratio(share.iter().sum(), share.len() as f64),
    );

    // Registry readings.
    let reg = ks_trace::registry();
    m.insert(
        "core.queue_wait_us_p50",
        reg.histogram(ks_trace::names::ASYNC_QUEUE_WAIT_US)
            .quantile(0.5)
            .unwrap_or(0) as f64,
    );
    let snap = reg.snapshot();
    m.insert(
        "trace.registry_cells",
        (snap.counters.len() + snap.gauges.len() + snap.histograms.len()) as f64,
    );

    // The benchmark itself.
    m.insert(
        "bench.trace_overhead_pct",
        ratio(
            median(&lap.latencies()) - ctx.untraced_op_ms_p50,
            ctx.untraced_op_ms_p50,
        ) * 100.0,
    );
    m.insert("bench.spans", tr.spans().len() as f64);
    let loc = crate::env::loc_per_crate();
    m.insert("loc.total", loc.iter().map(|(_, n)| *n as f64).sum());

    // Every remaining table entry is a count the lap kept (or a crate's
    // line count); absent means zero.
    for metric in PER_LAYER {
        m.entry(metric.name)
            .or_insert_with(|| match metric.name.strip_prefix("loc.") {
                Some(krate) => loc
                    .iter()
                    .find(|(name, _)| name == krate)
                    .map_or(0.0, |(_, n)| *n as f64),
                None => count(metric.name),
            });
    }
    m.retain(|name, _| PER_LAYER.iter().any(|metric| metric.name == *name));
    // An empty float sum is -0.0; print it as 0.
    m.values_mut().for_each(|v| *v += 0.0);
    m
}
