//! Micro-probes: per-layer fixed costs no workload isolates on its own
//! (a cache-key hash, a memory hit, an idle promotion poll, a counter
//! increment). They are workload-independent, take about two seconds,
//! and run at the end of every traced run so each workload's per-layer
//! report is complete.

use crate::apps::{self, AppPipeline, Impl, Input, PipelineConfig, Problem};
use crate::stats::median;
use gpu_pf::{IntegrityConfig, Pipeline};
use ks_apps::backproj::BackprojProblem;
use ks_apps::piv::PivProblem;
use ks_core::{Compiler, Defines};
use ks_sim::DeviceConfig;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

fn device() -> DeviceConfig {
    DeviceConfig::tesla_c2070()
}

/// Mean nanoseconds per call over `n` calls.
fn mean_ns(n: u32, mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    for _ in 0..n {
        f();
    }
    t.elapsed().as_nanos() as f64 / n as f64
}

/// Median microseconds of `n` timed calls.
fn median_us(n: u32, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..n)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&samples)
}

fn piv_problem() -> Problem {
    Problem::Piv(PivProblem::standard(32, 16, 0, 2))
}

/// Twelve piv variants as `compile_batch` jobs.
fn piv_jobs() -> Vec<(&'static str, Defines)> {
    let problem = piv_problem();
    let mut out = Vec::new();
    for rb in [1, 2, 4, 8] {
        for threads in [32, 64, 128] {
            let defines = apps::defines(&problem, Impl::Piv { rb, threads });
            out.push((apps::App::Piv.source(), defines));
        }
    }
    out
}

pub fn run(out: &mut BTreeMap<&'static str, f64>) {
    let source = apps::App::Piv.source();
    let input = Input::generate(piv_problem(), 1);
    let imp = Impl::Piv { rb: 4, threads: 32 };
    let defines = apps::defines(&input.problem, imp);

    // ks-core: key hash, memory hit, spawn, batch compile.
    let compiler = Arc::new(Compiler::new(device()));
    compiler.compile(source, &defines).expect("probe compile");
    out.insert(
        "core.cache_key_ns",
        mean_ns(2000, || {
            black_box(compiler.cache_key(black_box(source), &defines));
        }),
    );
    out.insert(
        "core.hit_ns",
        mean_ns(2000, || {
            black_box(compiler.compile(black_box(source), &defines).expect("hit"));
        }),
    );
    let spawns: Vec<f64> = (0..50)
        .map(|_| {
            let t0 = Instant::now();
            let ticket = compiler.spawn_compile(source, &defines);
            let us = t0.elapsed().as_secs_f64() * 1e6;
            // Off the sample: join the ticket so the queue is empty again.
            let _ = ticket.wait();
            us
        })
        .collect();
    out.insert("core.spawn_us", median(&spawns));
    let jobs = piv_jobs();
    let serial = Compiler::new(device());
    let t = Instant::now();
    for (s, d) in &jobs {
        serial.compile(s, d).expect("serial compile");
    }
    let serial_s = t.elapsed().as_secs_f64();
    let batch = Compiler::new(device());
    let t = Instant::now();
    for r in batch.compile_batch(&jobs) {
        r.expect("batch compile");
    }
    let batch_s = t.elapsed().as_secs_f64();
    out.insert("core.batch_variants_per_s", jobs.len() as f64 / batch_s);
    out.insert("core.batch_speedup", serial_s / batch_s);

    let mut app = AppPipeline::build(compiler.clone(), &input, imp, PipelineConfig::PLAIN);
    app.p.refresh().expect("probe refresh");
    app.round(&input).expect("probe round");

    // gpu-pf: a Blocking refresh that resolves from the memory cache
    // (alternate between two compiled values), an idle promotion poll,
    // copies, and what integrity checking adds to an iteration.
    let other = Impl::Piv { rb: 2, threads: 32 };
    let mut flip = false;
    out.insert(
        "pf.refresh_hit_us",
        median_us(51, || {
            flip = !flip;
            app.set_macros(if flip { other } else { imp });
            app.p.refresh().expect("refresh");
        }),
    );
    out.insert(
        "pf.poll_idle_ns",
        mean_ns(10_000, || {
            black_box(app.p.poll_promotions());
        }),
    );
    out.insert("pf.copy_us_per_mb", copy_us_per_mb(compiler.clone()));
    let iter_us = |cfg: Option<IntegrityConfig>| {
        let bp = Problem::Bp(BackprojProblem {
            n: 8,
            num_proj: 4,
            det_u: 12,
            det_v: 12,
        });
        let input = Input::generate(bp, 1);
        let cfg = PipelineConfig {
            integrity: cfg,
            ..PipelineConfig::PLAIN
        };
        let mut app = AppPipeline::build(compiler.clone(), &input, Impl::Bp { zb: 2 }, cfg);
        app.p.refresh().expect("refresh");
        app.round(&input).expect("round");
        median_us(48, || app.run().expect("run"))
    };
    let off = iter_us(None);
    let default = iter_us(Some(IntegrityConfig::default()));
    let every = iter_us(Some(IntegrityConfig {
        witness_period: 1,
        ..IntegrityConfig::default()
    }));
    out.insert("pf.integrity_base_us", off);
    out.insert("pf.integrity_overhead_pct", (default - off) / off * 100.0);
    out.insert("pf.witness_us", every - default);

    // ks-trace: what one always-on publish and one span cost.
    let reg = ks_trace::registry();
    let counter = reg.counter("ks_ledger.probe.counter");
    let hist = reg.histogram("ks_ledger.probe.histogram");
    out.insert("trace.counter_inc_ns", mean_ns(1_000_000, || counter.inc()));
    let mut v = 0u64;
    out.insert(
        "trace.hist_record_ns",
        mean_ns(1_000_000, || {
            v = v.wrapping_add(977);
            hist.record(v & 0xffff);
        }),
    );
    out.insert(
        "trace.span_off_ns",
        mean_ns(1_000_000, || drop(black_box(ks_trace::span("probe")))),
    );
    ks_trace::set_enabled(true);
    out.insert(
        "trace.span_on_ns",
        mean_ns(100_000, || drop(black_box(ks_trace::span("probe")))),
    );
    ks_trace::set_enabled(false);
    drop(ks_trace::drain_spans());
    out.insert(
        "trace.snapshot_us",
        median_us(20, || {
            black_box(reg.snapshot());
        }),
    );
}

/// A pipeline that only copies 1 MiB host → device → host.
fn copy_us_per_mb(compiler: Arc<Compiler>) -> f64 {
    const BYTES: u32 = 1 << 20;
    let mut p = Pipeline::new(compiler, 4 << 20);
    let ext = p.extent_param("buf", [BYTES / 4, 1, 1], 4);
    let h_in = p.host_memory(ext);
    let d = p.global_memory(ext);
    let h_out = p.host_memory(ext);
    let every = p.schedule_param("every", 1, 0);
    p.copy("h2d", h_in, d, every);
    p.copy("d2h", d, h_out, every);
    p.refresh().expect("copy refresh");
    p.run(1).expect("copy warm-up");
    median_us(20, || p.run(1).expect("copy run")) / 2.0
}
