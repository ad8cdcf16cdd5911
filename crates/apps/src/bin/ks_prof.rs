//! ks-prof: per-kernel observability report.
//!
//! Compiles and runs one case-study kernel on a simulated device with
//! tracing enabled, then emits a [`ks_trace::KernelProfile`] joining the
//! per-phase compile timings, specialization-cache counters, simulated
//! execution statistics, analysis diagnostics, and the captured span
//! tree.
//!
//! ```text
//! ks-prof --kernel template_match --device c2070 --export jsonl
//! ks-prof --kernel piv --variant re --export text
//! ks-prof --kernel backproj --export csv --out profile.csv
//! ks-prof --kernel template_match --export jsonl --selfcheck
//! ```
//!
//! `--selfcheck` validates the JSONL schema (span nesting, phase sums,
//! counter consistency) and asserts `hits + misses == requests` and that
//! the exported sim counters equal the summed launch reports; it then
//! drives the background compile tier (tickets over one key, a
//! cancellation, and a tiered gpu-pf promotion) and asserts
//! `spawned == completed + failed + cancelled`, round-trips a probe
//! kernel through a throwaway persistent store (cold publish, warm disk
//! hit with zero compiles, byte-identical reload), checks the roll-up of
//! labeled scopes and the exact accounting of a seeded integrity
//! violation. The per-instance stats (`CacheStats`, `AsyncStats`, …) are
//! views of the cells the registry sums, so there is no second copy to
//! reconcile. It exits non-zero on any mismatch.

use ks_apps::template_match::{MatchImpl, MatchProblem};
use ks_apps::{backproj, piv, synth, template_match, GpuRunResult, Variant};
use ks_core::{Compiler, Defines};
use ks_sim::DeviceConfig;
use ks_trace::{CompileProfile, ExportFormat, KernelProfile};
use std::io::Write;

fn usage() -> ! {
    eprintln!(
        "usage: ks-prof [--kernel template_match|piv|backproj] [--device c1060|c2070]\n\
         \x20             [--variant sk|re] [--export text|jsonl|csv|flame|chrome|prom]\n\
         \x20             [--out FILE] [--quick] [--selfcheck]\n\
         \x20      ks-prof watch [--ticks N] [--window N] [--watchdog BASELINE]\n\
         \x20             [--drill-breach] [--sink-cap N]"
    );
    std::process::exit(2);
}

fn arg_value(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .map(|i| args.get(i + 1).cloned().unwrap_or_else(|| usage()))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        usage();
    }
    if args.first().map(String::as_str) == Some("watch") {
        watch_main(&args[1..]);
        return;
    }
    let kernel = arg_value(&args, "--kernel").unwrap_or_else(|| "template_match".into());
    let device = arg_value(&args, "--device").unwrap_or_else(|| "c2070".into());
    let variant = match arg_value(&args, "--variant").as_deref() {
        None | Some("sk") | Some("SK") => Variant::Sk,
        Some("re") | Some("RE") => Variant::Re,
        Some(v) => {
            eprintln!("ks-prof: unknown variant {v:?}");
            usage();
        }
    };
    let format = match arg_value(&args, "--export") {
        None => ExportFormat::Text,
        Some(f) => ExportFormat::parse(&f).unwrap_or_else(|| {
            eprintln!("ks-prof: unknown export format {f:?}");
            usage();
        }),
    };
    let out_path = arg_value(&args, "--out");
    let quick = args.iter().any(|a| a == "--quick");
    let selfcheck = args.iter().any(|a| a == "--selfcheck");

    let dev = match device.as_str() {
        "c1060" | "tesla_c1060" => DeviceConfig::tesla_c1060(),
        "c2070" | "tesla_c2070" => DeviceConfig::tesla_c2070(),
        other => {
            eprintln!("ks-prof: unknown device {other:?}");
            usage();
        }
    };

    // Span tracing is opt-in; the profiler is the one place it is
    // always on. Metrics counters are always live.
    ks_trace::set_enabled(true);

    // Opt-in fault injection (KS_FAULT_SEED / KS_FAULT_COMPILE_PPM /
    // KS_FAULT_DEVICE_PPM): install the seeded plan and arm retries so
    // the profiled run still completes; the selfcheck below then proves
    // the resilience counters reconcile exactly even under faults.
    let mut compiler = Compiler::new(dev);
    if let Some(plan) = ks_fault::FaultPlan::from_env() {
        eprintln!(
            "ks-prof: fault injection armed (seed {}, {} rules)",
            plan.seed(),
            plan.rule_count()
        );
        ks_fault::install(std::sync::Arc::new(plan));
        compiler = compiler.with_resilience(ks_core::ResilienceConfig {
            max_retries: 4,
            catch_panics: true,
            ..ks_core::ResilienceConfig::default()
        });
    }
    let compiler = std::sync::Arc::new(compiler);

    let (profile, launched) = match run(&compiler, &kernel, variant, quick) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("ks-prof: {e}");
            std::process::exit(1);
        }
    };

    if selfcheck {
        let checks = [
            ("profile", check(&profile, &launched)),
            ("async tier", async_check(&compiler)),
            ("promotion", promotion_check(&compiler)),
            ("store", store_check(compiler.device())),
            ("scope roll-up", scope_check(&compiler)),
            ("integrity", integrity_check(&compiler)),
            ("watchdog", watchdog_check()),
            ("prom export", prom_check(&profile)),
            ("sink", sink_check()),
        ];
        for (what, result) in checks {
            if let Err(e) = result {
                eprintln!("ks-prof: selfcheck FAILED ({what}): {e}");
                std::process::exit(1);
            }
        }
        eprintln!(
            "ks-prof: selfcheck ok ({} compiles, {} spans, {} launches, \
             async+promotion+store+scope+integrity+watchdog+prom+sink parity)",
            profile.compiles.len(),
            profile.spans.len(),
            launched.reports.len()
        );
    }

    let rendered = format.exporter().profile(&profile);
    match out_path {
        None => print!("{rendered}"),
        Some(p) => {
            let mut f = std::fs::File::create(&p).unwrap_or_else(|e| {
                eprintln!("ks-prof: cannot write {p}: {e}");
                std::process::exit(1);
            });
            let _ = f.write_all(rendered.as_bytes());
            eprintln!("ks-prof: wrote {p}");
        }
    }
}

/// Compile (capturing per-module profiles) and run the selected kernel,
/// then join everything the subsystems observed into one report (the
/// run's own launch reports ride along for the selfcheck).
fn run(
    compiler: &Compiler,
    kernel: &str,
    variant: Variant,
    quick: bool,
) -> Result<(KernelProfile, GpuRunResult), Box<dyn std::error::Error>> {
    let mut compiles = Vec::new();
    let mut diagnostics = Vec::new();
    let mut profile_defines: Vec<(String, String)> = Vec::new();

    // Pre-compile every module the run will request so the run itself is
    // all cache hits and the compile profiles below cover each distinct
    // specialization exactly once.
    let mut compile_one = |src: &str, defs: &Defines| -> Result<(), Box<dyn std::error::Error>> {
        let before = compiler.cache_stats();
        let bin = compiler.compile(src, defs)?;
        let after = compiler.cache_stats();
        let m = &bin.metrics;
        compiles.push(CompileProfile {
            module: if defs.items().is_empty() {
                kernel.to_string()
            } else {
                format!("{kernel} [{}]", defs.command_line())
            },
            cached: after.hits > before.hits,
            total_us: bin.compile_time.as_micros() as u64,
            phases: [
                ("preproc", m.preproc),
                ("parse", m.parse),
                ("sema", m.sema),
                ("lower", m.lower),
                ("opt", m.opt),
                ("analysis", m.analysis),
                ("regalloc", m.regalloc),
            ]
            .iter()
            .map(|(n, d)| (n.to_string(), d.as_micros() as u64))
            .collect(),
        });
        for d in &bin.diagnostics {
            diagnostics.push(d.to_string());
        }
        if profile_defines.is_empty() {
            profile_defines = defs.items().to_vec();
        }
        Ok(())
    };

    let run: GpuRunResult = match kernel {
        "template_match" => {
            let prob = if quick {
                MatchProblem {
                    frame_w: 96,
                    frame_h: 72,
                    templ_w: 28,
                    templ_h: 20,
                    shift_w: 8,
                    shift_h: 8,
                    frames: 1,
                }
            } else {
                MatchProblem {
                    frame_w: 160,
                    frame_h: 120,
                    templ_w: 48,
                    templ_h: 36,
                    shift_w: 12,
                    shift_h: 12,
                    frames: 1,
                }
            };
            let imp = MatchImpl {
                tile_w: 8,
                tile_h: 8,
                threads: 64,
            };
            for d in template_match::specializations(variant, &prob, &imp) {
                compile_one(template_match::KERNELS, &d)?;
            }
            let scen = synth::match_scenario(
                prob.frame_w,
                prob.frame_h,
                prob.templ_w,
                prob.templ_h,
                prob.shift_w,
                prob.shift_h,
                42,
            );
            template_match::run_gpu(compiler, variant, &prob, &imp, &scen, true)?.run
        }
        "piv" => {
            let prob = if quick {
                piv::PivProblem::standard(128, 16, 50, 4)
            } else {
                piv::PivProblem::standard(256, 16, 50, 4)
            };
            let imp = piv::PivImpl { rb: 2, threads: 64 };
            compile_one(piv::KERNELS, &piv::specialization(variant, &prob, &imp))?;
            let scen = synth::piv_scenario(prob.img_w, prob.img_h, (3, 1), 77);
            piv::run_gpu(
                compiler,
                variant,
                piv::PivKernel::Basic,
                &prob,
                &imp,
                &scen,
                true,
            )?
            .run
        }
        "backproj" => {
            let prob = backproj::BackprojProblem {
                n: if quick { 12 } else { 16 },
                num_proj: 8,
                det_u: 24,
                det_v: 24,
            };
            let imp = backproj::BackprojImpl {
                block_x: 8,
                block_y: 8,
                ppl: 4,
                zb: 2,
            };
            compile_one(
                backproj::KERNELS,
                &backproj::specialization(variant, &prob, &imp),
            )?;
            let scen = synth::ct_scenario(prob.n, prob.num_proj, prob.det_u, prob.det_v);
            backproj::run_gpu(compiler, variant, &prob, &imp, &scen, true)?.run
        }
        other => return Err(format!("unknown kernel {other:?}").into()),
    };

    // Where the launches' host time went (stderr: host time is not part
    // of the exported, reproducible profile).
    let host =
        |field: fn(&ks_sim::LaunchReport) -> f64| -> f64 { run.reports.iter().map(field).sum() };
    eprintln!(
        "ks-prof: launch host time: plan {:.0} us, timing sample {:.0} us, \
         functional {:.0} us ({} launches)",
        host(|r| r.host_plan_us),
        host(|r| r.host_sample_us),
        host(|r| r.host_functional_us),
        run.reports.len()
    );

    let profile = KernelProfile {
        kernel: kernel.to_string(),
        device: compiler.device().name.clone(),
        variant: variant.to_string(),
        defines: profile_defines,
        compiles,
        sim_time_us: (run.sim_ms * 1e3) as u64,
        diagnostics,
        spans: ks_trace::drain_spans(),
        metrics: ks_trace::registry().snapshot(),
    };
    Ok((profile, run))
}

/// Validate the profile's JSONL schema, the request invariant on the
/// registry snapshot it carries, and that every launch of the run was
/// published exactly once (registry sim counters == summed reports).
fn check(p: &KernelProfile, launched: &GpuRunResult) -> Result<(), String> {
    ks_trace::validate_profile_jsonl(&p.to_jsonl())?;

    let [(_, hits), (_, misses), ..] = p.cache_rows();
    if p.metrics.counter(ks_trace::names::COMPILE_REQUESTS) != hits + misses {
        return Err("hits + misses != compile requests".into());
    }
    let sum = |field: fn(&ks_sim::ExecStats) -> u64| -> u64 {
        launched.reports.iter().map(|r| field(&r.stats)).sum()
    };
    let want = [
        launched.reports.len() as u64,
        sum(|s| s.dyn_insts),
        sum(|s| s.global_bytes),
        sum(|s| s.divergent_branches),
        sum(|s| s.barriers),
    ];
    for ((name, got), want) in p.exec_rows().into_iter().zip(want) {
        if got != want {
            return Err(format!(
                "registry ks_sim.{name} = {got}, launch reports say {want}"
            ));
        }
    }
    Ok(())
}

const PROBE_KERNEL: &str = r#"
    #ifndef N
    #define N n
    #endif
    __global__ void probe(float* x, int n) {
        int i = (int)(blockIdx.x * blockDim.x + threadIdx.x);
        if (i < N) { x[i] = x[i] + 1.0f; }
    }
"#;

/// Drive the background compile tier and prove its accounting: three
/// tickets over one key plus one cancelled ticket, then assert
/// `spawned == completed + failed + cancelled` on the compiler's
/// `AsyncStats`. Runs under whatever fault plan is installed — the
/// balance must hold whether tickets complete or fail.
fn async_check(compiler: &std::sync::Arc<Compiler>) -> Result<(), String> {
    let s0 = compiler.async_stats();
    let tickets: Vec<_> = (0..3)
        .map(|_| compiler.spawn_compile(PROBE_KERNEL, Defines::new().def("N", 128)))
        .collect();
    let doomed = compiler.spawn_compile(PROBE_KERNEL, Defines::new().def("N", 129));
    let cancelled = doomed.cancel();
    for t in &tickets {
        // Under injected faults a ticket may legitimately fail; the
        // accounting below must balance either way.
        let _ = t.wait();
    }
    let _ = doomed.wait();
    let s1 = compiler.async_stats();
    let spawned = s1.spawned - s0.spawned;
    let resolved =
        (s1.completed - s0.completed) + (s1.failed - s0.failed) + (s1.cancelled - s0.cancelled);
    if spawned != 4 || resolved != 4 {
        return Err(format!(
            "async accounting unbalanced: {spawned} spawned, {resolved} resolved ({s1})"
        ));
    }
    if (s1.cancelled - s0.cancelled) != u64::from(cancelled) {
        return Err(format!(
            "cancel() returned {cancelled} but cancelled delta is {}",
            s1.cancelled - s0.cancelled
        ));
    }
    Ok(())
}

/// Prove the persistent-store tier's accounting: a cold compiler
/// publishes a record, and a warm compiler on the same directory serves
/// it from disk without compiling (byte-identical).
fn store_check(device: &DeviceConfig) -> Result<(), String> {
    let mut dir = std::env::temp_dir();
    dir.push(format!("ks-prof-selfcheck-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let defs = Defines::new().def("N", 640);

    let cold = Compiler::new(device.clone())
        .with_store(&dir)
        .map_err(|e| format!("open store: {e}"))?;
    let a = cold
        .compile(PROBE_KERNEL, &defs)
        .map_err(|e| e.to_string())?;
    let cs = cold.cache_stats();
    if (cs.misses, cs.disk_misses, cs.disk_hits, cs.store_errors) != (1, 1, 0, 0) {
        return Err(format!("cold store pass accounting off: {cs}"));
    }

    let warm = Compiler::new(device.clone())
        .with_store(&dir)
        .map_err(|e| format!("open store: {e}"))?;
    let b = warm
        .compile(PROBE_KERNEL, &defs)
        .map_err(|e| e.to_string())?;
    let ws = warm.cache_stats();
    if (
        ws.hits,
        ws.misses,
        ws.disk_hits,
        ws.disk_misses,
        ws.store_errors,
    ) != (1, 0, 1, 0, 0)
    {
        return Err(format!("warm store pass accounting off: {ws}"));
    }
    if a.ptx != b.ptx {
        return Err("reloaded binary is not byte-identical to the compiled one".into());
    }

    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

/// Drive one tiered gpu-pf refresh end to end: the module must serve
/// immediately, promote to its specialized binary, and account exactly
/// one promotion with none left pending.
fn promotion_check(compiler: &std::sync::Arc<Compiler>) -> Result<(), String> {
    let mut p = gpu_pf::Pipeline::new(compiler.clone(), 1 << 20);
    p.set_refresh_mode(gpu_pf::RefreshMode::Tiered);
    let n = p.int_param("N", 256);
    let m = p.module(PROBE_KERNEL, vec![("N", gpu_pf::MacroBinding::Param(n))]);
    p.refresh().map_err(|e| format!("tiered refresh: {e}"))?;
    p.wait_promotions();
    let stats = p.promotion_stats();
    if p.module_tier(m) != Some(gpu_pf::Tier::Specialized) {
        return Err(format!(
            "module did not reach Specialized: {:?} ({stats:?}, degradations {:?})",
            p.module_tier(m),
            p.degradations()
        ));
    }
    if stats.promoted != 1 || stats.pending != 0 {
        return Err(format!("promotion accounting off: {stats:?}"));
    }
    Ok(())
}

/// Prove the labeled-scope roll-up: two labeled pipelines publish known
/// iteration counts, and the sum of the per-pipeline cells must equal
/// both the expected publishes and the global counter's delta, exactly.
fn scope_check(compiler: &std::sync::Arc<Compiler>) -> Result<(), String> {
    let reg = ks_trace::registry();
    let g0 = reg.counter_value(ks_trace::names::PF_ITERATIONS);
    let run_labeled = |label: &str, iters: u64| -> Result<(), String> {
        let mut p = gpu_pf::Pipeline::new(compiler.clone(), 1 << 20);
        p.set_label(label);
        p.refresh().map_err(|e| e.to_string())?;
        p.run(iters).map_err(|e| e.to_string())
    };
    run_labeled("sc-a", 5)?;
    run_labeled("sc-b", 3)?;
    let g1 = reg.counter_value(ks_trace::names::PF_ITERATIONS);
    if g1 - g0 != 8 {
        return Err(format!("global gpu_pf.iterations delta {} != 8", g1 - g0));
    }
    let a = reg.counter_value("gpu_pf.iterations{pipeline=sc-a}");
    let b = reg.counter_value("gpu_pf.iterations{pipeline=sc-b}");
    if (a, b) != (5, 3) {
        return Err(format!("scoped cells (sc-a={a}, sc-b={b}) != (5, 3)"));
    }
    // Sum over every single-label pipeline cell (these two are the only
    // labeled pipelines in this process) == the global delta: the
    // roll-up is exact, not approximate.
    let snap = reg.snapshot();
    let sum = ks_trace::scoped_counter_sum(&snap, "gpu_pf.iterations", "pipeline");
    if sum != 8 {
        return Err(format!(
            "sum of pipeline-scoped gpu_pf.iterations cells {sum} != global delta 8"
        ));
    }
    Ok(())
}

/// Prove the integrity accounting under an injected fault: a seeded
/// silent flip against a dedicated probe pipeline must be detected,
/// adjudicated transient, and recovered, each counted exactly once.
fn integrity_check(compiler: &std::sync::Arc<Compiler>) -> Result<(), String> {
    let mut p = gpu_pf::Pipeline::new(compiler.clone(), 1 << 20);
    p.set_integrity(Some(gpu_pf::IntegrityConfig {
        witness_period: 1,
        vote_m: 3,
        vote_n: 2,
    }));
    let elems = 256u32;
    let ext = p.extent_param("x", [elems, 1, 1], 4);
    let h_x = p.host_memory(ext);
    let d_x = p.global_memory(ext);
    let m = p.module(
        PROBE_KERNEL,
        vec![("N", gpu_pf::MacroBinding::Literal(elems.to_string()))],
    );
    let k = p.kernel(m, "probe");
    let grid = p.triplet_param("grid", [elems.div_ceil(64), 1, 1]);
    let blk = p.triplet_param("block", [64, 1, 1]);
    let once = p.schedule_param("once", 1_000_000, 0);
    let every = p.schedule_param("every", 1, 0);
    let n = p.int_param("n", elems as i64);
    p.copy("h2d", h_x, d_x, once);
    p.exec(
        "probe",
        k,
        grid,
        blk,
        None,
        vec![gpu_pf::Arg::Mem(d_x), gpu_pf::Arg::Param(n)],
        every,
    );
    p.copy("d2h", d_x, h_x, every);
    let vals: Vec<u8> = (0..elems).flat_map(|i| (i as f32).to_le_bytes()).collect();
    p.set_host_data(h_x, &vals);
    p.refresh().map_err(|e| format!("refresh: {e}"))?;
    let key = p
        .module_bound_key(m)
        .ok_or("probe module has no bound key")?
        .clone();

    // Flip one output bit of the specialized variant's first launch;
    // witness and vote launches carry other keys and stay clean. The
    // prior plan (possibly armed via KS_FAULT_SEED) is restored after.
    let prior = ks_fault::active();
    let plan = std::sync::Arc::new(
        ks_fault::FaultPlan::new(0x5DC).rule(
            ks_fault::FaultRule::new(
                ks_fault::FaultKind::SilentFlip,
                ks_fault::Target::Key(key.fingerprint.lo64()),
            )
            .nth(1),
        ),
    );
    ks_fault::install(plan.clone());
    let run = p.run(2);
    match prior {
        Some(prev) => ks_fault::install(prev),
        None => ks_fault::clear(),
    }
    run.map_err(|e| format!("probe run: {e}"))?;

    if plan.injected_count() != 1 {
        return Err(format!("injected {} flips, want 1", plan.injected_count()));
    }
    let stats = p.integrity_stats();
    let want = [
        stats.checks,
        stats.witness_launches,
        stats.violations,
        stats.transient_flips,
        stats.corrupt_binaries,
        stats.recovered,
        stats.reexecutions,
    ];
    if want != [2, 2, 1, 1, 0, 1, 4] {
        return Err(format!("unexpected IntegrityStats: {stats:?}"));
    }
    // Two iterations, flip scrubbed by recovery: every element advanced
    // by exactly 2.0 — the corruption never reached host memory.
    let out = p.host_data(h_x);
    for (i, c) in out.chunks_exact(4).enumerate() {
        let v = f32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        if v != i as f32 + 2.0 {
            return Err(format!("element {i} is {v}, want {}", i as f32 + 2.0));
        }
    }
    Ok(())
}

/// Watchdog dry run on a private registry: a clean window raises
/// nothing, a seeded spike breaches exactly once (edge-triggered, no
/// re-fire), and fresh clean samples recover exactly once.
fn watchdog_check() -> Result<(), String> {
    let r = ks_trace::Registry::new();
    let baseline = ks_trace::Baseline::parse("total 1000 2000\n")?;
    let mut dog = ks_trace::Watchdog::standard(baseline, ks_trace::SloPolicy::default());
    let mut hist = ks_trace::History::new(4);
    let h = r.histogram(ks_trace::names::COMPILE_TOTAL_US);
    h.record(1500);
    hist.tick_at(&r, 0);
    let e = dog.evaluate(&hist.window(1));
    if !e.is_empty() {
        return Err(format!("clean window raised events: {e:?}"));
    }
    h.record(30_000_000);
    hist.tick_at(&r, 1000);
    let e = dog.evaluate(&hist.window(1));
    match e.as_slice() {
        [ks_trace::SloEvent::Breach(b)] if b.budget_us == 20_000 => {}
        other => return Err(format!("spike window: want one breach, got {other:?}")),
    }
    h.record(30_000_000);
    hist.tick_at(&r, 2000);
    if !dog.evaluate(&hist.window(1)).is_empty() {
        return Err("breach re-fired while still over budget".into());
    }
    h.record(900);
    hist.tick_at(&r, 3000);
    let e = dog.evaluate(&hist.window(1));
    if !matches!(e.as_slice(), [ks_trace::SloEvent::Recover { .. }]) {
        return Err(format!("recovery window: want one recover, got {e:?}"));
    }
    Ok(())
}

/// Render the profile as Prometheus exposition text and schema-check it.
fn prom_check(p: &KernelProfile) -> Result<(), String> {
    let text = ExportFormat::Prom.exporter().profile(p);
    ks_trace::validate_prometheus(&text)?;
    if !text.contains("# TYPE") {
        return Err("prometheus exposition has no TYPE metadata".into());
    }
    Ok(())
}

/// Bounded-sink overflow drill on a private registry: overflow drops the
/// newest offers, keeps the oldest, and self-accounts every drop.
fn sink_check() -> Result<(), String> {
    let r = ks_trace::Registry::new();
    let sink = ks_trace::StreamSink::with_registry(4, &r);
    for i in 0..12 {
        sink.offer(format!("{{\"i\":{i}}}"));
    }
    if (sink.pending(), sink.dropped()) != (4, 8) {
        return Err(format!(
            "sink bounds off: pending {} dropped {}",
            sink.pending(),
            sink.dropped()
        ));
    }
    if r.counter_value(ks_trace::names::SINK_DROPPED) != 8 {
        return Err("registry drop counter disagrees with sink.dropped()".into());
    }
    let lines = sink.drain();
    if lines.first().map(String::as_str) != Some("{\"i\":0}") {
        return Err(format!("oldest line did not survive overflow: {lines:?}"));
    }
    Ok(())
}

// ---- `ks-prof watch`: live windowed telemetry over two pipelines ----

/// Two concurrently running labeled pipelines with ~60x different
/// per-iteration work, a rolling [`ks_trace::History`] ticked by the
/// main thread, per-pipeline windowed p50/p95 readouts, and (when a
/// baseline is available) the live SLO watchdog. `--drill-breach` seeds
/// one synthetic latency spike mid-run to prove the breach fires
/// exactly once; `--sink-cap` streams each tick's JSONL records through
/// a bounded StreamSink to demonstrate overflow accounting.
fn watch_main(args: &[String]) {
    let parse_n = |name: &str, default: usize| -> usize {
        arg_value(args, name)
            .map(|v| {
                v.parse().unwrap_or_else(|_| {
                    eprintln!("ks-prof: bad {name} value {v:?}");
                    usage();
                })
            })
            .unwrap_or(default)
    };
    let ticks = parse_n("--ticks", 8).max(2);
    let window = parse_n("--window", 4).max(1);
    let sink_cap = parse_n("--sink-cap", 0);
    let drill = args.iter().any(|a| a == "--drill-breach");
    let baseline_path = arg_value(args, "--watchdog");

    let baseline_text = match &baseline_path {
        Some(p) => Some(std::fs::read_to_string(p).unwrap_or_else(|e| {
            eprintln!("ks-prof: cannot read baseline {p}: {e}");
            std::process::exit(1);
        })),
        None => std::fs::read_to_string("ci/perf-baseline.txt").ok(),
    };
    let mut dog = baseline_text.map(|t| {
        let baseline = ks_trace::Baseline::parse(&t).unwrap_or_else(|e| {
            eprintln!("ks-prof: bad baseline: {e}");
            std::process::exit(1);
        });
        ks_trace::Watchdog::standard(baseline, ks_trace::SloPolicy::default())
    });
    if drill && dog.is_none() {
        eprintln!("ks-prof: --drill-breach needs a baseline (--watchdog FILE)");
        std::process::exit(1);
    }

    let reg = ks_trace::registry();
    let breach_counter = reg.counter(ks_trace::names::SLO_BREACHES);
    let recover_counter = reg.counter(ks_trace::names::SLO_RECOVERIES);
    let sink = (sink_cap > 0).then(|| ks_trace::StreamSink::new(sink_cap));
    let mut offered = 0u64;

    let compiler = std::sync::Arc::new(Compiler::new(DeviceConfig::tesla_c2070()));
    let mut history = ks_trace::History::new(ticks.max(window));
    let started = std::time::Instant::now();

    // Each worker owns one labeled pipeline; the main thread hands out
    // per-tick iteration batches so every tick covers a known amount of
    // work. p1 simulates ~60x the threads of p0, so their windowed
    // iteration p95s are unambiguously distinct.
    let spawn_worker = |label: &'static str, n: u32, threads: u32| {
        let compiler = compiler.clone();
        let (cmd_tx, cmd_rx) = std::sync::mpsc::channel::<u64>();
        let (ack_tx, ack_rx) = std::sync::mpsc::channel::<Result<(), String>>();
        let handle = std::thread::spawn(move || {
            let build = || -> Result<gpu_pf::Pipeline, String> {
                let mut p = gpu_pf::Pipeline::new(compiler, 32 << 20);
                p.set_label(label);
                let nparam = p.int_param("N", n as i64);
                let ext = p.extent_param("buf", [n, 1, 1], 4);
                let dev = p.global_memory(ext);
                let m = p.module(
                    PROBE_KERNEL,
                    vec![("N", gpu_pf::MacroBinding::Param(nparam))],
                );
                let k = p.kernel(m, "probe");
                let grid = p.triplet_param("grid", [n.div_ceil(threads), 1, 1]);
                let blk = p.triplet_param("block", [threads, 1, 1]);
                let every = p.schedule_param("every", 1, 0);
                p.exec(
                    "probe",
                    k,
                    grid,
                    blk,
                    None,
                    vec![gpu_pf::Arg::Mem(dev), gpu_pf::Arg::Param(nparam)],
                    every,
                );
                p.refresh().map_err(|e| e.to_string())?;
                Ok(p)
            };
            let mut p = match build() {
                Ok(p) => p,
                Err(e) => {
                    let _ = ack_tx.send(Err(format!("{label}: {e}")));
                    return;
                }
            };
            let _ = ack_tx.send(Ok(()));
            while let Ok(iters) = cmd_rx.recv() {
                if iters == 0 {
                    break;
                }
                let _ = ack_tx.send(p.run(iters).map_err(|e| format!("{label}: {e}")));
            }
        });
        (cmd_tx, ack_rx, handle)
    };
    let workers = [spawn_worker("p0", 256, 64), spawn_worker("p1", 16384, 256)];
    for (_, ack, _) in &workers {
        if let Err(e) = ack.recv().unwrap_or_else(|e| Err(e.to_string())) {
            eprintln!("ks-prof: watch setup failed: {e}");
            std::process::exit(1);
        }
    }

    let mut breaches = 0u64;
    let mut recoveries = 0u64;
    for tick in 1..=ticks {
        for (cmd, _, _) in &workers {
            let _ = cmd.send(4);
        }
        for (_, ack, _) in &workers {
            if let Err(e) = ack.recv().unwrap_or_else(|e| Err(e.to_string())) {
                eprintln!("ks-prof: watch iteration failed: {e}");
                std::process::exit(1);
            }
        }
        if drill && tick == ticks / 2 {
            // Seeded spike: far over any plausible compile budget, so
            // the windowed p95 breaches on this tick and only this
            // excursion.
            let h = reg.histogram(ks_trace::names::COMPILE_TOTAL_US);
            for _ in 0..8 {
                h.record(60_000_000);
            }
        }
        history.tick_at(reg, started.elapsed().as_millis() as u64);
        let w = history.window(window);
        for label in ["p0", "p1"] {
            let iters = w.counter(&format!("gpu_pf.iterations{{pipeline={label}}}"));
            let line = match w.summary(&format!("gpu_pf.iteration_us{{pipeline={label}}}")) {
                Some(s) => format!(
                    "[tick {tick}] pipeline={label} window={}t iters={iters} \
                     iter_p50_us={} iter_p95_us={}",
                    w.ticks, s.p50, s.p95
                ),
                None => format!(
                    "[tick {tick}] pipeline={label} window={}t iters={iters} (no samples)",
                    w.ticks
                ),
            };
            println!("{line}");
            if let Some(sink) = &sink {
                offered += 1;
                sink.offer(format!(
                    "{{\"type\":\"watch\",\"tick\":{tick},\"pipeline\":\"{label}\",\
                     \"iters\":{iters}}}"
                ));
            }
        }
        if let Some(dog) = &mut dog {
            for event in dog.evaluate(&w) {
                match &event {
                    ks_trace::SloEvent::Breach(_) => {
                        breaches += 1;
                        breach_counter.inc();
                    }
                    ks_trace::SloEvent::Recover { .. } => {
                        recoveries += 1;
                        recover_counter.inc();
                    }
                    ks_trace::SloEvent::CounterBreach { .. } => {
                        breaches += 1;
                        breach_counter.inc();
                    }
                }
                println!("{event}");
            }
        }
    }
    for (cmd, _, _) in &workers {
        let _ = cmd.send(0);
    }
    for (_, _, handle) in workers {
        let _ = handle.join();
    }

    let w = history.window(window);
    let p0 = w
        .summary("gpu_pf.iteration_us{pipeline=p0}")
        .unwrap_or_default();
    let p1 = w
        .summary("gpu_pf.iteration_us{pipeline=p1}")
        .unwrap_or_default();
    let distinct = p1.p95 > p0.p95 && p0.count > 0;
    println!(
        "watch: pipeline=p0 p95_us={} pipeline=p1 p95_us={} distinct: {}",
        p0.p95,
        p1.p95,
        if distinct { "ok" } else { "NOT-DISTINCT" }
    );
    if dog.is_some() {
        println!("watch: slo breaches={breaches} recoveries={recoveries}");
    }
    if let Some(sink) = &sink {
        let drained = sink.drain().len() as u64;
        let dropped = sink.dropped();
        println!(
            "watch: sink offered={offered} drained={drained} dropped={dropped} conserved: {}",
            if drained + dropped == offered {
                "ok"
            } else {
                "LOST"
            }
        );
    }
}
