//! Fault-injection drill: GPU-PF pipelines under a seeded fault plan.
//!
//! Installs a process-wide [`ks_fault::FaultPlan`] that injects transient
//! compile errors (default 10%), transient launch timeouts (default 5%),
//! and a persistent compile fault pinned to one module's specialization
//! defines. Three small pipelines then run to completion anyway: the
//! resilient compiler retries transient compile faults, the pipeline
//! retries transient launches, and the permanently failing specialization
//! degrades to its generic (runtime-argument) kernel with identical
//! results. A separate breaker drill hammers one doomed key until its
//! circuit breaker opens.
//!
//! Everything printed is deterministic for a given seed — the fault
//! event log carries no timestamps — so two runs with the same seed are
//! byte-identical (the CI fault tier diffs them).
//!
//! Run with: `cargo run --release --example fault_injection -- --seed 77`

use gpu_pf::{Arg, FallbackKind, MacroBinding, Pipeline};
use ks_core::{Compiler, Defines, ResilienceConfig};
use ks_fault::{FaultKind, FaultPlan, FaultRule, Target};
use ks_sim::DeviceConfig;
use std::sync::Arc;
use std::time::Duration;

const SCALE: &str = r#"
#ifndef FACTOR
#define FACTOR factor
#endif
__global__ void scale(int* x, int* y, int n, int factor) {
    int i = (int)(blockIdx.x * blockDim.x + threadIdx.x);
    if (i < n) {
        y[i] = x[i] * FACTOR;
    }
}
"#;

const SHIFT: &str = r#"
#ifndef OFFSET
#define OFFSET offset
#endif
__global__ void shiftk(int* x, int* y, int n, int offset) {
    int i = (int)(blockIdx.x * blockDim.x + threadIdx.x);
    if (i < n) {
        y[i] = x[i] + OFFSET;
    }
}
"#;

/// The fault plan pins a persistent compile error to this module's
/// `-D STUBBORN_SCALE=` define, so every specialized compile fails and
/// every refresh degrades to the generic kernel — which still computes
/// the right answer from the runtime argument.
const STUBBORN: &str = r#"
#ifndef STUBBORN_SCALE
#define STUBBORN_SCALE s
#endif
__global__ void stubborn(int* x, int* y, int n, int s) {
    int i = (int)(blockIdx.x * blockDim.x + threadIdx.x);
    if (i < n) {
        y[i] = x[i] * STUBBORN_SCALE + i;
    }
}
"#;

const N: usize = 256;
const ITERS: u64 = 10;

/// The deterministic slice of [`ks_core::CacheStats`]: everything except
/// the wall-clock timings, so two same-seed runs print identical text.
fn fmt_stats(s: &ks_core::CacheStats) -> String {
    format!(
        "{} hits / {} misses / {} failures / {} quarantined / {} retries / {} breaker-opens",
        s.hits, s.misses, s.failures, s.quarantined, s.retries, s.breaker_opens
    )
}

fn arg_u64(args: &[String], name: &str) -> Option<u64> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
}

/// Build and run one single-kernel pipeline twice: once with the macro
/// bound to `values[0]`, then re-specialized to `values[1]`. Verifies
/// the downloaded output against `expect` on every phase, so a run that
/// degraded to the generic kernel still proves correctness.
fn run_pipeline(
    compiler: &Arc<Compiler>,
    source: &str,
    kernel: &str,
    macro_name: &str,
    values: [i64; 2],
    expect: impl Fn(i32, i64, usize) -> i32,
) -> Result<Vec<FallbackKind>, gpu_pf::PfError> {
    let mut p = Pipeline::new(compiler.clone(), 16 << 20);
    p.set_logger(Box::new(std::io::stderr()));

    let fac = p.int_param(macro_name, values[0]);
    let n_p = p.int_param("n", N as i64);
    let ext = p.extent_param("buf", [N as u32, 1, 1], 4);
    let module = p.module(source, vec![(macro_name, MacroBinding::Param(fac))]);
    let k = p.kernel(module, kernel);
    let hx = p.host_memory(ext);
    let dx = p.global_memory(ext);
    let dy = p.global_memory(ext);
    let hy = p.host_memory(ext);
    let every = p.schedule_param("every", 1, 0);
    let grid = p.triplet_param("grid", [(N as u32).div_ceil(64), 1, 1]);
    let blk = p.triplet_param("block", [64, 1, 1]);
    p.copy("upload", hx, dx, every);
    p.exec(
        "exec",
        k,
        grid,
        blk,
        None,
        vec![Arg::Mem(dx), Arg::Mem(dy), Arg::Param(n_p), Arg::Param(fac)],
        every,
    );
    p.copy("download", dy, hy, every);

    let xs: Vec<i32> = (0..N as i32).map(|i| (i * 7) % 101).collect();
    let bytes: Vec<u8> = xs.iter().flat_map(|v| v.to_le_bytes()).collect();

    for &v in &values {
        p.set_int(fac, v);
        p.refresh()?;
        p.set_host_data(hx, &bytes);
        p.run(ITERS)?;
        let out: Vec<i32> = p
            .host_data(hy)
            .chunks_exact(4)
            .map(|c| i32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect();
        for (i, (&x, &y)) in xs.iter().zip(&out).enumerate() {
            assert_eq!(y, expect(x, v, i), "{kernel}: wrong output at {i}");
        }
    }
    Ok(p.degradations().iter().map(|d| d.fallback).collect())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let seed = arg_u64(&args, "--seed").unwrap_or(77);
    let compile_ppm = arg_u64(&args, "--compile-ppm").unwrap_or(100_000) as u32;
    let device_ppm = arg_u64(&args, "--device-ppm").unwrap_or(50_000) as u32;

    let plan = Arc::new(
        FaultPlan::new(seed)
            .rule(
                FaultRule::new(
                    FaultKind::CompileError,
                    Target::Define("STUBBORN_SCALE".into()),
                )
                .persistent(),
            )
            .rule(FaultRule::new(FaultKind::CompileError, Target::Any).rate_ppm(compile_ppm))
            .rule(FaultRule::new(FaultKind::LaunchTimeout, Target::Any).rate_ppm(device_ppm)),
    );
    ks_fault::install(plan.clone());

    let compiler = Arc::new(Compiler::new(DeviceConfig::tesla_c2070()).with_resilience(
        ResilienceConfig {
            max_retries: 3,
            backoff_base: Duration::from_micros(100),
            backoff_cap: Duration::from_millis(2),
            compile_timeout: Some(Duration::from_secs(30)),
            catch_panics: true,
            ..ResilienceConfig::default()
        },
    ));

    println!(
        "fault plan: seed={seed} compile={compile_ppm}ppm device={device_ppm}ppm \
         + persistent fault on -D STUBBORN_SCALE"
    );

    let mut completed = 0u32;
    let mut panics = 0u32;
    type Drill = (
        &'static str,
        &'static str,
        &'static str,
        &'static str,
        [i64; 2],
        fn(i32, i64, usize) -> i32,
    );
    let drills: [Drill; 3] = [
        ("scale", SCALE, "scale", "FACTOR", [3, 5], |x, v, _| {
            x * v as i32
        }),
        ("shift", SHIFT, "shiftk", "OFFSET", [11, -4], |x, v, _| {
            x + v as i32
        }),
        (
            "stubborn",
            STUBBORN,
            "stubborn",
            "STUBBORN_SCALE",
            [2, 9],
            |x, v, i| x * v as i32 + i as i32,
        ),
    ];
    for (name, source, kernel, macro_name, values, expect) in drills {
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_pipeline(&compiler, source, kernel, macro_name, values, expect)
        }));
        match r {
            Ok(Ok(fallbacks)) => {
                completed += 1;
                let generic = fallbacks
                    .iter()
                    .filter(|f| **f == FallbackKind::Generic)
                    .count();
                let last_good = fallbacks.len() - generic;
                println!(
                    "pipeline `{name}`: ok ({} iterations x 2 specializations, \
                     degradations: {generic} generic, {last_good} last-known-good)",
                    ITERS
                );
            }
            Ok(Err(e)) => println!("pipeline `{name}`: FAILED: {e}"),
            Err(_) => {
                panics += 1;
                println!("pipeline `{name}`: PANICKED");
            }
        }
    }

    // Breaker drill: hammer one permanently failing specialization with a
    // fail-fast compiler (no retries, no quarantine) until its circuit
    // breaker opens, then show the fast-fail.
    let breaker = Compiler::new(DeviceConfig::tesla_c2070()).with_resilience(ResilienceConfig {
        breaker_threshold: 3,
        breaker_cooldown: Duration::from_millis(200),
        ..ResilienceConfig::default()
    });
    let doomed = Defines::new().def("STUBBORN_SCALE", 9);
    let mut last_err = String::new();
    for _ in 0..5 {
        if let Err(e) = breaker.compile(STUBBORN, &doomed) {
            last_err = e.message;
        }
    }
    println!("breaker drill : {}", fmt_stats(&breaker.cache_stats()));
    println!("breaker error : {last_err}");

    println!("\n== fault event log (seed {seed}) ==");
    print!("{}", plan.event_log());
    println!("injected: {} faults", plan.injected_count());

    println!("\n== resilience counters ==");
    println!("pipeline cache: {}", fmt_stats(&compiler.cache_stats()));
    let reg = ks_trace::registry();
    for name in [
        ks_trace::names::COMPILE_RETRIES,
        ks_trace::names::CACHE_FAILURES,
        ks_trace::names::CACHE_QUARANTINED,
        ks_trace::names::BREAKER_OPEN,
        ks_trace::names::PF_FALLBACK_GENERIC,
        ks_trace::names::PF_FALLBACK_LAST_GOOD,
        ks_trace::names::PF_LAUNCH_RETRIES,
        ks_trace::names::SIM_FAULTS_INJECTED,
    ] {
        println!("{name} = {}", reg.counter_value(name));
    }

    println!("\npipelines completed: {completed}/3, panics: {panics}");
    if completed != 3 || panics != 0 {
        std::process::exit(1);
    }
}
