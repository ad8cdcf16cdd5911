//! Tiered execution: serve the generic kernel immediately, specialize
//! in the background, hot-swap on promotion.
//!
//! Three single-kernel pipelines share one compiler in
//! [`gpu_pf::RefreshMode::Tiered`]. Each `refresh()` binds the generic
//! (runtime-argument) binary without waiting for the specialized
//! compile, so the first launch is served straight away while a
//! background worker builds the `-D` specialization; the pipeline
//! hot-swaps to it between iterations. The example proves the three
//! core properties the CI tier greps for:
//!
//! 1. the first launch runs on the generic binary (tier is still
//!    `Promoting` when `run()` starts) and computes correct results;
//! 2. every module eventually reaches `Specialized`, and re-dirtying a
//!    module mid-promotion supersedes the stale ticket rather than
//!    swapping in an outdated binary;
//! 3. outputs are byte-identical to the same pipelines run in blocking
//!    mode — specialization is a latency strategy, never a semantics
//!    change — including right after a settled module is re-dirtied:
//!    the old specialization is not valid for the new value, so the
//!    generic binary serves until the new one lands.
//!
//! Run with: `cargo run --release --example tiered_execution`

use gpu_pf::{Arg, MacroBinding, Pipeline, RefreshMode, ResId, Tier};
use ks_core::Compiler;
use ks_sim::DeviceConfig;
use std::sync::Arc;

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

const BLEND: &str = r#"
#ifndef WEIGHT
#define WEIGHT w
#endif
__global__ void blend(int* x, int* y, int n, int w) {
    int i = (int)(blockIdx.x * blockDim.x + threadIdx.x);
    if (i < n) {
        y[i] = x[i] * WEIGHT + i;
    }
}
"#;

const N: usize = 256;

struct Built {
    pipeline: Pipeline,
    module: ResId,
    hx: ResId,
    hy: ResId,
    param: gpu_pf::ParamId,
}

/// One single-kernel pipeline: upload, exec, download.
fn build(
    compiler: &Arc<Compiler>,
    mode: RefreshMode,
    source: &str,
    kernel: &str,
    macro_name: &str,
    value: i64,
) -> Built {
    let mut p = Pipeline::new(compiler.clone(), 16 << 20);
    p.set_refresh_mode(mode);
    let param = p.int_param(macro_name, value);
    let n_p = p.int_param("n", N as i64);
    let ext = p.extent_param("buf", [N as u32, 1, 1], 4);
    let module = p.module(source, vec![(macro_name, MacroBinding::Param(param))]);
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
        vec![
            Arg::Mem(dx),
            Arg::Mem(dy),
            Arg::Param(n_p),
            Arg::Param(param),
        ],
        every,
    );
    p.copy("download", dy, hy, every);
    Built {
        pipeline: p,
        module,
        hx,
        hy,
        param,
    }
}

fn output(b: &Built) -> Vec<i32> {
    b.pipeline
        .host_data(b.hy)
        .chunks_exact(4)
        .map(|c| i32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect()
}

fn main() {
    let compiler = Arc::new(Compiler::new(DeviceConfig::tesla_c2070()));
    let xs: Vec<i32> = (0..N as i32).map(|i| (i * 13) % 97).collect();
    let bytes: Vec<u8> = xs.iter().flat_map(|v| v.to_le_bytes()).collect();

    type Kernel = (&'static str, &'static str, &'static str, i64);
    let kernels: [Kernel; 3] = [
        (SCALE, "scale", "FACTOR", 7),
        (SHIFT, "shiftk", "OFFSET", -5),
        (BLEND, "blend", "WEIGHT", 3),
    ];

    let mut specialized = 0usize;
    let mut first_launch_on_generic = 0usize;
    let mut parity_ok = true;

    for (source, kernel, macro_name, value) in kernels {
        // Tiered: refresh must return with a servable generic binary
        // while the specialization is still in flight.
        let mut t = build(
            &compiler,
            RefreshMode::Tiered,
            source,
            kernel,
            macro_name,
            value,
        );
        t.pipeline.refresh().expect("tiered refresh");
        let tier_at_first_launch = t.pipeline.module_tier(t.module).expect("module tier");
        if tier_at_first_launch == Tier::Promoting {
            first_launch_on_generic += 1;
        }
        t.pipeline.set_host_data(t.hx, &bytes);
        t.pipeline.run(2).expect("tiered run");
        let tiered_first = output(&t);

        // Drain the promotion and run again on the specialized binary.
        t.pipeline.wait_promotions();
        if t.pipeline.module_tier(t.module) == Some(Tier::Specialized) {
            specialized += 1;
        }
        t.pipeline.run(1).expect("post-promotion run");
        let tiered_promoted = output(&t);

        // Blocking reference: same pipeline, same inputs.
        let mut b = build(
            &compiler,
            RefreshMode::Blocking,
            source,
            kernel,
            macro_name,
            value,
        );
        b.pipeline.refresh().expect("blocking refresh");
        b.pipeline.set_host_data(b.hx, &bytes);
        b.pipeline.run(1).expect("blocking run");
        let blocking = output(&b);

        let ok = tiered_first == blocking && tiered_promoted == blocking;
        parity_ok &= ok;
        println!(
            "kernel `{kernel}`: first launch tier {tier_at_first_launch:?}, \
             final tier {:?}, parity {}",
            t.pipeline.module_tier(t.module).expect("module tier"),
            if ok { "ok" } else { "MISMATCH" }
        );
    }

    // Supersede drill: re-dirty a module while its promotion is still in
    // flight. The stale ticket must be cancelled — the eventual swap
    // reflects the *new* parameter value, never the outdated one.
    let mut s = build(
        &compiler,
        RefreshMode::Tiered,
        SCALE,
        "scale",
        "FACTOR",
        1000,
    );
    s.pipeline.refresh().expect("tiered refresh");
    s.pipeline.set_int(s.param, 2000);
    s.pipeline.refresh().expect("re-dirtied refresh");
    s.pipeline.wait_promotions();
    s.pipeline.set_host_data(s.hx, &bytes);
    s.pipeline.run(1).expect("superseded run");
    let out = output(&s);
    let fresh = out.iter().zip(&xs).all(|(&y, &x)| y == x * 2000);
    let stats = s.pipeline.promotion_stats();
    println!(
        "supersede drill: superseded {} in-flight promotion(s), final tier {:?}, \
         swapped binary is {}",
        stats.superseded,
        s.pipeline.module_tier(s.module).expect("module tier"),
        if fresh { "fresh" } else { "STALE" }
    );

    // Re-dirty drill: the module has settled on FACTOR=2000. Change the
    // parameter again and launch before the new promotion is applied:
    // the FACTOR=2000 binary is not valid for 3000, so the generic one
    // must be serving, and the output must follow the new value.
    s.pipeline.set_int(s.param, 3000);
    s.pipeline.refresh().expect("re-dirtied refresh");
    let served = s.pipeline.module_bound_key(s.module).expect("bound key");
    let on_generic = served.defines.is_empty();
    s.pipeline.run(1).expect("re-dirtied run");
    let current = output(&s).iter().zip(&xs).all(|(&y, &x)| y == x * 3000);
    s.pipeline.wait_promotions();
    println!(
        "redirty served: {}, parity: {}",
        if on_generic { "generic" } else { "STALE" },
        if current { "ok" } else { "MISMATCH" }
    );

    println!("\n== promotion counters ==");
    let reg = ks_trace::registry();
    for name in [
        ks_trace::names::PF_PROMOTIONS,
        ks_trace::names::PF_PROMOTIONS_FAILED,
        ks_trace::names::PF_PROMOTIONS_SUPERSEDED,
    ] {
        println!("{name} = {}", reg.counter_value(name));
    }
    // How a background compile ends (completed, or cancelled before it
    // ran) depends on timing; that every one ended does not.
    let [spawned, completed, failed, cancelled] = [
        ks_trace::names::ASYNC_SPAWNED,
        ks_trace::names::ASYNC_COMPLETED,
        ks_trace::names::ASYNC_FAILED,
        ks_trace::names::ASYNC_CANCELLED,
    ]
    .map(|name| reg.counter_value(name));
    let balanced = spawned == completed + failed + cancelled;
    println!(
        "async balance (spawned == completed + failed + cancelled): {}",
        if balanced { "ok" } else { "BROKEN" }
    );

    println!(
        "\ntiered execution: modules specialized: {specialized}/3, \
         first launch on generic: {first_launch_on_generic}/3, \
         superseded: {}, parity: {}",
        stats.superseded,
        if parity_ok && fresh { "ok" } else { "FAILED" }
    );
    if specialized != 3
        || first_launch_on_generic != 3
        || !parity_ok
        || !fresh
        || !on_generic
        || !current
        || stats.superseded != 1
        || !balanced
    {
        std::process::exit(1);
    }
}
