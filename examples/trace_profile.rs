//! Tracing and metrics walkthrough: compile and launch a small kernel
//! with span tracing enabled, then render what ks-trace observed —
//! the span tree (compile phases, per-pass optimization windows, the
//! launch) and the process-wide metrics registry, as the text renderers
//! the `ks-prof` binary builds on print them.
//!
//! Run with: `cargo run --release --example trace_profile`

use ks_core::{Compiler, Defines};
use ks_sim::{launch, DeviceConfig, DeviceState, KArg, LaunchDims, LaunchOptions};

const SAXPY: &str = r#"
#ifndef N
#define N n
#endif
__global__ void saxpy(float* x, float* y, float a, int n) {
    int i = (int)(blockIdx.x * blockDim.x + threadIdx.x);
    if (i < N) { y[i] = a * x[i] + y[i]; }
}
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Metrics counters are always live; span capture is opt-in.
    ks_trace::set_enabled(true);

    let dev = DeviceConfig::tesla_c2070();
    let compiler = Compiler::new(dev.clone());
    let n = 1024u32;

    // One miss, one hit — both visible as cache-lookup spans and in the
    // ks_core.cache.* counters.
    let bin = compiler.compile(SAXPY, Defines::new().def("N", n))?;
    let _again = compiler.compile(SAXPY, Defines::new().def("N", n))?;

    let mut st = DeviceState::new(dev, 16 << 20);
    let p_x = st.global.alloc(n as u64 * 4)?;
    let p_y = st.global.alloc(n as u64 * 4)?;
    let xs: Vec<f32> = (0..n).map(|i| i as f32).collect();
    st.global.write_f32_slice(p_x, &xs)?;
    st.global.write_f32_slice(p_y, &vec![1.0; n as usize])?;
    launch(
        &mut st,
        &bin.module,
        "saxpy",
        LaunchDims::linear(n / 128, 128),
        &[
            KArg::Ptr(p_x),
            KArg::Ptr(p_y),
            KArg::F32(2.0),
            KArg::I32(n as i32),
        ],
        LaunchOptions::default(),
    )?;

    let spans = ks_trace::drain_spans();
    println!("── span tree ──");
    print!("{}", ks_trace::spans_to_text(&spans));
    println!("\n── metrics registry ──");
    print!(
        "{}",
        ks_trace::metrics_to_text(&ks_trace::registry().snapshot())
    );
    println!("\n(try `cargo run --bin ks-prof -- --kernel template_match --export jsonl`)");
    Ok(())
}
