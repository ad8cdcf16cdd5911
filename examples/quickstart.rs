//! Quickstart: the dissertation's `mathTest` kernel (Listings 4.1/4.2,
//! Appendices B–D) run both ways.
//!
//! A single CUDA-C-dialect source, written in terms of undefined constants
//! with run-time-evaluated fallbacks, is compiled twice: once with no
//! defines (the RE kernel of Appendix C — loops, parameter loads, control
//! flow) and once with every parameter specialized (the SK kernel of
//! Appendix D — straight-line, immediate-laden PTX). Both are executed on
//! the simulated Tesla C1060 and compared.
//!
//! Run with: `cargo run --release --example quickstart`

use ks_apps::launch_binary;
use ks_core::{Compiler, Defines};
use ks_sim::{DeviceConfig, DeviceState, KArg, LaunchDims, LaunchOptions};

/// Appendix-B-style flexibly specializable kernel: every `#ifndef` gives a
/// parameter a run-time-evaluated fallback, so the same source compiles
/// with any subset of parameters specialized.
const MATHTEST: &str = r#"
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

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dev = DeviceConfig::tesla_c1060();
    let compiler = Compiler::new(dev.clone());

    // Problem instance.
    let (threads, blocks) = (128u32, 4u32);
    let (arg_a, arg_b, loop_count) = (3i32, 7i32, 5i32);
    let n = (threads * blocks) as usize;
    let elems = n + (loop_count as usize) * (arg_a * arg_b) as usize * n;

    // --- compile both variants of the same source ---
    let re = compiler.compile(MATHTEST, Defines::new())?;
    let sk = compiler.compile(
        MATHTEST,
        Defines::new()
            .def("LOOP_COUNT", loop_count)
            .def("ARG_A", arg_a)
            .def("ARG_B", arg_b)
            .def("BLOCK_DIM_X", threads),
    )?;

    println!("── run-time evaluated PTX (cf. Appendix C) ──");
    println!("{}", re.ptx);
    println!(
        "── specialized PTX, {} (cf. Appendix D) ──",
        sk.defines.command_line()
    );
    println!("{}", sk.ptx);

    println!(
        "static instructions : RE {:4}   SK {:4}",
        re.static_insts("mathTest"),
        sk.static_insts("mathTest")
    );
    println!(
        "registers / thread  : RE {:4}   SK {:4}",
        re.regs_per_thread("mathTest"),
        sk.regs_per_thread("mathTest")
    );

    // --- execute both on the simulated GPU; results must agree ---
    let mut st = DeviceState::new(dev, 64 << 20);
    let p_in = st.global.alloc((elems * 4) as u64)?;
    let p_out = st.global.alloc((n * 4) as u64)?;
    let data: Vec<i32> = (0..elems as i32).map(|i| i % 17).collect();
    st.global.write_i32_slice(p_in, &data)?;
    let args = [
        KArg::Ptr(p_in),
        KArg::Ptr(p_out),
        KArg::I32(arg_a),
        KArg::I32(arg_b),
        KArg::I32(loop_count),
    ];
    let dims = LaunchDims::linear(blocks, threads);

    let rep_re = launch_binary(
        &mut st,
        &re,
        "mathTest",
        dims,
        &args,
        LaunchOptions::default(),
    )?;
    let out_re = st.global.read_i32_slice(p_out, n)?;
    let rep_sk = launch_binary(
        &mut st,
        &sk,
        "mathTest",
        dims,
        &args,
        LaunchOptions::default(),
    )?;
    let out_sk = st.global.read_i32_slice(p_out, n)?;
    assert_eq!(out_re, out_sk, "RE and SK must compute identical results");

    println!(
        "\nsimulated time      : RE {:.4} ms   SK {:.4} ms   ({:.2}x)",
        rep_re.time_ms,
        rep_sk.time_ms,
        rep_re.time_ms / rep_sk.time_ms
    );
    println!(
        "dynamic instructions: RE {:6}   SK {:6}",
        rep_re.stats.dyn_insts, rep_sk.stats.dyn_insts
    );

    println!("\n── launch profile (specialized) ──");
    print!("{}", ks_sim::summarize(&rep_sk));

    // --- the binary cache (§4.3) ---
    let t0 = std::time::Instant::now();
    let _again = compiler.compile(
        MATHTEST,
        Defines::new()
            .def("LOOP_COUNT", loop_count)
            .def("ARG_A", arg_a)
            .def("ARG_B", arg_b)
            .def("BLOCK_DIM_X", threads),
    )?;
    println!(
        "\ncache hit on recompile: {:?} (first compile took {:?})",
        t0.elapsed(),
        sk.compile_time
    );
    let stats = compiler.cache_stats();
    println!("cache stats: {} hits, {} misses", stats.hits, stats.misses);
    Ok(())
}
