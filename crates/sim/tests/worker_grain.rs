//! Launches below the worker grain run on the calling thread; this one is
//! above it, so on a multi-core host its sample and its remaining blocks
//! are split over worker threads. Every block must still run exactly once
//! and the sampled stats must still scale to the grid.

use ks_codegen::{compile, CodegenOptions};
use ks_lang::frontend;
use ks_sim::*;

#[test]
fn a_launch_above_the_worker_grain_runs_every_block_once() {
    const ITERS: usize = 256;
    let src = r#"
        __global__ void saxpy(float* x, float* y, float a, int n) {
            int i = (int)(blockIdx.x * blockDim.x + threadIdx.x);
            if (i < n) {
                float acc = y[i];
                for (int k = 0; k < 256; k++) { acc = acc * a + x[(i + k) % n]; }
                y[i] = acc + 1.0f;
            }
        }
    "#;
    let prog = frontend(src, &[]).unwrap();
    let mut m = compile(&prog, &CodegenOptions::default()).unwrap();
    ks_opt::optimize_module(&mut m);

    let (grid, block) = (256u32, 128u32);
    let n = (grid * block) as usize;
    let xs: Vec<f32> = (0..n).map(|i| (i % 97) as f32 * 0.25).collect();
    let ys: Vec<f32> = (0..n).map(|i| (i % 13) as f32).collect();
    let mut st = DeviceState::new(DeviceConfig::tesla_c2070(), 1 << 22);
    let x = st.global.alloc(n as u64 * 4).unwrap();
    let y = st.global.alloc(n as u64 * 4).unwrap();
    st.global.write_f32_slice(x, &xs).unwrap();
    st.global.write_f32_slice(y, &ys).unwrap();
    let args = [
        KArg::Ptr(x),
        KArg::Ptr(y),
        KArg::F32(0.5),
        KArg::I32(n as i32),
    ];
    let dims = LaunchDims::linear(grid, block);
    let report = launch(&mut st, &m, "saxpy", dims, &args, LaunchOptions::default()).unwrap();

    // Two workers' worth of the grain (2^19 warp-instructions each).
    assert!(
        report.stats.dyn_insts >= 2 << 19,
        "{}",
        report.stats.dyn_insts
    );
    // A block that ran twice would have added its 1.0 twice.
    let got = st.global.read_f32_slice(y, n).unwrap();
    for i in 0..n {
        let mut acc = ys[i];
        for k in 0..ITERS {
            acc = acc * 0.5 + xs[(i + k) % n];
        }
        assert_eq!(got[i].to_bits(), (acc + 1.0).to_bits(), "element {i}");
    }
}
