//! Launches below the worker grain run on the calling thread; this one is
//! above it, so on a multi-core host its sample and its remaining blocks
//! are cut into chunks that pool workers share with the caller. Every
//! block must still run exactly once, the sampled stats must still scale
//! to the grid, and who ran which chunk must not show anywhere.

use ks_codegen::{compile, CodegenOptions};
use ks_lang::frontend;
use ks_sim::*;
use rayon::prelude::*;
use std::sync::Mutex;

const ITERS: usize = 256;
const GRID: u32 = 256;
const BLOCK: u32 = 128;
const N: usize = (GRID * BLOCK) as usize;

fn inputs() -> (Vec<f32>, Vec<f32>) {
    let xs = (0..N).map(|i| (i % 97) as f32 * 0.25).collect();
    let ys = (0..N).map(|i| (i % 13) as f32).collect();
    (xs, ys)
}

/// Launch the kernel on fresh device memory; returns the report and the
/// bytes of both buffers afterwards.
fn launch_saxpy() -> (LaunchReport, Vec<u8>) {
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

    let (xs, ys) = inputs();
    let mut st = DeviceState::new(DeviceConfig::tesla_c2070(), 1 << 22);
    let x = st.global.alloc(N as u64 * 4).unwrap();
    let y = st.global.alloc(N as u64 * 4).unwrap();
    st.global.write_f32_slice(x, &xs).unwrap();
    st.global.write_f32_slice(y, &ys).unwrap();
    let args = [
        KArg::Ptr(x),
        KArg::Ptr(y),
        KArg::F32(0.5),
        KArg::I32(N as i32),
    ];
    let dims = LaunchDims::linear(GRID, BLOCK);
    let report = launch(&mut st, &m, "saxpy", dims, &args, LaunchOptions::default()).unwrap();
    let mut bytes = st.global.read_bytes(x, N as u64 * 4).unwrap().to_vec();
    bytes.extend_from_slice(st.global.read_bytes(y, N as u64 * 4).unwrap());
    (report, bytes)
}

// One test, so that nothing else in this process holds the pool while
// the first launch wants it.
#[test]
fn a_launch_above_the_worker_grain_runs_every_block_once() {
    let (split, split_bytes) = launch_saxpy();
    // Dozens of chunks' worth of the grain (2^15 warp-instructions each).
    assert!(
        split.stats.dyn_insts >= 32 << 15,
        "{}",
        split.stats.dyn_insts
    );
    // A block that ran twice would have added its 1.0 twice.
    let (xs, ys) = inputs();
    let got = split_bytes[N * 4..].chunks_exact(4);
    for (i, got) in got.enumerate() {
        let mut acc = ys[i];
        for k in 0..ITERS {
            acc = acc * 0.5 + xs[(i + k) % N];
        }
        let got = u32::from_le_bytes(got.try_into().unwrap());
        assert_eq!(got, (acc + 1.0).to_bits(), "element {i}");
    }

    // The same launch on one thread: inside a `par_iter` body it finds
    // the pool taken (the pool holds one job) and does not share.
    let once = Mutex::new(Some(launch_saxpy));
    let alone = Mutex::new(None);
    [(), ()].par_iter().for_each(|()| {
        let first = once.lock().unwrap().take();
        if let Some(launch_saxpy) = first {
            *alone.lock().unwrap() = Some(launch_saxpy());
        }
    });
    let (alone, alone_bytes) = alone.into_inner().unwrap().unwrap();

    assert!(split_bytes == alone_bytes, "global memory differs");
    // The per-block sample comes back in block order whichever thread
    // claimed which chunk: the first and last store addresses are taken
    // from the first and last sampled block, the cycles from their sum.
    assert_eq!(split.stats, alone.stats);
    assert_ne!(split.stats.first_store_addr, split.stats.last_store_addr);
    assert_eq!(split.cycles, alone.cycles);
    assert_eq!(split.time_ms.to_bits(), alone.time_ms.to_bits());
    assert_eq!(split.bound, alone.bound);
    assert_eq!(split.static_insts, alone.static_insts);
}
