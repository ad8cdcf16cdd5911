//! Direct unit tests of the event-driven SM scheduler (`ks_sim::event`).

use ks_codegen::{compile, CodegenOptions};
use ks_lang::frontend;
use ks_sim::interp::GlobalView;
use ks_sim::{run_sm_round, DeviceConfig, LaunchPlan, GLOBAL_BASE};

fn module(src: &str, defs: &[(&str, &str)]) -> ks_ir::Module {
    let defs: Vec<(String, String)> = defs
        .iter()
        .map(|(a, b)| (a.to_string(), b.to_string()))
        .collect();
    let prog = frontend(src, &defs).unwrap();
    let mut m = compile(&prog, &CodegenOptions::default()).unwrap();
    ks_opt::optimize_module(&mut m);
    m
}

/// Marshal one pointer + one i32 into the param layout of a 2-arg kernel.
fn params_ptr_i32(f: &ks_ir::Function, p: u64, n: i32) -> Vec<u8> {
    let mut buf = vec![0u8; f.param_bytes() as usize];
    buf[f.params[0].offset as usize..f.params[0].offset as usize + 8]
        .copy_from_slice(&p.to_le_bytes());
    buf[f.params[1].offset as usize..f.params[1].offset as usize + 4]
        .copy_from_slice(&n.to_le_bytes());
    buf
}

#[test]
fn event_round_executes_functionally_and_counts_cycles() {
    let src = r#"
        __global__ void fill(int* out, int base) {
            int i = (int)(blockIdx.x * blockDim.x + threadIdx.x);
            out[i] = base + i;
        }
    "#;
    let m = module(src, &[]);
    let f = m.function("fill").unwrap();
    // A bare global buffer addressed from GLOBAL_BASE.
    let mut heap = vec![0u8; 64 * 1024];
    let p = GLOBAL_BASE;
    let params = params_ptr_i32(f, p, 1000);
    let view = GlobalView::new(&mut heap);
    let blocks: Vec<(u32, u32, u32)> = (0..4).map(|b| (b, 0, 0)).collect();
    let round = run_sm_round(
        &DeviceConfig::tesla_c1060(),
        &LaunchPlan::from_function(f),
        view,
        &[],
        &params,
        (64, 1, 1),
        (4, 1, 1),
        &blocks,
        0,
        &[],
    )
    .unwrap();
    assert!(round.cycles > 0);
    // Functional outputs for all 4 resident blocks, interleaved execution.
    for i in 0..(4 * 64) {
        let off = i * 4;
        let v = i32::from_le_bytes(heap[off..off + 4].try_into().unwrap());
        assert_eq!(v, 1000 + i as i32, "element {i}");
    }
    // 2 warps/block × 4 blocks, each storing once.
    assert_eq!(round.stats.global_stores, 8);
}

#[test]
fn more_resident_blocks_hide_latency() {
    // Per-block cycles with 1 resident block vs 8: throughput overlap must
    // make the 8-block round take far less than 8× the single-block round.
    let src = r#"
        __global__ void touch(float* out, int n) {
            int i = (int)(blockIdx.x * blockDim.x + threadIdx.x);
            float acc = 0.0f;
            for (int k = 0; k < 16; k++) {
                acc += out[(i + k * 32) % n];
            }
            out[i] = acc;
        }
    "#;
    let m = module(src, &[]);
    let f = m.function("touch").unwrap();
    let dev = DeviceConfig::tesla_c1060();
    let plan = LaunchPlan::from_function(f);
    let mut cycles = Vec::new();
    for nblocks in [1u32, 8] {
        let mut heap = vec![0u8; 1 << 20];
        let params = params_ptr_i32(f, GLOBAL_BASE, 4096);
        let view = GlobalView::new(&mut heap);
        let blocks: Vec<(u32, u32, u32)> = (0..nblocks).map(|b| (b, 0, 0)).collect();
        let round = run_sm_round(
            &dev,
            &plan,
            view,
            &[],
            &params,
            (32, 1, 1),
            (8, 1, 1),
            &blocks,
            0,
            &[],
        )
        .unwrap();
        cycles.push(round.cycles as f64);
    }
    let scaling = cycles[1] / cycles[0];
    assert!(
        scaling < 5.0,
        "8 resident blocks should overlap: {}x vs 8x serial",
        scaling
    );
    assert!(scaling > 1.0, "more work cannot be free: {scaling}");
}

#[test]
fn barrier_release_across_interleaved_warps() {
    // A two-phase shared-memory exchange: thread t writes slot t, reads
    // slot (t+1)%N after the barrier. Any mis-ordered release corrupts it.
    let src = r#"
        __global__ void exchange(int* out, int n) {
            __shared__ int buf[64];
            int t = (int)threadIdx.x;
            buf[t] = t * 10 + (int)blockIdx.x;
            __syncthreads();
            out[(int)blockIdx.x * 64 + t] = buf[(t + 1) & 63];
        }
    "#;
    let m = module(src, &[]);
    let f = m.function("exchange").unwrap();
    let mut heap = vec![0u8; 1 << 16];
    let params = params_ptr_i32(f, GLOBAL_BASE, 0);
    let view = GlobalView::new(&mut heap);
    let blocks: Vec<(u32, u32, u32)> = (0..2).map(|b| (b, 0, 0)).collect();
    run_sm_round(
        &DeviceConfig::tesla_c2070(),
        &LaunchPlan::from_function(f),
        view,
        &[],
        &params,
        (64, 1, 1),
        (2, 1, 1),
        &blocks,
        0,
        &[],
    )
    .unwrap();
    for b in 0..2usize {
        for t in 0..64usize {
            let off = (b * 64 + t) * 4;
            let v = i32::from_le_bytes(heap[off..off + 4].try_into().unwrap());
            let expect = ((t + 1) % 64) as i32 * 10 + b as i32;
            assert_eq!(v, expect, "block {b} thread {t}");
        }
    }
}
