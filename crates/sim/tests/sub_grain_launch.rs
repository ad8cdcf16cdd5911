//! A process whose launches all stay under the share threshold never
//! starts a pool worker: the second core costs nothing until it is
//! wanted. Alone in its file because the pool is process-wide.

use ks_codegen::{compile, CodegenOptions};
use ks_lang::frontend;
use ks_sim::*;

#[test]
fn launches_under_the_grain_start_no_pool_worker() {
    let src = r#"
        __global__ void scale(float* y, float a, int n) {
            int i = (int)(blockIdx.x * blockDim.x + threadIdx.x);
            if (i < n) { y[i] = y[i] * a; }
        }
    "#;
    let prog = frontend(src, &[]).unwrap();
    let m = compile(&prog, &CodegenOptions::default()).unwrap();
    let (grid, block) = (256u32, 128u32);
    let n = (grid * block) as usize;
    let mut st = DeviceState::new(DeviceConfig::tesla_c2070(), 1 << 20);
    let y = st.global.alloc(n as u64 * 4).unwrap();
    st.global.write_f32_slice(y, &vec![2.0; n]).unwrap();
    let args = [KArg::Ptr(y), KArg::F32(0.5), KArg::I32(n as i32)];
    let dims = LaunchDims::linear(grid, block);
    let mut warp_insts = 0;
    for _ in 0..8 {
        let report = launch(&mut st, &m, "scale", dims, &args, LaunchOptions::default()).unwrap();
        warp_insts = report.stats.dyn_insts;
    }
    // Just under the share threshold (2^15 warp-instructions), so one
    // chunk on the calling thread; the ledger's `restart` and `adapt`
    // launches are smaller.
    assert!((1 << 14..1 << 15).contains(&warp_insts), "{warp_insts}");
    assert_eq!(st.global.read_f32_slice(y, 1).unwrap()[0], 2.0 / 256.0);
    assert_eq!(rayon::workers_started(), 0);
}
