//! Out-of-range shared, constant and local addresses trap with a
//! `SimError` that names their space: never a panic, and never a read or
//! write of another lane's local memory. Run in debug and in release
//! (`ci.sh`): only the release build wraps address arithmetic silently.

use ks_codegen::{compile, CodegenOptions};
use ks_lang::frontend;
use ks_sim::*;

const SRC: &str = r#"
    __constant__ int c[4];
    __global__ void shared_st(int* out) {
        __shared__ int s[64];
        int t = (int)threadIdx.x;
        s[t - 1] = 1;
        __syncthreads();
        out[t] = s[t];
    }
    __global__ void shared_ld(int* out) {
        __shared__ int s[64];
        int t = (int)threadIdx.x;
        s[t] = t;
        __syncthreads();
        out[t] = s[t - 1];
    }
    __global__ void const_ld(int* out) {
        int t = (int)threadIdx.x;
        out[t] = c[t - 1];
    }
    __global__ void local_ld(int* out, int lane, int k) {
        int t = (int)threadIdx.x;
        int a[8];
        for (int i = 0; i < 8; i++) { a[i] = 100 * t + i; }
        if (t == lane) { out[t] = a[k]; }
    }
    __global__ void local_st(int* out, int lane, int k) {
        int t = (int)threadIdx.x;
        int a[8];
        for (int i = 0; i < 8; i++) { a[i] = 100 * t + i; }
        if (t == lane) { a[k] = -1; }
        out[t] = a[t & 7];
    }
"#;

fn module() -> ks_ir::Module {
    let prog = frontend(SRC, &[]).unwrap();
    let mut m = compile(&prog, &CodegenOptions::default()).unwrap();
    ks_opt::optimize_module(&mut m);
    m
}

/// Launches `kernel` on one block of 32 threads with `out` and then
/// `extra` as arguments; returns the output buffer or the trap.
fn run(m: &ks_ir::Module, kernel: &str, extra: &[KArg]) -> Result<Vec<i32>, SimError> {
    let mut st = DeviceState::new(DeviceConfig::tesla_c2070(), 1 << 20);
    st.set_const(m, "c", &[7u8; 16]).unwrap();
    let out = st.global.alloc(32 * 4).unwrap();
    st.global.write_i32_slice(out, &[-7; 32]).unwrap();
    let mut args = vec![KArg::Ptr(out)];
    args.extend_from_slice(extra);
    launch(
        &mut st,
        m,
        kernel,
        LaunchDims::linear(1, 32),
        &args,
        LaunchOptions::default(),
    )?;
    Ok(st.global.read_i32_slice(out, 32).unwrap())
}

fn assert_trap(m: &ks_ir::Module, kernel: &str, extra: &[KArg], space: &str) {
    match run(m, kernel, extra) {
        Err(e) => assert!(
            e.to_string().contains(&format!("bad {space} access")),
            "{kernel} {extra:?}: {e}"
        ),
        Ok(out) => panic!("{kernel} {extra:?} ran to completion: {out:?}"),
    }
}

#[test]
fn shared_address_below_zero_traps() {
    let m = module();
    assert_trap(&m, "shared_st", &[], "shared");
    assert_trap(&m, "shared_ld", &[], "shared");
}

#[test]
fn const_address_below_zero_traps() {
    let m = module();
    assert_trap(&m, "const_ld", &[], "const");
}

/// Lane 0 indexing below its array, and lane 1 above its own or into
/// its neighbour's window: each is a trap, not that neighbour's word.
#[test]
fn local_address_outside_its_lane_traps() {
    let m = module();
    for kernel in ["local_ld", "local_st"] {
        for (lane, k) in [(0, -1), (1, -1), (0, 8), (1, 8), (31, 8), (5, 1 << 20)] {
            assert_trap(&m, kernel, &[KArg::I32(lane), KArg::I32(k)], "local");
        }
    }
}

#[test]
fn in_range_addresses_still_run() {
    let m = module();
    let got = run(&m, "local_ld", &[KArg::I32(1), KArg::I32(7)]).unwrap();
    assert_eq!(got[1], 107);
    assert_eq!(got[0], -7);
    let got = run(&m, "local_st", &[KArg::I32(1), KArg::I32(1)]).unwrap();
    let want: Vec<i32> = (0..32)
        .map(|t| if t == 1 { -1 } else { 100 * t + (t & 7) })
        .collect();
    assert_eq!(got, want);
}
