//! End-to-end simulator tests: source → specialize → lower → optimize →
//! simulate → check outputs against host-computed references.

#![allow(clippy::needless_range_loop)]

use ks_codegen::{compile, CodegenOptions};
use ks_lang::frontend;
use ks_sim::*;

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

fn state() -> DeviceState {
    DeviceState::new(DeviceConfig::tesla_c1060(), 64 << 20)
}

#[test]
fn vector_add_end_to_end() {
    let src = r#"
        __global__ void vadd(float* a, float* b, float* c, int n) {
            int i = blockIdx.x * blockDim.x + threadIdx.x;
            if (i < n) { c[i] = a[i] + b[i]; }
        }
    "#;
    let m = module(src, &[]);
    let mut st = state();
    let n = 1000usize;
    let pa = st.global.alloc((n * 4) as u64).unwrap();
    let pb = st.global.alloc((n * 4) as u64).unwrap();
    let pc = st.global.alloc((n * 4) as u64).unwrap();
    let va: Vec<f32> = (0..n).map(|i| i as f32).collect();
    let vb: Vec<f32> = (0..n).map(|i| (i * 2) as f32).collect();
    st.global.write_f32_slice(pa, &va).unwrap();
    st.global.write_f32_slice(pb, &vb).unwrap();
    let report = launch(
        &mut st,
        &m,
        "vadd",
        LaunchDims::linear(8, 128),
        &[
            KArg::Ptr(pa),
            KArg::Ptr(pb),
            KArg::Ptr(pc),
            KArg::I32(n as i32),
        ],
        LaunchOptions::default(),
    )
    .unwrap();
    let out = st.global.read_f32_slice(pc, n).unwrap();
    for i in 0..n {
        assert_eq!(out[i], (i * 3) as f32, "at {i}");
    }
    assert!(report.time_ms > 0.0);
    assert!(report.regs_per_thread >= 2);
}

#[test]
fn divergent_guard_handles_partial_warps() {
    let src = r#"
        __global__ void fill(int* out, int n) {
            int i = blockIdx.x * blockDim.x + threadIdx.x;
            if (i < n) { out[i] = i * 2; }
        }
    "#;
    let m = module(src, &[]);
    let mut st = state();
    let n = 77;
    let p = st.global.alloc(4 * 128).unwrap();
    launch(
        &mut st,
        &m,
        "fill",
        LaunchDims::linear(1, 128),
        &[KArg::Ptr(p), KArg::I32(n)],
        LaunchOptions::default(),
    )
    .unwrap();
    let out = st.global.read_i32_slice(p, 128).unwrap();
    for i in 0..n as usize {
        assert_eq!(out[i], i as i32 * 2);
    }
    for i in n as usize..128 {
        assert_eq!(out[i], 0, "lane {i} must be untouched");
    }
}

#[test]
fn shared_memory_reduction_with_barriers() {
    let src = r#"
        __global__ void reduce(float* in, float* out) {
            __shared__ float buf[128];
            unsigned int t = threadIdx.x;
            buf[t] = in[blockIdx.x * blockDim.x + t];
            __syncthreads();
            for (unsigned int s = 64u; s > 0u; s = s / 2) {
                if (t < s) { buf[t] += buf[t + s]; }
                __syncthreads();
            }
            if (t == 0u) { out[blockIdx.x] = buf[0]; }
        }
    "#;
    let m = module(src, &[]);
    let mut st = state();
    let n = 512;
    let pin = st.global.alloc(n * 4).unwrap();
    let pout = st.global.alloc(4 * 4).unwrap();
    let vals: Vec<f32> = (0..n).map(|i| (i % 7) as f32).collect();
    st.global.write_f32_slice(pin, &vals).unwrap();
    launch(
        &mut st,
        &m,
        "reduce",
        LaunchDims::linear(4, 128),
        &[KArg::Ptr(pin), KArg::Ptr(pout)],
        LaunchOptions::default(),
    )
    .unwrap();
    let out = st.global.read_f32_slice(pout, 4).unwrap();
    for b in 0..4usize {
        let expect: f32 = vals[b * 128..(b + 1) * 128].iter().sum();
        assert_eq!(out[b], expect, "block {b}");
    }
}

#[test]
fn grid_y_dimension_and_builtins() {
    let src = r#"
        __global__ void idx(int* out, int w) {
            int x = blockIdx.x * blockDim.x + threadIdx.x;
            int y = blockIdx.y * blockDim.y + threadIdx.y;
            out[y * w + x] = y * 100 + x;
        }
    "#;
    let m = module(src, &[]);
    let mut st = state();
    let (w, h) = (16i32, 8i32);
    let p = st.global.alloc((w * h * 4) as u64).unwrap();
    launch(
        &mut st,
        &m,
        "idx",
        LaunchDims {
            grid: (2, 2, 1),
            block: (8, 4, 1),
            dynamic_shared: 0,
        },
        &[KArg::Ptr(p), KArg::I32(w)],
        LaunchOptions::default(),
    )
    .unwrap();
    let out = st.global.read_i32_slice(p, (w * h) as usize).unwrap();
    for y in 0..h {
        for x in 0..w {
            assert_eq!(out[(y * w + x) as usize], y * 100 + x);
        }
    }
}

#[test]
fn specialized_kernel_is_faster_and_leaner() {
    // The central claim, end to end: the specialized build of the same
    // source beats the run-time-evaluated build and uses no more registers.
    let src = r#"
        #ifndef LOOP_COUNT
        #define LOOP_COUNT loopCount
        #endif
        #ifndef STRIDE
        #define STRIDE stride
        #endif
        __global__ void acc(float* in, float* out, int stride, int loopCount) {
            unsigned int off = blockIdx.x * blockDim.x + threadIdx.x;
            float acc = 0.0f;
            for (int i = 0; i < LOOP_COUNT; i++) {
                acc += in[off + i * STRIDE];
            }
            out[off] = acc;
        }
    "#;
    let m_re = module(src, &[]);
    let m_sk = module(src, &[("LOOP_COUNT", "16"), ("STRIDE", "256")]);
    let mut st = state();
    let n = 256 * 17;
    let pin = st.global.alloc(n * 4).unwrap();
    let pout = st.global.alloc(256 * 4).unwrap();
    let vals: Vec<f32> = (0..n).map(|i| (i % 5) as f32).collect();
    st.global.write_f32_slice(pin, &vals).unwrap();
    let args = [
        KArg::Ptr(pin),
        KArg::Ptr(pout),
        KArg::I32(256),
        KArg::I32(16),
    ];
    let dims = LaunchDims::linear(2, 128);
    let r_re = launch(&mut st, &m_re, "acc", dims, &args, LaunchOptions::default()).unwrap();
    let out_re = st.global.read_f32_slice(pout, 256).unwrap();
    let r_sk = launch(&mut st, &m_sk, "acc", dims, &args, LaunchOptions::default()).unwrap();
    let out_sk = st.global.read_f32_slice(pout, 256).unwrap();
    assert_eq!(out_re, out_sk, "RE and SK must compute identical results");
    assert!(
        r_sk.time_ms < r_re.time_ms,
        "specialized ({:.4} ms) must beat run-time evaluated ({:.4} ms)",
        r_sk.time_ms,
        r_re.time_ms
    );
    assert!(
        r_sk.stats.dyn_insts < r_re.stats.dyn_insts,
        "unrolling must remove loop overhead"
    );
    assert!(r_sk.regs_per_thread <= r_re.regs_per_thread);
}

#[test]
fn launch_errors_reported() {
    let src = "__global__ void k(int* o) { o[0] = 1; }";
    let m = module(src, &[]);
    let mut st = state();
    // Wrong arg count.
    assert!(launch(
        &mut st,
        &m,
        "k",
        LaunchDims::linear(1, 32),
        &[],
        LaunchOptions::default()
    )
    .is_err());
    // Unknown kernel.
    assert!(launch(
        &mut st,
        &m,
        "missing",
        LaunchDims::linear(1, 32),
        &[KArg::Ptr(0)],
        LaunchOptions::default()
    )
    .is_err());
    // Out-of-bounds store.
    assert!(launch(
        &mut st,
        &m,
        "k",
        LaunchDims::linear(1, 32),
        &[KArg::Ptr(0x10)],
        LaunchOptions::default()
    )
    .is_err());
}

#[test]
fn local_memory_array_roundtrip() {
    let src = r#"
        __global__ void localarr(int* out, int n) {
            int buf[8];
            for (int i = 0; i < n; i++) { buf[i & 7] = i + (int)threadIdx.x; }
            out[threadIdx.x] = buf[(n - 1) & 7];
        }
    "#;
    let m = module(src, &[]);
    let mut st = state();
    let p = st.global.alloc(64 * 4).unwrap();
    launch(
        &mut st,
        &m,
        "localarr",
        LaunchDims::linear(1, 64),
        &[KArg::Ptr(p), KArg::I32(5)],
        LaunchOptions::default(),
    )
    .unwrap();
    let out = st.global.read_i32_slice(p, 64).unwrap();
    for (t, v) in out.iter().enumerate() {
        assert_eq!(*v, 4 + t as i32);
    }
}

#[test]
fn constant_memory_visible_to_kernel() {
    let src = r#"
        __constant__ float coef[4];
        __global__ void scale(float* out) {
            out[threadIdx.x] = coef[threadIdx.x & 3u] * 2.0f;
        }
    "#;
    let m = module(src, &[]);
    let mut st = state();
    let coef = [1.0f32, 2.0, 3.0, 4.0];
    let bytes: Vec<u8> = coef.iter().flat_map(|v| v.to_le_bytes()).collect();
    st.set_const(&m, "coef", &bytes).unwrap();
    let p = st.global.alloc(8 * 4).unwrap();
    launch(
        &mut st,
        &m,
        "scale",
        LaunchDims::linear(1, 8),
        &[KArg::Ptr(p)],
        LaunchOptions::default(),
    )
    .unwrap();
    let out = st.global.read_f32_slice(p, 8).unwrap();
    assert_eq!(out, vec![2.0, 4.0, 6.0, 8.0, 2.0, 4.0, 6.0, 8.0]);
}

#[test]
fn nested_divergence_reconverges() {
    let src = r#"
        __global__ void nest(int* out) {
            int t = (int)threadIdx.x;
            int v = 0;
            if (t < 16) {
                if (t < 8) { v = 1; } else { v = 2; }
            } else {
                if (t < 24) { v = 3; } else { v = 4; }
            }
            out[t] = v;
        }
    "#;
    let m = module(src, &[]);
    let mut st = state();
    let p = st.global.alloc(32 * 4).unwrap();
    launch(
        &mut st,
        &m,
        "nest",
        LaunchDims::linear(1, 32),
        &[KArg::Ptr(p)],
        LaunchOptions::default(),
    )
    .unwrap();
    let out = st.global.read_i32_slice(p, 32).unwrap();
    for (t, v) in out.iter().enumerate() {
        let expect = match t {
            0..=7 => 1,
            8..=15 => 2,
            16..=23 => 3,
            _ => 4,
        };
        assert_eq!(*v, expect, "thread {t}");
    }
}

#[test]
fn uncoalesced_access_costs_more_transactions() {
    let src = r#"
        #ifndef STRIDE
        #define STRIDE stride
        #endif
        __global__ void touch(float* in, float* out, int stride) {
            unsigned int i = blockIdx.x * blockDim.x + threadIdx.x;
            out[i] = in[i * STRIDE];
        }
    "#;
    let mut st = state();
    let n = 128u64;
    let pin = st.global.alloc(n * 64 * 4).unwrap();
    let pout = st.global.alloc(n * 4).unwrap();
    let m1 = module(src, &[("STRIDE", "1")]);
    let m32 = module(src, &[("STRIDE", "32")]);
    let dims = LaunchDims::linear(1, 128);
    let r1 = launch(
        &mut st,
        &m1,
        "touch",
        dims,
        &[KArg::Ptr(pin), KArg::Ptr(pout), KArg::I32(1)],
        LaunchOptions::default(),
    )
    .unwrap();
    let r32 = launch(
        &mut st,
        &m32,
        "touch",
        dims,
        &[KArg::Ptr(pin), KArg::Ptr(pout), KArg::I32(32)],
        LaunchOptions::default(),
    )
    .unwrap();
    assert!(
        r32.stats.global_transactions > 4 * r1.stats.global_transactions,
        "strided: {} vs unit: {}",
        r32.stats.global_transactions,
        r1.stats.global_transactions
    );
    assert!(r32.time_ms > r1.time_ms);
}

#[test]
fn c2070_outruns_c1060_on_compute_bound_kernel() {
    let src = r#"
        __global__ void fma(float* out, float a) {
            float x = (float)threadIdx.x;
            for (int i = 0; i < 64; i++) { x = x * a + 0.5f; }
            out[blockIdx.x * blockDim.x + threadIdx.x] = x;
        }
    "#;
    let m = module(src, &[]);
    let mut times = Vec::new();
    for dev in [DeviceConfig::tesla_c1060(), DeviceConfig::tesla_c2070()] {
        let mut st = DeviceState::new(dev, 64 << 20);
        let p = st.global.alloc(4 * 256 * 128).unwrap();
        let r = launch(
            &mut st,
            &m,
            "fma",
            LaunchDims::linear(256, 128),
            &[KArg::Ptr(p), KArg::F32(1.0001)],
            LaunchOptions::default(),
        )
        .unwrap();
        times.push(r.time_ms);
    }
    assert!(
        times[1] < times[0],
        "C2070 {} should beat C1060 {}",
        times[1],
        times[0]
    );
}

#[test]
fn per_lane_variable_trip_counts() {
    // Each lane loops a different number of times (divergent loop exit).
    let src = r#"
        __global__ void varloop(int* out) {
            int t = (int)threadIdx.x;
            int acc = 0;
            for (int i = 0; i < t; i++) { acc += i; }
            out[t] = acc;
        }
    "#;
    let m = module(src, &[]);
    let mut st = state();
    let p = st.global.alloc(64 * 4).unwrap();
    launch(
        &mut st,
        &m,
        "varloop",
        LaunchDims::linear(1, 64),
        &[KArg::Ptr(p)],
        LaunchOptions::default(),
    )
    .unwrap();
    let out = st.global.read_i32_slice(p, 64).unwrap();
    for (t, v) in out.iter().enumerate() {
        let expect: i32 = (0..t as i32).sum();
        assert_eq!(*v, expect, "lane {t}");
    }
}

#[test]
fn break_and_continue_divergent() {
    let src = r#"
        __global__ void bc(int* out) {
            int t = (int)threadIdx.x;
            int acc = 0;
            for (int i = 0; i < 16; i++) {
                if (i == t) { continue; }
                if (i > t + 4) { break; }
                acc += 1;
            }
            out[t] = acc;
        }
    "#;
    let m = module(src, &[]);
    let mut st = state();
    let p = st.global.alloc(32 * 4).unwrap();
    launch(
        &mut st,
        &m,
        "bc",
        LaunchDims::linear(1, 32),
        &[KArg::Ptr(p)],
        LaunchOptions::default(),
    )
    .unwrap();
    let out = st.global.read_i32_slice(p, 32).unwrap();
    for (t, v) in out.iter().enumerate() {
        // Host reimplementation of the same loop.
        let mut acc = 0;
        for i in 0..16i32 {
            if i == t as i32 {
                continue;
            }
            if i > t as i32 + 4 {
                break;
            }
            acc += 1;
        }
        assert_eq!(*v, acc, "lane {t}");
    }
}

#[test]
fn mul24_and_intrinsics_functional() {
    let src = r#"
        __global__ void intr(int* out, float* fout) {
            int t = (int)threadIdx.x;
            out[t] = __mul24(t + 100, 3);
            fout[t] = fmaxf(sqrtf((float)(t * t)), fabsf((float)(-t)));
        }
    "#;
    let m = module(src, &[]);
    let mut st = state();
    let p = st.global.alloc(32 * 4).unwrap();
    let pf = st.global.alloc(32 * 4).unwrap();
    launch(
        &mut st,
        &m,
        "intr",
        LaunchDims::linear(1, 32),
        &[KArg::Ptr(p), KArg::Ptr(pf)],
        LaunchOptions::default(),
    )
    .unwrap();
    let out = st.global.read_i32_slice(p, 32).unwrap();
    let fout = st.global.read_f32_slice(pf, 32).unwrap();
    for t in 0..32 {
        assert_eq!(out[t], (t as i32 + 100) * 3);
        assert_eq!(fout[t], t as f32);
    }
}

#[test]
fn bank_conflicts_slow_shared_access() {
    // Stride-16 word accesses on the C1060's 16 banks serialize 16-way.
    let src = r#"
        #ifndef STRIDE
        #define STRIDE 1
        #endif
        __global__ void sh(float* out) {
            __shared__ float buf[1024];
            int t = (int)threadIdx.x;
            buf[(t * STRIDE) & 1023] = (float)t;
            __syncthreads();
            float acc = 0.0f;
            for (int i = 0; i < 32; i++) {
                acc += buf[((t + i) * STRIDE) & 1023];
            }
            out[t] = acc;
        }
    "#;
    let mut times = Vec::new();
    for stride in ["1", "16"] {
        let m = module(src, &[("STRIDE", stride)]);
        let mut st = state();
        let p = st.global.alloc(64 * 4).unwrap();
        let r = launch(
            &mut st,
            &m,
            "sh",
            LaunchDims::linear(8, 64),
            &[KArg::Ptr(p)],
            LaunchOptions::default(),
        )
        .unwrap();
        times.push((r.time_ms, r.stats.bank_conflict_extra));
    }
    assert_eq!(times[0].1, 0, "unit stride must be conflict-free");
    assert!(times[1].1 > 0, "stride 16 must conflict");
    assert!(
        times[1].0 > times[0].0 * 1.3,
        "conflicts must cost time: {times:?}"
    );
}

#[test]
fn coalescing_rules_differ_between_generations() {
    // A 64-byte-aligned, 16-float-strided pattern: fine per half-warp on
    // CC1.3 (one 64B segment each), two 128B lines per warp on CC2.0 —
    // exercised via reported transaction counts.
    let src = r#"
        __global__ void touch(float* in, float* out) {
            unsigned int i = blockIdx.x * blockDim.x + threadIdx.x;
            out[i] = in[i * 2u];
        }
    "#;
    let mut per_dev = Vec::new();
    for dev in [DeviceConfig::tesla_c1060(), DeviceConfig::tesla_c2070()] {
        let m = module(src, &[]);
        let mut st = DeviceState::new(dev, 16 << 20);
        let pin = st.global.alloc(4 * 256 * 2).unwrap();
        let pout = st.global.alloc(4 * 256).unwrap();
        let r = launch(
            &mut st,
            &m,
            "touch",
            LaunchDims::linear(2, 128),
            &[KArg::Ptr(pin), KArg::Ptr(pout)],
            LaunchOptions::default(),
        )
        .unwrap();
        per_dev.push(r.stats.global_transactions);
    }
    // Stride-2 float reads: C1060 half-warp = 32 floats·stride2 = 128B = 2
    // segments of 64B per half-warp (4/warp); C2070 = 2 lines of 128B per
    // warp. The C1060 does more, smaller transactions.
    assert!(
        per_dev[0] > per_dev[1],
        "C1060 {} vs C2070 {}",
        per_dev[0],
        per_dev[1]
    );
}

#[test]
fn dynamic_shared_memory_allocation() {
    // The same kernel uses statically declared shared plus a dynamic
    // window provided at launch (GPU-PF's dynamic shared int parameter).
    let src = r#"
        __global__ void dyn(float* out, int n) {
            __shared__ float fixed[32];
            int t = (int)threadIdx.x;
            fixed[t & 31] = (float)t;
            __syncthreads();
            out[t] = fixed[(t + 1) & 31];
        }
    "#;
    let m = module(src, &[]);
    let mut st = state();
    let p = st.global.alloc(64 * 4).unwrap();
    let r = launch(
        &mut st,
        &m,
        "dyn",
        LaunchDims {
            grid: (1, 1, 1),
            block: (32, 1, 1),
            dynamic_shared: 4096,
        },
        &[KArg::Ptr(p), KArg::I32(32)],
        LaunchOptions::default(),
    )
    .unwrap();
    assert_eq!(r.shared_per_block, 32 * 4 + 4096);
    let out = st.global.read_f32_slice(p, 32).unwrap();
    for t in 0..32 {
        assert_eq!(out[t], ((t + 1) % 32) as f32);
    }
}

#[test]
fn occupancy_reported_matches_calculator() {
    let src = r#"
        __global__ void k(float* out) {
            __shared__ float buf[512];
            int t = (int)threadIdx.x;
            buf[t & 511] = 1.0f;
            __syncthreads();
            out[t] = buf[0];
        }
    "#;
    let m = module(src, &[]);
    let mut st = state();
    let p = st.global.alloc(4 * 256).unwrap();
    let r = launch(
        &mut st,
        &m,
        "k",
        LaunchDims::linear(2, 128),
        &[KArg::Ptr(p)],
        LaunchOptions::default(),
    )
    .unwrap();
    let expect = ks_sim::occupancy(
        &DeviceConfig::tesla_c1060(),
        128,
        r.regs_per_thread,
        r.shared_per_block,
    );
    assert_eq!(r.occupancy, expect);
}

#[test]
fn event_and_hybrid_timing_agree_on_shape() {
    // The two timing modes are different models; they must agree on the
    // qualitative results (RE vs SK ordering) and stay within a small
    // factor of each other on a mixed compute/memory kernel.
    let src = r#"
        #ifndef LOOP_COUNT
        #define LOOP_COUNT loopCount
        #endif
        __global__ void work(float* in, float* out, int loopCount) {
            unsigned int i = blockIdx.x * blockDim.x + threadIdx.x;
            float acc = 0.0f;
            for (int k = 0; k < LOOP_COUNT; k++) {
                acc = acc * 1.5f + in[(i + (unsigned int)k * 64u) & 4095u];
            }
            out[i] = acc;
        }
    "#;
    let mut st = state();
    let pin = st.global.alloc(4096 * 4).unwrap();
    let pout = st.global.alloc(4096 * 4).unwrap();
    let args = [KArg::Ptr(pin), KArg::Ptr(pout), KArg::I32(24)];
    let dims = LaunchDims::linear(32, 128);
    let mut results = Vec::new();
    for defs in [vec![], vec![("LOOP_COUNT", "24")]] {
        let m = module(src, &defs);
        let mut pair = Vec::new();
        for event in [false, true] {
            let r = launch(
                &mut st,
                &m,
                "work",
                dims,
                &args,
                LaunchOptions {
                    functional: false,
                    timing_sample_blocks: 4,
                    event_timing: event,
                    ..Default::default()
                },
            )
            .unwrap();
            pair.push(r.time_ms);
        }
        results.push(pair);
    }
    let (re_h, re_e) = (results[0][0], results[0][1]);
    let (sk_h, sk_e) = (results[1][0], results[1][1]);
    assert!(sk_h < re_h, "hybrid: SK {sk_h} !< RE {re_h}");
    assert!(sk_e < re_e, "event: SK {sk_e} !< RE {re_e}");
    for (h, e) in [(re_h, re_e), (sk_h, sk_e)] {
        let ratio = h.max(e) / h.min(e);
        assert!(ratio < 4.0, "models diverge: hybrid {h} vs event {e}");
    }
}

#[test]
fn event_timing_respects_barriers() {
    // The reduction kernel must produce identical results and a sane time
    // under event scheduling (barrier release across interleaved warps).
    let src = r#"
        __global__ void reduce(float* in, float* out) {
            __shared__ float buf[128];
            unsigned int t = threadIdx.x;
            buf[t] = in[blockIdx.x * blockDim.x + t];
            __syncthreads();
            for (unsigned int s = 64u; s > 0u; s = s / 2) {
                if (t < s) { buf[t] += buf[t + s]; }
                __syncthreads();
            }
            if (t == 0u) { out[blockIdx.x] = buf[0]; }
        }
    "#;
    let m = module(src, &[]);
    let mut st = state();
    let n = 512;
    let pin = st.global.alloc(n * 4).unwrap();
    let pout = st.global.alloc(4 * 4).unwrap();
    let vals: Vec<f32> = (0..n).map(|i| (i % 11) as f32).collect();
    st.global.write_f32_slice(pin, &vals).unwrap();
    let r = launch(
        &mut st,
        &m,
        "reduce",
        LaunchDims::linear(4, 128),
        &[KArg::Ptr(pin), KArg::Ptr(pout)],
        LaunchOptions {
            functional: true,
            timing_sample_blocks: 4,
            event_timing: true,
            ..Default::default()
        },
    )
    .unwrap();
    assert!(r.time_ms > 0.0);
    let out = st.global.read_f32_slice(pout, 4).unwrap();
    for b in 0..4usize {
        let expect: f32 = vals[b * 128..(b + 1) * 128].iter().sum();
        assert_eq!(out[b], expect);
    }
}

#[test]
fn texture_fetch_end_to_end() {
    // tex1Dfetch through a bound texture reference: functional results,
    // cached-bandwidth accounting, and the unbound-texture trap.
    let src = r#"
        texture<float> texSrc;
        __global__ void gather(float* out, int n) {
            int i = (int)(blockIdx.x * blockDim.x + threadIdx.x);
            if (i < n) {
                float a = tex1Dfetch(texSrc, i);
                float b = tex1Dfetch(texSrc, (i + 1) % n);
                out[i] = a + b;
            }
        }
    "#;
    let m = module(src, &[]);
    assert_eq!(m.textures, vec!["texSrc".to_string()]);
    let mut st = state();
    let n = 128usize;
    let p_src = st.global.alloc((n * 4) as u64).unwrap();
    let p_out = st.global.alloc((n * 4) as u64).unwrap();
    let vals: Vec<f32> = (0..n).map(|i| i as f32 * 0.25).collect();
    st.global.write_f32_slice(p_src, &vals).unwrap();

    // Unbound texture must trap.
    let err = launch(
        &mut st,
        &m,
        "gather",
        LaunchDims::linear(1, 128),
        &[KArg::Ptr(p_out), KArg::I32(n as i32)],
        LaunchOptions::default(),
    );
    assert!(err.is_err(), "fetch through an unbound texture must fail");

    st.bind_texture("texSrc", p_src);
    let r = launch(
        &mut st,
        &m,
        "gather",
        LaunchDims::linear(1, 128),
        &[KArg::Ptr(p_out), KArg::I32(n as i32)],
        LaunchOptions::default(),
    )
    .unwrap();
    let out = st.global.read_f32_slice(p_out, n).unwrap();
    for i in 0..n {
        assert_eq!(out[i], vals[i] + vals[(i + 1) % n], "at {i}");
    }
    // The overlapping b-fetch re-reads lines a already touched: the reuse
    // cache keeps DRAM bytes well below 2 fetches' worth.
    assert!(r.stats.global_loads >= 2);
    assert!(
        r.stats.global_bytes <= (n as u64 * 4) * 3,
        "texture cache should absorb the overlapping fetch: {} B",
        r.stats.global_bytes
    );
}

#[test]
fn tex_fetch_specializes_like_any_read() {
    // A texture-read loop unrolls when COUNT is specialized; results agree
    // between RE and SK and with the host.
    let src = r#"
        texture<float> t;
        #ifndef COUNT
        #define COUNT count
        #endif
        __global__ void sum_tex(float* out, int count) {
            float acc = 0.0f;
            for (int i = 0; i < COUNT; i++) {
                acc += tex1Dfetch(t, (int)threadIdx.x + i);
            }
            out[threadIdx.x] = acc;
        }
    "#;
    let mut st = state();
    let p_src = st.global.alloc(4 * 256).unwrap();
    let p_out = st.global.alloc(4 * 64).unwrap();
    let vals: Vec<f32> = (0..256).map(|i| (i % 7) as f32).collect();
    st.global.write_f32_slice(p_src, &vals).unwrap();
    st.bind_texture("t", p_src);
    let mut outs = Vec::new();
    let mut times = Vec::new();
    for defs in [vec![], vec![("COUNT", "8")]] {
        let m = module(src, &defs);
        let r = launch(
            &mut st,
            &m,
            "sum_tex",
            LaunchDims::linear(1, 64),
            &[KArg::Ptr(p_out), KArg::I32(8)],
            LaunchOptions::default(),
        )
        .unwrap();
        outs.push(st.global.read_f32_slice(p_out, 64).unwrap());
        times.push(r.time_ms);
    }
    assert_eq!(outs[0], outs[1]);
    for (t, v) in outs[0].iter().enumerate() {
        let expect: f32 = (0..8).map(|i| vals[t + i]).sum();
        assert_eq!(*v, expect, "thread {t}");
    }
    assert!(
        times[1] < times[0],
        "specialized texture loop must unroll and win"
    );
}

#[test]
fn numeric_edge_semantics_match_cuda() {
    // i32 overflow wraps; INT_MIN / -1 wraps (no trap); float NaN
    // comparisons are all-false except !=; fminf/fmaxf prefer the number.
    let src = r#"
        __global__ void edges(int* iout, float* fout, float nan) {
            int big = 2147483647;
            iout[0] = big + 1;                  // wraps to INT_MIN
            int m = -2147483647 - 1;
            iout[1] = m / (0 - 1);              // INT_MIN / -1 wraps
            iout[2] = m % (0 - 1);              // 0
            iout[3] = (nan == nan) ? 1 : 0;     // NaN != itself
            iout[4] = (nan != nan) ? 1 : 0;
            iout[5] = (nan < 1.0f) ? 1 : 0;
            fout[0] = fminf(nan, 2.0f);
            fout[1] = fmaxf(nan, 2.0f);
        }
    "#;
    let m = module(src, &[]);
    let mut st = state();
    let pi = st.global.alloc(6 * 4).unwrap();
    let pf = st.global.alloc(2 * 4).unwrap();
    launch(
        &mut st,
        &m,
        "edges",
        LaunchDims::linear(1, 32),
        &[KArg::Ptr(pi), KArg::Ptr(pf), KArg::F32(f32::NAN)],
        LaunchOptions::default(),
    )
    .unwrap();
    let i = st.global.read_i32_slice(pi, 6).unwrap();
    assert_eq!(i[0], i32::MIN);
    assert_eq!(i[1], i32::MIN, "INT_MIN / -1 wraps on GPU");
    assert_eq!(i[2], 0);
    assert_eq!(i[3], 0, "NaN == NaN is false");
    assert_eq!(i[4], 1, "NaN != NaN is true");
    assert_eq!(i[5], 0, "NaN < x is false");
    let f = st.global.read_f32_slice(pf, 2).unwrap();
    assert_eq!(f[0], 2.0, "fminf(NaN, x) = x");
    assert_eq!(f[1], 2.0, "fmaxf(NaN, x) = x");
}

/// Serializes the tests that install a process-global fault plan so
/// they cannot clobber each other's plan mid-launch.
static FAULT_PLAN_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[test]
fn silent_flip_corrupts_one_output_bit_without_failing_the_launch() {
    let _guard = FAULT_PLAN_LOCK.lock().unwrap();
    let src = r#"
        __global__ void flip_victim(int* out, int n) {
            int i = blockIdx.x * blockDim.x + threadIdx.x;
            if (i < n) { out[i] = i * 3; }
        }
    "#;
    let m = module(src, &[]);
    let mut st = state();
    let n = 256usize;
    let p = st.global.alloc((n * 4) as u64).unwrap();
    let dims = LaunchDims::linear(2, 128);
    let args = [KArg::Ptr(p), KArg::I32(n as i32)];
    let opts = LaunchOptions::default();
    launch(&mut st, &m, "flip_victim", dims, &args, opts).unwrap();
    let clean = st.global.read_i32_slice(p, n).unwrap();

    // A plan scoped to this kernel name so concurrently running tests
    // in this binary are never faulted. nth(2): the next launch is
    // spared, the one after is corrupted.
    use ks_fault::{FaultKind, FaultPlan, FaultRule, Target};
    let plan =
        std::sync::Arc::new(FaultPlan::new(1234).rule(
            FaultRule::new(FaultKind::SilentFlip, Target::Kernel("flip_victim".into())).nth(2),
        ));
    ks_fault::install(plan.clone());
    launch(&mut st, &m, "flip_victim", dims, &args, opts).unwrap();
    assert_eq!(st.global.read_i32_slice(p, n).unwrap(), clean);
    // The corrupted launch still reports success — that is the point.
    launch(&mut st, &m, "flip_victim", dims, &args, opts).unwrap();
    ks_fault::clear();

    let dirty = st.global.read_i32_slice(p, n).unwrap();
    let flipped_bits: u32 = clean
        .iter()
        .zip(&dirty)
        .map(|(a, b)| (a ^ b).count_ones())
        .sum();
    assert_eq!(flipped_bits, 1, "exactly one bit must differ");
    assert!(plan.event_log().contains("site=launch kind=silent-flip"));

    // Replays are byte-exact: same plan, same call sequence, same bit.
    let plan2 =
        std::sync::Arc::new(FaultPlan::new(1234).rule(
            FaultRule::new(FaultKind::SilentFlip, Target::Kernel("flip_victim".into())).nth(2),
        ));
    ks_fault::install(plan2);
    launch(&mut st, &m, "flip_victim", dims, &args, opts).unwrap();
    launch(&mut st, &m, "flip_victim", dims, &args, opts).unwrap();
    ks_fault::clear();
    assert_eq!(st.global.read_i32_slice(p, n).unwrap(), dirty);
}

#[test]
fn keyed_launch_scopes_flips_to_one_variant() {
    let _guard = FAULT_PLAN_LOCK.lock().unwrap();
    let src = r#"
        __global__ void keyed_victim(int* out) {
            out[threadIdx.x] = (int)threadIdx.x;
        }
    "#;
    let m = module(src, &[]);
    let kernel = LaunchPlan::from_function(m.function("keyed_victim").unwrap());
    let mut st = state();
    let p = st.global.alloc(32 * 4).unwrap();
    let dims = LaunchDims::linear(1, 32);
    let args = [KArg::Ptr(p)];
    let opts = LaunchOptions::default();
    let keyed = |st: &mut DeviceState, key| {
        launch_planned(st, &m.textures, &kernel, dims, &args, opts, key, "").unwrap()
    };
    use ks_fault::{FaultKind, FaultPlan, FaultRule, Target};
    let plan = std::sync::Arc::new(
        FaultPlan::new(7)
            .rule(FaultRule::new(FaultKind::SilentFlip, Target::Key(0xFEED)).persistent()),
    );
    ks_fault::install(plan.clone());
    // Unkeyed launch and a different key: spared.
    launch(&mut st, &m, "keyed_victim", dims, &args, opts).unwrap();
    keyed(&mut st, 0xBEEF);
    let clean = st.global.read_i32_slice(p, 32).unwrap();
    assert_eq!(plan.injected_count(), 0);
    // The targeted variant: corrupted (still Ok).
    keyed(&mut st, 0xFEED);
    ks_fault::clear();
    assert_eq!(plan.injected_count(), 1);
    assert_ne!(st.global.read_i32_slice(p, 32).unwrap(), clean);
}

#[test]
fn straight_line_runs_longer_than_the_plan_records_run_whole() {
    // Over 255 straight-line ops in one block: the control core hands
    // them to the domain in pieces. Event timing steps one op at a time.
    let src = r#"
        __global__ void chain(int* o, int a) {
            int x = a + (int)threadIdx.x;
            #pragma unroll
            for (int k = 0; k < 200; k++) { x = x * 3 + k; }
            o[threadIdx.x] = x;
        }
    "#;
    let m = module(src, &[]);
    let expect: Vec<i32> = (0..64)
        .map(|t| (0..200).fold(5 + t, |x: i32, k| x.wrapping_mul(3).wrapping_add(k)))
        .collect();
    for event_timing in [false, true] {
        let mut st = state();
        let o = st.global.alloc(64 * 4).unwrap();
        let opts = LaunchOptions {
            event_timing,
            ..LaunchOptions::default()
        };
        let (dims, args) = (LaunchDims::linear(1, 64), [KArg::Ptr(o), KArg::I32(5)]);
        let report = launch(&mut st, &m, "chain", dims, &args, opts).unwrap();
        assert!(report.static_insts > 400, "{}", report.static_insts);
        let raw = st.global.read_bytes(o, 64 * 4).unwrap();
        let got: Vec<i32> = raw
            .chunks_exact(4)
            .map(|b| i32::from_le_bytes(b.try_into().unwrap()))
            .collect();
        assert_eq!(got, expect);
    }
}
