//! Property tests on compiler and simulator invariants that don't depend
//! on any particular application:
//!
//! * every module that compiles also verifies, on both devices, for random
//!   specialization values;
//! * register allocation never assigns two simultaneously-live virtual
//!   registers to the same physical register (checked by differential
//!   execution through a register-pressure-heavy kernel);
//! * occupancy is monotone in resource usage;
//! * the preprocessor's command-line defines override in-source defaults.

use ks_core::{Compiler, Defines};
use ks_sim::{launch, occupancy, DeviceConfig, DeviceState, KArg, LaunchDims, LaunchOptions};
use proptest::prelude::*;

/// A kernel with tunable register pressure: KREGS live accumulators.
const PRESSURE: &str = r#"
#ifndef KREGS
#define KREGS 4
#endif
__global__ void pressure(float* in, float* out, int n) {
    int i = (int)(blockIdx.x * blockDim.x + threadIdx.x);
    float acc[KREGS];
    for (int r = 0; r < KREGS; r++) { acc[r] = in[(i + r) % n]; }
    for (int it = 0; it < 3; it++) {
        for (int r = 0; r < KREGS; r++) { acc[r] = acc[r] * 1.5f + 0.25f; }
    }
    float total = 0.0f;
    for (int r = 0; r < KREGS; r++) { total += acc[r]; }
    out[i] = total;
}
"#;

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Random specializations of the pressure kernel verify and execute
    /// identically to the host oracle — i.e. linear-scan register
    /// allocation with heavy pressure never corrupts live values.
    #[test]
    fn regalloc_preserves_live_values(kregs in 1usize..24) {
        let compiler = Compiler::new(DeviceConfig::tesla_c1060());
        let bin = compiler
            .compile(PRESSURE, Defines::new().def("KREGS", kregs))
            .unwrap();
        let f = bin.module.function("pressure").unwrap();
        prop_assert!(ks_ir::verify_function(f).is_empty());
        // Register demand grows with the accumulator count.
        prop_assert!(bin.regs_per_thread("pressure") as usize >= kregs.min(8));

        let n = 64usize;
        let mut st = DeviceState::new(DeviceConfig::tesla_c1060(), 8 << 20);
        let p_in = st.global.alloc((n * 4) as u64).unwrap();
        let p_out = st.global.alloc((n * 4) as u64).unwrap();
        let vals: Vec<f32> = (0..n).map(|i| (i % 9) as f32 * 0.5).collect();
        st.global.write_f32_slice(p_in, &vals).unwrap();
        launch(
            &mut st,
            &bin.module,
            "pressure",
            LaunchDims::linear(1, n as u32),
            &[KArg::Ptr(p_in), KArg::Ptr(p_out), KArg::I32(n as i32)],
            LaunchOptions::default(),
        )
        .unwrap();
        let out = st.global.read_f32_slice(p_out, n).unwrap();
        for (i, got) in out.iter().enumerate() {
            let mut expect = 0.0f32;
            for r in 0..kregs {
                let mut a = vals[(i + r) % n];
                for _ in 0..3 {
                    a = a * 1.5 + 0.25;
                }
                expect += a;
            }
            prop_assert!((got - expect).abs() < 1e-4, "thread {}: {} vs {}", i, got, expect);
        }
    }

    /// Occupancy never increases when a kernel consumes more registers or
    /// more shared memory, on either device.
    #[test]
    fn occupancy_monotone(
        threads_pow in 5u32..9,
        regs in 2u32..64,
        shared in 0u32..12288,
    ) {
        let threads = 1u32 << threads_pow;
        for dev in DeviceConfig::presets() {
            let base = occupancy(&dev, threads, regs, shared);
            let more_regs = occupancy(&dev, threads, regs + 4, shared);
            let more_shared = occupancy(&dev, threads, regs, shared + 1024);
            prop_assert!(more_regs.active_warps <= base.active_warps);
            prop_assert!(more_shared.active_warps <= base.active_warps);
        }
    }

    /// `-D NAME=value` overrides an in-source `#ifndef` default, matching
    /// nvcc semantics; the resulting constant lands in the PTX.
    #[test]
    fn command_line_defines_override_defaults(value in 2i64..4096) {
        let src = r#"
            #ifndef SCALE
            #define SCALE 1
            #endif
            __global__ void k(int* out) {
                out[threadIdx.x] = (int)threadIdx.x * SCALE;
            }
        "#;
        let compiler = Compiler::new(DeviceConfig::tesla_c2070());
        let default = compiler.compile(src, Defines::new()).unwrap();
        let custom = compiler.compile(src, Defines::new().def("SCALE", value)).unwrap();
        // Execute both; outputs must reflect the chosen scale.
        for (bin, scale) in [(&default, 1i64), (&custom, value)] {
            let mut st = DeviceState::new(DeviceConfig::tesla_c2070(), 4 << 20);
            let p = st.global.alloc(32 * 4).unwrap();
            launch(
                &mut st,
                &bin.module,
                "k",
                LaunchDims::linear(1, 32),
                &[KArg::Ptr(p)],
                LaunchOptions::default(),
            )
            .unwrap();
            let out = st.global.read_i32_slice(p, 32).unwrap();
            for (t, v) in out.iter().enumerate() {
                prop_assert_eq!(*v as i64, t as i64 * scale);
            }
        }
    }

    /// The whole front end + optimizer + verifier survives arbitrary
    /// whitespace and comment injection around a valid kernel.
    #[test]
    fn lexer_robust_to_trivia(pad in "[ \t\n]{0,20}", word in "[a-z]{1,8}") {
        let src = format!(
            "// comment {word}\n{pad}__global__ void k(int* o) {{{pad}o[0] = 1; /* {word} */{pad}}}"
        );
        let compiler = Compiler::new(DeviceConfig::tesla_c1060());
        let bin = compiler.compile(&src, Defines::new()).unwrap();
        prop_assert!(bin.module.function("k").is_some());
    }
}

/// Compile-time errors are reported, never panics, for a corpus of
/// malformed kernels.
#[test]
fn malformed_kernels_error_cleanly() {
    let cases = [
        "__global__ void k(int* o) { o[0] = ; }",
        "__global__ void k(int* o) { undeclared += 1; }",
        "__global__ void k(int* o) { o[0] = 1 }",
        "__global__ int k(int* o) { return 3; }",
        "#if 1\n__global__ void k(int* o) { o[0] = 1; }",
        "__global__ void k(int* o) { __shared__ float t[o]; }",
        "void k(int* o) { o[0] = 1; }",
        "__global__ void k(float f) { f[0] = 1.0f; }",
        "__global__ void k(int* o) { for (;;) {} }", // no-cond loop parses; body empty → infinite: still compiles
    ];
    let compiler = Compiler::new(DeviceConfig::tesla_c1060());
    for (i, src) in cases.iter().enumerate() {
        // Must not panic; the last case legitimately compiles.
        let r = compiler.compile(src, Defines::new());
        if i < cases.len() - 1 {
            assert!(r.is_err(), "case {i} should fail: {src}");
        }
    }
}

/// §2.4/§4.1: the paper's C++-template route handles multiple *data
/// types*; the preprocessor route covers the same ground — a type-token
/// macro specializes one source for int or float elements.
#[test]
fn data_type_specialization_via_macro() {
    let src = r#"
        #ifndef DTYPE
        #define DTYPE float
        #endif
        __global__ void scale2(DTYPE* in, DTYPE* out, int n) {
            int i = (int)(blockIdx.x * blockDim.x + threadIdx.x);
            if (i < n) { out[i] = in[i] + in[i]; }
        }
    "#;
    let compiler = Compiler::new(DeviceConfig::tesla_c2070());

    // float instantiation (the default)
    let fbin = compiler.compile(src, Defines::new()).unwrap();
    let mut st = DeviceState::new(DeviceConfig::tesla_c2070(), 4 << 20);
    let pin = st.global.alloc(32 * 4).unwrap();
    let pout = st.global.alloc(32 * 4).unwrap();
    let vals: Vec<f32> = (0..32).map(|i| i as f32 * 0.5).collect();
    st.global.write_f32_slice(pin, &vals).unwrap();
    launch(
        &mut st,
        &fbin.module,
        "scale2",
        LaunchDims::linear(1, 32),
        &[KArg::Ptr(pin), KArg::Ptr(pout), KArg::I32(32)],
        LaunchOptions::default(),
    )
    .unwrap();
    let out = st.global.read_f32_slice(pout, 32).unwrap();
    for (i, v) in out.iter().enumerate() {
        assert_eq!(*v, i as f32);
    }

    // int instantiation from the same source
    let ibin = compiler
        .compile(src, Defines::new().def("DTYPE", "int"))
        .unwrap();
    let mut st = DeviceState::new(DeviceConfig::tesla_c2070(), 4 << 20);
    let pin = st.global.alloc(32 * 4).unwrap();
    let pout = st.global.alloc(32 * 4).unwrap();
    let ivals: Vec<i32> = (0..32).map(|i| i * 3).collect();
    st.global.write_i32_slice(pin, &ivals).unwrap();
    launch(
        &mut st,
        &ibin.module,
        "scale2",
        LaunchDims::linear(1, 32),
        &[KArg::Ptr(pin), KArg::Ptr(pout), KArg::I32(32)],
        LaunchOptions::default(),
    )
    .unwrap();
    let out = st.global.read_i32_slice(pout, 32).unwrap();
    for (i, v) in out.iter().enumerate() {
        assert_eq!(*v, i as i32 * 6);
    }
}

/// Unary minus keeps an `unsigned` operand `unsigned`, as C does: with
/// `n = 1`, `-x` is `0xFFFFFFFF` and its shift right by 28 is 15 (an
/// `int` -1 would shift to -1).
#[test]
fn unary_minus_of_unsigned_stays_unsigned() {
    let src = "__global__ void k(int* o, unsigned int n) {\n\
                   unsigned int x = n;\n\
                   o[3] = (int)(-x >> 28);\n\
               }";
    let compiler = Compiler::new(DeviceConfig::tesla_c2070());
    let bin = compiler.compile(src, Defines::new()).unwrap();
    let mut st = DeviceState::new(DeviceConfig::tesla_c2070(), 4 << 20);
    let out = st.global.alloc(4 * 4).unwrap();
    launch(
        &mut st,
        &bin.module,
        "k",
        LaunchDims::linear(1, 1),
        &[KArg::Ptr(out), KArg::U32(1)],
        LaunchOptions::default(),
    )
    .unwrap();
    assert_eq!(st.global.read_i32_slice(out, 4).unwrap()[3], 15);
}
