//! `LaunchReport::host_*_us` partition the launch: together they account
//! for the `launch` span. (Its own test binary: it switches the
//! process-wide span collector on.)

use ks_codegen::{compile, CodegenOptions};
use ks_lang::frontend;
use ks_sim::*;

#[test]
fn host_time_fields_account_for_the_launch_span() {
    let src = r#"
        __global__ void saxpy(float* x, float* y, float a, int n) {
            int i = (int)(blockIdx.x * blockDim.x + threadIdx.x);
            if (i < n) {
                float acc = y[i];
                for (int k = 0; k < 64; k++) { acc = acc * a + x[(i + k) % n]; }
                y[i] = acc;
            }
        }
    "#;
    let prog = frontend(src, &[]).unwrap();
    let mut m = compile(&prog, &CodegenOptions::default()).unwrap();
    ks_opt::optimize_module(&mut m);

    let n = 64 * 128;
    let mut st = DeviceState::new(DeviceConfig::tesla_c2070(), 1 << 20);
    let x = st.global.alloc(n * 4).unwrap();
    let y = st.global.alloc(n * 4).unwrap();
    let args = [
        KArg::Ptr(x),
        KArg::Ptr(y),
        KArg::F32(0.5),
        KArg::I32(n as i32),
    ];
    let dims = LaunchDims::linear(64, 128);

    ks_trace::set_enabled(true);
    // Both entry points: `launch` decodes a plan of its own before the
    // clock starts, `launch_planned` takes a kept one.
    let plan = LaunchPlan::from_function(m.function("saxpy").unwrap());
    let reports = [
        launch(&mut st, &m, "saxpy", dims, &args, LaunchOptions::default()).unwrap(),
        launch_planned(
            &mut st,
            &m.textures,
            &plan,
            dims,
            &args,
            LaunchOptions::default(),
            0,
            "",
        )
        .unwrap(),
    ];
    ks_trace::set_enabled(false);
    let spans: Vec<_> = ks_trace::drain_spans()
        .into_iter()
        .filter(|s| s.name == "launch")
        .collect();
    assert_eq!(spans.len(), 2);

    for (r, span) in reports.iter().zip(&spans) {
        let span_us = span.dur_ns as f64 / 1e3;
        let parts = [r.host_plan_us, r.host_sample_us, r.host_functional_us];
        assert!(parts.iter().all(|p| *p >= 0.0), "{parts:?}");
        let sum: f64 = parts.iter().sum();
        // The span opens after the clock starts and closes after it
        // stops; what it adds is a fault-plan probe and seven metric
        // publishes.
        assert!(
            sum <= span_us * 1.01 && sum >= span_us * 0.9,
            "host parts {parts:?} sum to {sum:.1} us of a {span_us:.1} us launch span"
        );
    }
}
