use super::*;
use ks_sim::DeviceConfig;

pub(crate) const SCALE_SRC: &str = r#"
    #ifndef FACTOR
    #define FACTOR factor
    #endif
    __global__ void scale(float* in, float* out, int factor, int n) {
        int i = blockIdx.x * blockDim.x + threadIdx.x;
        if (i < n) { out[i] = in[i] * (float)FACTOR; }
    }
"#;

fn pipeline() -> Pipeline {
    let c = Arc::new(Compiler::new(DeviceConfig::tesla_c1060()));
    Pipeline::new(c, 32 << 20)
}

#[test]
fn full_pipeline_roundtrip() {
    let mut p = pipeline();
    let n = 256u32;
    let factor = p.int_param("FACTOR", 3);
    let ext = p.extent_param("buf", [n, 1, 1], 4);
    let host_in = p.host_memory(ext);
    let host_out = p.host_memory(ext);
    let dev_in = p.global_memory(ext);
    let dev_out = p.global_memory(ext);
    let m = p.module(SCALE_SRC, vec![("FACTOR", MacroBinding::Param(factor))]);
    let k = p.kernel(m, "scale");
    let grid = p.triplet_param("grid", [2, 1, 1]);
    let blk = p.triplet_param("block", [128, 1, 1]);
    let every = p.schedule_param("every", 1, 0);
    let nparam = p.int_param("n", n as i64);
    p.copy("h2d", host_in, dev_in, every);
    p.exec(
        "scale",
        k,
        grid,
        blk,
        None,
        vec![
            Arg::Mem(dev_in),
            Arg::Mem(dev_out),
            Arg::Param(factor),
            Arg::Param(nparam),
        ],
        every,
    );
    p.copy("d2h", dev_out, host_out, every);

    let vals: Vec<f32> = (0..n).map(|i| i as f32).collect();
    p.refresh().unwrap();
    p.set_host_f32(host_in, &vals);
    p.run(1).unwrap();
    let out = p.host_f32(host_out);
    for i in 0..n as usize {
        assert_eq!(out[i], vals[i] * 3.0);
    }
    assert!(p.total_sim_ms() > 0.0);
    assert_eq!(p.reports.len(), 1);

    // Change the specialization parameter: refresh recompiles, results
    // change accordingly.
    p.set_int(factor, 5);
    p.refresh().unwrap();
    p.run(1).unwrap();
    let out = p.host_f32(host_out);
    assert_eq!(out[10], 50.0);
}

#[test]
fn refresh_only_recompiles_dirty_modules() {
    let mut p = pipeline();
    let f1 = p.int_param("FACTOR", 2);
    let _m1 = p.module(SCALE_SRC, vec![("FACTOR", MacroBinding::Param(f1))]);
    p.refresh().unwrap();
    let misses_before = p.compiler.cache_stats().misses;
    // Nothing dirty: refresh again, no compile.
    p.refresh().unwrap();
    assert_eq!(p.compiler.cache_stats().misses, misses_before);
    // Dirty param: recompiles (one miss).
    p.set_int(f1, 7);
    p.refresh().unwrap();
    assert_eq!(p.compiler.cache_stats().misses, misses_before + 1);
    // Back to the old value: cache hit, not a recompile.
    p.set_int(f1, 2);
    let hits_before = p.compiler.cache_stats().hits;
    p.refresh().unwrap();
    assert_eq!(p.compiler.cache_stats().misses, misses_before + 1);
    assert_eq!(p.compiler.cache_stats().hits, hits_before + 1);
}

#[test]
fn schedules_control_firing() {
    let mut p = pipeline();
    let counter = Arc::new(std::sync::atomic::AtomicU64::new(0));
    let c2 = counter.clone();
    let every_third = p.schedule_param("third", 3, 1);
    p.user_fn(
        "count",
        move |_, _| {
            c2.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            Ok(())
        },
        every_third,
    );
    p.refresh().unwrap();
    p.run(10).unwrap();
    // Fires at iterations 1, 4, 7 → 3 times... and 10 iterations cover
    // iters 0..9, so 1,4,7 = 3 firings.
    assert_eq!(counter.load(std::sync::atomic::Ordering::SeqCst), 3);
}

#[test]
fn run_before_refresh_is_an_error() {
    let mut p = pipeline();
    assert!(matches!(p.run(1), Err(PfError::Spec(_))));
}

#[test]
fn step_param_advances_each_iteration() {
    let mut p = pipeline();
    let s = p.step_param("frame", 0, 2, 100);
    let every = p.schedule_param("e", 1, 0);
    let seen = Arc::new(parking_lot::Mutex::new(Vec::new()));
    let seen2 = seen.clone();
    // Capture the step value via a user function would need param
    // access; instead check the value between runs.
    p.user_fn("noop", |_, _| Ok(()), every);
    p.refresh().unwrap();
    for _ in 0..3 {
        seen2.lock().push(p.int_value(s));
        p.run(1).unwrap();
    }
    assert_eq!(*seen.lock(), vec![0, 2, 4]);
}

#[test]
fn subset_window_moves_over_frames() {
    // Stream 3 "frames" stored contiguously on the device through a
    // moving subset window.
    let mut p = pipeline();
    let frame = 64u32;
    let all_ext = p.extent_param("all", [frame * 3, 1, 1], 4);
    let one_ext = p.extent_param("one", [frame, 1, 1], 4);
    let dev_all = p.global_memory(all_ext);
    let host_all = p.host_memory(all_ext);
    let host_one = p.host_memory(one_ext);
    let win = p.subset_param("w", 0, frame as u64, frame as i64, 0);
    let dev_win = p.subset(dev_all, win);
    let once = p.schedule_param("once", 1000, 0);
    let every = p.schedule_param("every", 1, 0);
    p.copy("load", host_all, dev_all, once);
    p.copy("frame", dev_win, host_one, every);
    p.refresh().unwrap();
    let data: Vec<f32> = (0..frame * 3).map(|i| i as f32).collect();
    p.set_host_f32(host_all, &data);
    p.run(1).unwrap();
    assert_eq!(p.host_f32(host_one)[0], 0.0);
    p.run(1).unwrap();
    assert_eq!(p.host_f32(host_one)[0], frame as f32);
    p.run(1).unwrap();
    assert_eq!(p.host_f32(host_one)[0], (frame * 2) as f32);
}

/// Table 4.2's texture resource: a kernel reads its input through a
/// texture reference bound to a moving subset, streaming two frames.
#[test]
fn texture_resource_streams_through_subset() {
    const SRC: &str = r#"
        texture<float> texIn;
        __global__ void copy_tex(float* out, int n) {
            int i = (int)(blockIdx.x * blockDim.x + threadIdx.x);
            if (i < n) { out[i] = tex1Dfetch(texIn, i) * 2.0f; }
        }
    "#;
    let mut p = pipeline();
    let frame = 64u32;
    let all_ext = p.extent_param("all", [frame * 2, 1, 1], 4);
    let one_ext = p.extent_param("one", [frame, 1, 1], 4);
    let host_all = p.host_memory(all_ext);
    let dev_all = p.global_memory(all_ext);
    let dev_out = p.global_memory(one_ext);
    let host_out = p.host_memory(one_ext);
    let win = p.subset_param("w", 0, frame as u64, frame as i64, 0);
    let dev_win = p.subset(dev_all, win);
    let m = p.module(SRC, vec![]);
    let k = p.kernel(m, "copy_tex");
    let _tex = p.texture(m, "texIn", dev_win);
    let once = p.schedule_param("once", 1 << 30, 0);
    let every = p.schedule_param("every", 1, 0);
    let grid = p.triplet_param("g", [1, 1, 1]);
    let blk = p.triplet_param("b", [64, 1, 1]);
    let n = p.int_param("n", frame as i64);
    p.copy("load", host_all, dev_all, once);
    p.exec(
        "copy_tex",
        k,
        grid,
        blk,
        None,
        vec![Arg::Mem(dev_out), Arg::Param(n)],
        every,
    );
    p.copy("out", dev_out, host_out, every);
    p.refresh().unwrap();
    let data: Vec<f32> = (0..frame * 2).map(|i| i as f32).collect();
    p.set_host_f32(host_all, &data);
    p.run(1).unwrap();
    assert_eq!(p.host_f32(host_out)[0], 0.0);
    assert_eq!(p.host_f32(host_out)[5], 10.0);
    // Second iteration: the subset (and therefore the texture binding)
    // advanced to frame 2.
    p.run(1).unwrap();
    assert_eq!(p.host_f32(host_out)[0], frame as f32 * 2.0);
}

#[test]
fn constant_memory_copy() {
    let src = r#"
        __constant__ float coef[4];
        __global__ void apply(float* out) {
            out[threadIdx.x] = coef[threadIdx.x & 3u];
        }
    "#;
    let mut p = pipeline();
    let m = p.module(src, vec![]);
    let k = p.kernel(m, "apply");
    let cmem = p.constant_memory(m, "coef");
    let ext4 = p.extent_param("c", [4, 1, 1], 4);
    let ext8 = p.extent_param("o", [8, 1, 1], 4);
    let host_c = p.host_memory(ext4);
    let dev_o = p.global_memory(ext8);
    let host_o = p.host_memory(ext8);
    let grid = p.triplet_param("g", [1, 1, 1]);
    let blk = p.triplet_param("b", [8, 1, 1]);
    let every = p.schedule_param("e", 1, 0);
    p.copy("coef", host_c, cmem, every);
    p.exec("apply", k, grid, blk, None, vec![Arg::Mem(dev_o)], every);
    p.copy("out", dev_o, host_o, every);
    p.refresh().unwrap();
    p.set_host_f32(host_c, &[9.0, 8.0, 7.0, 6.0]);
    p.run(1).unwrap();
    assert_eq!(
        p.host_f32(host_o),
        vec![9.0, 8.0, 7.0, 6.0, 9.0, 8.0, 7.0, 6.0]
    );
}

#[test]
fn file_io_actions_roundtrip() {
    let dir = std::env::temp_dir().join("gpu-pf-fileio");
    let _ = std::fs::create_dir_all(&dir);
    let path_in = dir.join("in.bin");
    let path_out = dir.join("out.bin");
    let vals = [4.0f32, 5.0, 6.0, 7.0];
    let bytes: Vec<u8> = vals.iter().flat_map(|v| v.to_le_bytes()).collect();
    std::fs::write(&path_in, &bytes).unwrap();

    let mut p = pipeline();
    let ext = p.extent_param("b", [4, 1, 1], 4);
    let host = p.host_memory(ext);
    let dev = p.global_memory(ext);
    let host2 = p.host_memory(ext);
    let every = p.schedule_param("e", 1, 0);
    p.file_in("load", &path_in, host, every);
    p.copy("h2d", host, dev, every);
    p.copy("d2h", dev, host2, every);
    p.file_out("save", host2, &path_out, every);
    p.refresh().unwrap();
    p.run(1).unwrap();
    assert_eq!(p.host_f32(host2), vals.to_vec());
    assert_eq!(std::fs::read(&path_out).unwrap(), bytes);
}

/// §4 footnote 1: statically compiled pointer values. A global
/// allocation's device address is bound to a macro; the specialized
/// kernel stores through the absolute address, no pointer argument.
#[test]
fn pointer_specialization_through_pipeline() {
    const SRC: &str = r#"
        #ifndef PTR_OUT
        #define PTR_OUT out
        #endif
        __global__ void mark(float* out) {
            float* p = (float*)PTR_OUT;
            p[threadIdx.x] = 42.0f + (float)threadIdx.x;
        }
    "#;
    let mut p = pipeline();
    let ext = p.extent_param("o", [16, 1, 1], 4);
    let dev = p.global_memory(ext);
    let host = p.host_memory(ext);
    // Two-phase: allocate first, then bind the address and build the
    // module in a second refresh (the paper compiles once addresses
    // are known).
    p.refresh().unwrap();
    let addr = p.device_addr(dev);
    let ptr = p.pointer_param("PTR_OUT", addr);
    let m = p.module(SRC, vec![("PTR_OUT", MacroBinding::Param(ptr))]);
    let k = p.kernel(m, "mark");
    let every = p.schedule_param("e", 1, 0);
    let grid = p.triplet_param("g", [1, 1, 1]);
    let blk = p.triplet_param("b", [16, 1, 1]);
    // The pointer argument still exists in the signature but is unused
    // after specialization.
    p.exec("mark", k, grid, blk, None, vec![Arg::Mem(dev)], every);
    p.copy("d2h", dev, host, every);
    p.refresh().unwrap();
    p.run(1).unwrap();
    let out = p.host_f32(host);
    for (t, v) in out.iter().enumerate() {
        assert_eq!(*v, 42.0 + t as f32);
    }
    // The compiled kernel contains the absolute address.
    let bin = p.kernel_binary(k);
    // The thread-index offset is register-computed; the allocation's
    // absolute device address is folded into the store displacement.
    assert!(
        bin.ptx.contains(&format!("+{addr}]")) || bin.ptx.contains(&format!("[{addr}")),
        "absolute store address expected in PTX:\n{}",
        bin.ptx
    );
}

#[test]
fn validation_report_catches_mismatches() {
    let mut p = pipeline();
    let ext = p.extent_param("b", [4, 1, 1], 4);
    let host = p.host_memory(ext);
    p.refresh().unwrap();
    p.set_host_f32(host, &[1.0, 2.0, 3.0, 4.0]);
    let ok = p.validate_f32(host, &[1.0, 2.0, 3.0, 4.0], 1e-6, 1e-6);
    assert!(ok.passed());
    let bad = p.validate_f32(host, &[1.0, 2.5, 3.0, 4.0], 1e-6, 1e-6);
    assert!(!bad.passed());
    assert_eq!(bad.mismatches, 1);
    assert_eq!(bad.first_mismatch, Some(1));
    assert!((bad.worst_abs - 0.5).abs() < 1e-6);
    // Within tolerance passes.
    let tol = p.validate_f32(host, &[1.0, 2.5, 3.0, 4.0], 0.6, 0.0);
    assert!(tol.passed());
}

#[test]
fn scalar_param_kinds_as_kernel_arguments() {
    const SRC: &str = r#"
        __global__ void mix(float* out, int i, float f, int b) {
            out[threadIdx.x] = (float)i + f + (float)b * 100.0f;
        }
    "#;
    let mut p = pipeline();
    let ext = p.extent_param("o", [8, 1, 1], 4);
    let dev = p.global_memory(ext);
    let host = p.host_memory(ext);
    let m = p.module(SRC, vec![]);
    let k = p.kernel(m, "mix");
    let every = p.schedule_param("e", 1, 0);
    let grid = p.triplet_param("g", [1, 1, 1]);
    let blk = p.triplet_param("b", [8, 1, 1]);
    let ai = p.int_param("i", 7);
    let af = p.float_param("f", 0.25);
    let ab = p.bool_param("flag", true);
    p.exec(
        "mix",
        k,
        grid,
        blk,
        None,
        vec![
            Arg::Mem(dev),
            Arg::Param(ai),
            Arg::Param(af),
            Arg::Param(ab),
        ],
        every,
    );
    p.copy("d2h", dev, host, every);
    p.refresh().unwrap();
    p.run(1).unwrap();
    assert!(p.host_f32(host).iter().all(|v| (*v - 107.25).abs() < 1e-5));
}

#[test]
fn extent_change_reallocates_on_refresh() {
    let mut p = pipeline();
    let ext = p.extent_param("buf", [16, 1, 1], 4);
    let dev = p.global_memory(ext);
    p.refresh().unwrap();
    let a1 = p.device_addr(dev);
    // Growing the extent must produce a fresh (larger) allocation.
    p.set_extent(ext, [4096, 1, 1], 4);
    p.refresh().unwrap();
    let a2 = p.device_addr(dev);
    assert_ne!(a1, a2, "reallocation expected");
}

#[test]
fn logger_produces_appendix_g_style_output() {
    let buf = Arc::new(parking_lot::Mutex::new(Vec::<u8>::new()));
    struct W(Arc<parking_lot::Mutex<Vec<u8>>>);
    impl std::io::Write for W {
        fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
            self.0.lock().extend_from_slice(b);
            Ok(b.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
    let mut p = pipeline();
    p.set_logger(Box::new(W(buf.clone())));
    let f = p.int_param("FACTOR", 2);
    let _m = p.module(SCALE_SRC, vec![("FACTOR", MacroBinding::Param(f))]);
    p.refresh().unwrap();
    p.run(1).unwrap();
    let text = String::from_utf8(buf.lock().clone()).unwrap();
    assert!(text.contains("refresh"), "{text}");
    assert!(text.contains("-D FACTOR=2"), "{text}");
    assert!(text.contains("pipeline iteration 0"), "{text}");
}

#[test]
fn refresh_logs_analysis_diagnostics() {
    let buf = Arc::new(parking_lot::Mutex::new(Vec::<u8>::new()));
    struct W(Arc<parking_lot::Mutex<Vec<u8>>>);
    impl std::io::Write for W {
        fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
            self.0.lock().extend_from_slice(b);
            Ok(b.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
    // Column-major access: every warp load touches 32 segments, which
    // the analyzer flags as KSA005 (warn — the refresh still succeeds).
    let src = r#"
        __global__ void colmajor(float* a, float* out) {
            int t = (int)threadIdx.x;
            out[t] = a[t * 32];
        }
    "#;
    let cfg = ks_core::AnalysisConfig {
        block_dim: Some((64, 1, 1)),
        ..Default::default()
    };
    let c = Arc::new(Compiler::new(DeviceConfig::tesla_c1060()).with_analysis(cfg));
    let mut p = Pipeline::new(c, 32 << 20);
    p.set_logger(Box::new(W(buf.clone())));
    let _m = p.module(src, vec![]);
    p.refresh().unwrap();
    let text = String::from_utf8(buf.lock().clone()).unwrap();
    assert!(
        text.contains("KSA005"),
        "diagnostic missing from log: {text}"
    );
}

#[test]
fn subscriber_sink_counts_lines_and_disabled_makes_no_calls() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    #[derive(Default)]
    struct Counting(AtomicUsize);
    impl ks_trace::Subscriber for Counting {
        fn line(&self, _: &str) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }
    let sink = Arc::new(Counting::default());
    let mut p = pipeline();
    p.set_subscriber(sink.clone());
    let f = p.int_param("FACTOR", 2);
    let _m = p.module(SCALE_SRC, vec![("FACTOR", MacroBinding::Param(f))]);
    p.refresh().unwrap();
    p.run(2).unwrap();
    let calls = sink.0.load(Ordering::SeqCst);
    assert!(
        calls >= 4,
        "expected refresh + iteration lines, got {calls}"
    );

    // A freshly-constructed pipeline's logger is disabled: running it
    // must not touch any sink (and `line_with` closures never run —
    // see log::tests::disabled_logger_never_runs_format_closures).
    let mut q = pipeline();
    assert!(!q.log.enabled());
    let f = q.int_param("FACTOR", 3);
    let _m = q.module(SCALE_SRC, vec![("FACTOR", MacroBinding::Param(f))]);
    q.refresh().unwrap();
    q.run(2).unwrap();
    assert_eq!(
        sink.0.load(Ordering::SeqCst),
        calls,
        "disabled pipeline must make zero sink calls"
    );
}

#[test]
fn pipeline_publishes_iteration_and_refresh_counters() {
    let reg = ks_trace::registry();
    let before_it = reg.counter_value(ks_trace::names::PF_ITERATIONS);
    let before_rf = reg.counter_value(ks_trace::names::PF_REFRESHES);
    let mut p = pipeline();
    let every = p.schedule_param("e", 1, 0);
    p.user_fn("noop", |_, _| Ok(()), every);
    p.refresh().unwrap();
    p.run(3).unwrap();
    assert!(reg.counter_value(ks_trace::names::PF_ITERATIONS) >= before_it + 3);
    assert!(reg.counter_value(ks_trace::names::PF_REFRESHES) > before_rf);
}

#[test]
fn refresh_logs_compile_metrics_and_cache_stats() {
    let buf = Arc::new(parking_lot::Mutex::new(Vec::<u8>::new()));
    struct W(Arc<parking_lot::Mutex<Vec<u8>>>);
    impl std::io::Write for W {
        fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
            self.0.lock().extend_from_slice(b);
            Ok(b.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
    let mut p = pipeline();
    p.set_logger(Box::new(W(buf.clone())));
    let f = p.int_param("FACTOR", 2);
    let _m = p.module(SCALE_SRC, vec![("FACTOR", MacroBinding::Param(f))]);
    p.refresh().unwrap();
    let text = String::from_utf8(buf.lock().clone()).unwrap();
    // Per-phase compile metrics ride on the module compile line...
    assert!(text.contains("preproc"), "phase metrics missing: {text}");
    // ...and the refresh trailer summarizes the specialization cache.
    assert!(
        text.contains("refresh complete: cache"),
        "cache stats trailer missing: {text}"
    );
    assert!(text.contains("misses"), "{text}");

    // A second refresh with the same binding is a cache hit, visible
    // in the trailer's hit counter.
    p.set_int(f, 2);
    p.refresh().unwrap();
    let stats = p.compiler().cache_stats();
    assert!(stats.hits >= 1, "expected a re-refresh hit: {stats}");
}

#[test]
fn refresh_trailer_names_the_store_and_warm_restart_skips_compiles() {
    let mut dir = std::env::temp_dir();
    dir.push(format!("gpu-pf-store-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let buf = Arc::new(parking_lot::Mutex::new(Vec::<u8>::new()));
    struct W(Arc<parking_lot::Mutex<Vec<u8>>>);
    impl std::io::Write for W {
        fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
            self.0.lock().extend_from_slice(b);
            Ok(b.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
    let run = |buf: &Arc<parking_lot::Mutex<Vec<u8>>>| {
        let c = Arc::new(
            Compiler::new(DeviceConfig::tesla_c1060())
                .with_store(&dir)
                .unwrap(),
        );
        let mut p = Pipeline::new(c, 32 << 20);
        p.set_logger(Box::new(W(buf.clone())));
        let f = p.int_param("FACTOR", 2);
        let _m = p.module(SCALE_SRC, vec![("FACTOR", MacroBinding::Param(f))]);
        p.refresh().unwrap();
        p.compiler().cache_stats()
    };

    // Cold process: compiles and publishes the record.
    let cold = run(&buf);
    assert_eq!((cold.misses, cold.disk_hits), (1, 0), "{cold}");
    let text = String::from_utf8(buf.lock().clone()).unwrap();
    assert!(
        text.contains(&format!("store {}", dir.display())),
        "store trailer missing: {text}"
    );
    assert!(text.contains("disk-hits"), "{text}");

    // Warm restart: a fresh pipeline + compiler on the same store
    // directory binds the module without compiling.
    let warm = run(&buf);
    assert_eq!((warm.misses, warm.disk_hits), (0, 1), "{warm}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Builds the standard scale pipeline around a caller-supplied
/// compiler (so fault plans and resilience policies apply).
pub(crate) fn scale_pipeline(compiler: Arc<Compiler>) -> (Pipeline, ParamId, ResId, ResId) {
    scale_pipeline_with_arg(compiler, None)
}

/// [`scale_pipeline`], optionally with the kernel's runtime `factor`
/// argument a parameter of its own instead of the one the FACTOR
/// macro is bound to (so the two can disagree).
fn scale_pipeline_with_arg(
    compiler: Arc<Compiler>,
    arg_factor: Option<i64>,
) -> (Pipeline, ParamId, ResId, ResId) {
    let mut p = Pipeline::new(compiler, 32 << 20);
    let n = 64u32;
    let factor = p.int_param("FACTOR", 3);
    let arg_factor = arg_factor.map_or(factor, |v| p.int_param("factor", v));
    let ext = p.extent_param("buf", [n, 1, 1], 4);
    let host_in = p.host_memory(ext);
    let host_out = p.host_memory(ext);
    let dev_in = p.global_memory(ext);
    let dev_out = p.global_memory(ext);
    let m = p.module(SCALE_SRC, vec![("FACTOR", MacroBinding::Param(factor))]);
    let k = p.kernel(m, "scale");
    let grid = p.triplet_param("grid", [1, 1, 1]);
    let blk = p.triplet_param("block", [64, 1, 1]);
    let every = p.schedule_param("every", 1, 0);
    let nparam = p.int_param("n", n as i64);
    p.copy("h2d", host_in, dev_in, every);
    p.exec(
        "scale",
        k,
        grid,
        blk,
        None,
        vec![
            Arg::Mem(dev_in),
            Arg::Mem(dev_out),
            Arg::Param(arg_factor),
            Arg::Param(nparam),
        ],
        every,
    );
    p.copy("d2h", dev_out, host_out, every);
    (p, factor, host_in, host_out)
}

#[test]
fn specialized_compile_failure_degrades_to_generic_kernel() {
    // Every specialized (-D FACTOR=...) compile of this module fails
    // persistently; the define-free generic compile is untouched.
    let plan = Arc::new(
        ks_fault::FaultPlan::new(11).rule(
            ks_fault::FaultRule::new(
                ks_fault::FaultKind::CompileError,
                ks_fault::Target::Define("FACTOR".into()),
            )
            .persistent(),
        ),
    );
    let c = Arc::new(Compiler::new(DeviceConfig::tesla_c1060()).with_fault_plan(plan));
    let (mut p, factor, host_in, host_out) = scale_pipeline(c);
    p.refresh().unwrap();
    let vals: Vec<f32> = (0..64).map(|i| i as f32).collect();
    p.set_host_f32(host_in, &vals);
    p.run(1).unwrap();
    // The generic kernel reads the runtime argument, so results are
    // still correct — degraded, not wrong.
    let out = p.host_f32(host_out);
    assert_eq!(out[10], 30.0);
    assert_eq!(p.degradations().len(), 1);
    assert_eq!(p.degradations()[0].fallback, FallbackKind::Generic);
    assert!(p.degradations()[0].error.contains("injected fault"));

    // A degraded module re-attempts its specialization on the next
    // refresh even though no parameter changed; the persistent fault
    // degrades it again (recorded as a second degradation).
    p.set_int(factor, 5);
    p.refresh().unwrap();
    p.run(1).unwrap();
    assert_eq!(p.host_f32(host_out)[10], 50.0);
    assert_eq!(p.degradations().len(), 2);
}

#[test]
fn last_known_good_binary_retained_when_generic_also_fails() {
    // Both rules fire on their second matching occurrence for the
    // `scale` identity. Call sequence: refresh#1 specialized (occ 1
    // for both rules, clean), refresh#2 specialized (rule 1 occ 2 →
    // fail; rule 2 not consulted), refresh#2 generic fallback
    // (rule 1 occ 3, rule 2 occ 2 → fail) → last-known-good.
    let rule = || {
        ks_fault::FaultRule::new(
            ks_fault::FaultKind::CompileError,
            ks_fault::Target::Kernel("scale".into()),
        )
        .persistent()
        .nth(2)
    };
    let plan = Arc::new(ks_fault::FaultPlan::new(5).rule(rule()).rule(rule()));
    let c = Arc::new(Compiler::new(DeviceConfig::tesla_c1060()).with_fault_plan(plan));
    let (mut p, factor, host_in, host_out) = scale_pipeline(c);
    p.refresh().unwrap();
    let vals: Vec<f32> = (0..64).map(|i| i as f32).collect();
    p.set_host_f32(host_in, &vals);
    p.run(1).unwrap();
    assert_eq!(p.host_f32(host_out)[10], 30.0);
    assert!(p.degradations().is_empty());

    // Re-specialize: both compiles fail, the stale FACTOR=3 binary
    // keeps the pipeline running (visibly stale results).
    p.set_int(factor, 5);
    p.refresh().unwrap();
    p.run(1).unwrap();
    assert_eq!(
        p.host_f32(host_out)[10],
        30.0,
        "last-known-good keeps the old specialization"
    );
    assert_eq!(p.degradations().len(), 1);
    assert_eq!(p.degradations()[0].fallback, FallbackKind::LastKnownGood);
}

/// Serializes every test that installs the process-wide fault plan
/// (`ks_fault::install`/`clear`): concurrent installs would clobber
/// each other mid-launch.
static GLOBAL_PLAN: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[test]
fn transient_launch_faults_retry_then_exhaust() {
    // The device-fault path is consulted in ks-sim via the
    // process-wide plan, so this test owns the global slot for its
    // duration; rules are pinned to kernel names no other test uses.
    let _guard = GLOBAL_PLAN.lock().unwrap_or_else(|e| e.into_inner());
    const RETRY_SRC: &str = r#"
        __global__ void retryk(float* in, float* out, int factor, int n) {
            int i = blockIdx.x * blockDim.x + threadIdx.x;
            if (i < n) { out[i] = in[i] * (float)factor; }
        }
    "#;
    let plan = Arc::new(
        ks_fault::FaultPlan::new(2)
            .rule(
                // One transient launch timeout on the first launch.
                ks_fault::FaultRule::new(
                    ks_fault::FaultKind::LaunchTimeout,
                    ks_fault::Target::Kernel("retryk".into()),
                )
                .nth(1),
            )
            .rule(
                // Every launch of the doomed kernel times out.
                ks_fault::FaultRule::new(
                    ks_fault::FaultKind::LaunchTimeout,
                    ks_fault::Target::Kernel("doomedk".into()),
                )
                .persistent(),
            ),
    );
    ks_fault::install(plan);

    let build = |src: &str, kernel: &str| {
        let mut p = pipeline();
        let ext = p.extent_param("buf", [64, 1, 1], 4);
        let dev_in = p.global_memory(ext);
        let dev_out = p.global_memory(ext);
        let m = p.module(src, vec![]);
        let k = p.kernel(m, kernel);
        let grid = p.triplet_param("grid", [1, 1, 1]);
        let blk = p.triplet_param("block", [64, 1, 1]);
        let every = p.schedule_param("every", 1, 0);
        let f = p.int_param("factor", 2);
        let n = p.int_param("n", 64);
        p.exec(
            kernel,
            k,
            grid,
            blk,
            None,
            vec![
                Arg::Mem(dev_in),
                Arg::Mem(dev_out),
                Arg::Param(f),
                Arg::Param(n),
            ],
            every,
        );
        p
    };

    // Transient fault: absorbed by the launch retry, run succeeds.
    let mut p = build(RETRY_SRC, "retryk");
    p.refresh().unwrap();
    p.run(1).unwrap();

    // Persistent fault: retries exhaust, the typed SimError surfaces
    // (still an Err, never a panic) and it reads as transient so the
    // caller knows retrying was legitimate.
    let mut p = build(&RETRY_SRC.replace("retryk", "doomedk"), "doomedk");
    p.refresh().unwrap();
    let err = p.run(1).unwrap_err();
    ks_fault::clear();
    match err {
        PfError::Sim(e) => {
            assert!(e.to_string().contains("injected fault: launch-timeout"));
        }
        other => panic!("expected PfError::Sim, got {other:?}"),
    }
}

#[test]
fn degradations_name_the_failed_variant_key() {
    // Same forced compile failure as above, via the per-compiler
    // plan; what's under test is that the degradation record names
    // the exact failed variant: canonical cache key + `-D` line.
    let plan = Arc::new(
        ks_fault::FaultPlan::new(11).rule(
            ks_fault::FaultRule::new(
                ks_fault::FaultKind::CompileError,
                ks_fault::Target::Define("FACTOR".into()),
            )
            .persistent(),
        ),
    );
    let c = Arc::new(Compiler::new(DeviceConfig::tesla_c1060()).with_fault_plan(plan));
    let (mut p, _factor, _hi, _ho) = scale_pipeline(c.clone());
    p.refresh().unwrap();
    assert_eq!(p.degradations().len(), 1);
    let d = &p.degradations()[0];
    let expected = c.cache_key(SCALE_SRC, &Defines::new().def("FACTOR", "3"));
    assert_eq!(d.key, expected);
    assert_eq!(d.defines, "-D FACTOR=3");
    // The served binary's stamped identity is the *generic* variant
    // — what is actually bound, not what was requested.
    let bound = p.module_bound_key(ResId(4)).unwrap();
    assert_eq!(bound.fingerprint, c.cache_key(SCALE_SRC, &Defines::new()));
    assert_eq!(&*bound.defines, "");
}

#[test]
fn integrity_witness_catches_transient_flip_and_recovers() {
    let _guard = GLOBAL_PLAN.lock().unwrap_or_else(|e| e.into_inner());
    let c = Arc::new(Compiler::new(DeviceConfig::tesla_c1060()));
    let (mut p, factor, host_in, host_out) = scale_pipeline(c);
    // A factor no other test uses keeps this variant's cache key —
    // and therefore the keyed flip rule — unique to this test.
    p.set_int(factor, 13);
    p.set_integrity(Some(IntegrityConfig {
        witness_period: 1,
        vote_m: 3,
        vote_n: 2,
    }));
    p.refresh().unwrap();
    let key = p.module_bound_key(ResId(4)).unwrap().clone();
    assert!(key.defines.contains("-D FACTOR=13"));
    // One silent bit flip on the first launch of exactly this
    // specialized variant; witness/vote/recovery launches (and every
    // other test's launches) carry other keys or occurrences.
    let plan = Arc::new(
        ks_fault::FaultPlan::new(99).rule(
            ks_fault::FaultRule::new(
                ks_fault::FaultKind::SilentFlip,
                ks_fault::Target::Key(key.fingerprint.lo64()),
            )
            .nth(1),
        ),
    );
    ks_fault::install(plan.clone());
    let vals: Vec<f32> = (0..64).map(|i| i as f32 + 1.0).collect();
    p.set_host_f32(host_in, &vals);
    let r = p.run(2);
    ks_fault::clear();
    r.unwrap();
    assert_eq!(plan.injected_count(), 1);
    // The flip was detected, adjudicated as transient, and the
    // iteration re-executed: downstream saw only verified bytes.
    let out = p.host_f32(host_out);
    for i in 0..64 {
        assert_eq!(out[i], vals[i] * 13.0);
    }
    let s = p.integrity_stats();
    assert_eq!(s.checks, 2);
    assert_eq!(s.witness_launches, 2);
    assert_eq!(s.violations, 1);
    assert_eq!(s.transient_flips, 1);
    assert_eq!(s.corrupt_binaries, 0);
    assert_eq!(s.recovered, 1);
    assert_eq!(s.reexecutions, 4); // 3 votes + 1 recovery
    let v = &p.integrity_violations()[0];
    assert_eq!(v.kind, ViolationKind::WitnessMismatch);
    assert_eq!(v.verdict, Verdict::TransientFlip);
    assert!(v.recovered);
    assert_eq!(v.key, key.fingerprint);
    assert_eq!((v.votes_agree, v.votes_total), (3, 3));
    // An exonerated variant keeps serving; nothing degraded.
    assert_eq!(p.module_tier(ResId(4)), Some(Tier::Specialized));
    assert!(p.degradations().is_empty());
}

#[test]
fn corrupt_specialized_binary_is_quarantined_by_witness_voting() {
    // A macro binding that *lies*: the specialized binary bakes in
    // FACTOR=7 while the runtime argument says 5, so the variant
    // persistently computes wrong bytes — the binary-corruption case
    // (vs a one-shot flip), no fault plan needed.
    let c = Arc::new(Compiler::new(DeviceConfig::tesla_c1060()));
    let mut p = Pipeline::new(c.clone(), 32 << 20);
    let ext = p.extent_param("buf", [64, 1, 1], 4);
    let host_in = p.host_memory(ext);
    let host_out = p.host_memory(ext);
    let dev_in = p.global_memory(ext);
    let dev_out = p.global_memory(ext);
    let m = p.module(
        SCALE_SRC,
        vec![("FACTOR", MacroBinding::Literal("7".into()))],
    );
    let k = p.kernel(m, "scale");
    let grid = p.triplet_param("grid", [1, 1, 1]);
    let blk = p.triplet_param("block", [64, 1, 1]);
    let every = p.schedule_param("every", 1, 0);
    let factor = p.int_param("factor", 5);
    let n = p.int_param("n", 64);
    p.copy("h2d", host_in, dev_in, every);
    p.exec(
        "scale",
        k,
        grid,
        blk,
        None,
        vec![
            Arg::Mem(dev_in),
            Arg::Mem(dev_out),
            Arg::Param(factor),
            Arg::Param(n),
        ],
        every,
    );
    p.copy("d2h", dev_out, host_out, every);
    p.set_integrity(Some(IntegrityConfig {
        witness_period: 1,
        vote_m: 2,
        vote_n: 1,
    }));
    p.refresh().unwrap();
    let suspect = p.module_bound_key(m).unwrap().clone();
    let vals: Vec<f32> = (0..64).map(|i| i as f32).collect();
    p.set_host_f32(host_in, &vals);
    p.run(2).unwrap();
    // The generic witness (×5, the runtime argument) convicted the
    // ×7 variant: every vote reproduced the divergence.
    let out = p.host_f32(host_out);
    for i in 0..64 {
        assert_eq!(out[i], vals[i] * 5.0);
    }
    assert_eq!(p.integrity_violations().len(), 1);
    let v = &p.integrity_violations()[0];
    assert_eq!(v.verdict, Verdict::CorruptBinary);
    assert!(v.recovered);
    assert_eq!(v.key, suspect.fingerprint);
    assert_eq!(v.defines, "-D FACTOR=7");
    assert_eq!((v.votes_agree, v.votes_total), (0, 2));
    // Quarantined through the ladder: generic serves, the tier says a
    // recorded fallback is in service (next refresh retries), record
    // names the convicted variant.
    assert_eq!(p.module_tier(m), Some(Tier::Failed));
    assert_eq!(p.degradations().len(), 1);
    let d = &p.degradations()[0];
    assert_eq!(d.fallback, FallbackKind::Generic);
    assert!(d.error.contains("integrity violation"));
    assert_eq!(d.key, suspect.fingerprint);
    assert_eq!(d.defines, "-D FACTOR=7");
    assert_eq!(&*p.module_bound_key(m).unwrap().defines, "");
    let s = p.integrity_stats();
    assert_eq!(s.corrupt_binaries, 1);
    assert_eq!(s.transient_flips, 0);
    // Iteration 2 served the generic: witness agreed, no new
    // violation.
    assert_eq!(s.violations, 1);
    assert_eq!(s.recovered, 1);
}

#[test]
fn golden_checksum_pin_triggers_witness_and_stale_pin_is_benign() {
    let c = Arc::new(Compiler::new(DeviceConfig::tesla_c1060()));
    let (mut p, _factor, host_in, _host_out) = scale_pipeline(c);
    // No periodic witnessing: only a pinned-checksum mismatch may
    // trigger one.
    p.set_integrity(Some(IntegrityConfig {
        witness_period: 0,
        vote_m: 3,
        vote_n: 2,
    }));
    p.refresh().unwrap();
    let vals: Vec<f32> = (0..64).map(|i| i as f32).collect();
    p.set_host_f32(host_in, &vals);
    p.run(1).unwrap();
    assert_eq!(p.integrity_stats().checks, 1);
    assert_eq!(p.integrity_stats().witness_launches, 0);
    // Pin the observed checksum: stationary inputs keep matching it,
    // so the cheap checksum compare suffices and no witness runs.
    let cs = p.last_checksum("scale").unwrap();
    assert_eq!(cs.to_string().len(), 32);
    p.expect_checksum("scale", cs);
    p.run(2).unwrap();
    assert_eq!(p.integrity_stats().witness_launches, 0);
    assert!(p.integrity_violations().is_empty());
    // A wrong pin triggers the witness — which agrees with the
    // output, so the pin is reported stale rather than convicting
    // the binary.
    p.expect_checksum("scale", Fingerprint::from_u128(0));
    p.run(1).unwrap();
    assert_eq!(p.integrity_stats().witness_launches, 1);
    assert!(p.integrity_violations().is_empty());
}

#[test]
fn accessor_errors_are_typed_with_stable_messages() {
    let mut p = pipeline();
    let trip = p.triplet_param("t", [1, 1, 1]);
    let ext = p.extent_param("e", [8, 1, 1], 4);
    let dev = p.global_memory(ext);
    let m = p.module(SCALE_SRC, vec![]);
    let k = p.kernel(m, "scale");

    // Binding errors render the bare message the old panics carried.
    let e = p.try_int_value(trip).unwrap_err();
    assert!(matches!(&e, PfError::Bind(_)), "{e:?}");
    assert!(e.to_string().contains("not an integer"), "{e}");

    let e = p.try_host_data(dev).unwrap_err();
    assert!(matches!(&e, PfError::Bind(_)));
    assert_eq!(e.to_string(), "resource is not host memory");

    let e = p.try_device_addr(dev).unwrap_err();
    assert!(matches!(&e, PfError::Bind(_)));
    assert_eq!(e.to_string(), "refresh() first");

    // Kernel-resolution errors are launch-typed.
    let e = p.try_kernel_binary(dev).unwrap_err();
    assert!(matches!(&e, PfError::Launch(_)));
    assert_eq!(e.to_string(), "not a kernel resource");
    let e = p.try_kernel_binary(k).unwrap_err();
    assert!(matches!(&e, PfError::Launch(_)));
    assert_eq!(e.to_string(), "module not compiled; refresh() first");
}

// ---- tiered execution ----

#[test]
fn tiered_refresh_serves_generic_immediately_then_promotes() {
    let c = Arc::new(Compiler::new(DeviceConfig::tesla_c1060()));
    let (mut p, _factor, host_in, host_out) = scale_pipeline(c.clone());
    p.set_refresh_mode(RefreshMode::Tiered);
    let m = ResId(4); // the module created by scale_pipeline
    assert_eq!(p.module_tier(m), Some(Tier::Generic));

    p.refresh().unwrap();
    // Refresh returned without waiting for the specialization: the
    // module serves the generic binary (verifiably: same Arc as a
    // direct generic compile) while its ticket is in flight.
    assert_eq!(p.module_tier(m), Some(Tier::Promoting));
    let generic = c.compile(SCALE_SRC, Defines::new()).unwrap();
    let kernel = ResId(5);
    assert!(
        Arc::ptr_eq(p.kernel_binary(kernel), &generic),
        "first launch must be served by the generic binary"
    );

    // The generic kernel reads FACTOR from its runtime argument, so
    // the first run is already correct.
    let vals: Vec<f32> = (0..64).map(|i| i as f32).collect();
    p.set_host_f32(host_in, &vals);
    p.run(1).unwrap();
    assert_eq!(p.host_f32(host_out)[10], 30.0);

    // Promotion: hot-swap to the exact specialized binary. (run()
    // polls at the end of each iteration, so the swap may already
    // have landed there; wait_promotions() covers the slow case.)
    p.wait_promotions();
    assert_eq!(p.module_tier(m), Some(Tier::Specialized));
    let specialized = c
        .compile(SCALE_SRC, Defines::new().def("FACTOR", 3))
        .unwrap();
    assert!(Arc::ptr_eq(p.kernel_binary(kernel), &specialized));
    p.run(1).unwrap();
    assert_eq!(p.host_f32(host_out)[10], 30.0);
    let stats = p.promotion_stats();
    assert_eq!((stats.promoted, stats.failed, stats.pending), (1, 0, 0));
    assert!(p.degradations().is_empty());
}

/// Regression: a ticket that resolves between the caller's last
/// look at `module_tier()` and `run()` must not swap its binary in
/// under launch arguments chosen for the old one. Here the runtime
/// `factor` argument (5) disagrees with the FACTOR macro (3) on
/// purpose, as a caller's arguments do while it still sees the
/// generic tier: the generic binary multiplies by the argument, the
/// specialized one by the macro, so the output says which one ran.
#[test]
fn a_promotion_resolved_before_run_lands_after_the_iteration() {
    let c = Arc::new(Compiler::new(DeviceConfig::tesla_c1060()));
    let (mut p, _factor, host_in, host_out) = scale_pipeline_with_arg(c, Some(5));
    let m = ResId(4); // the module created by scale_pipeline
    p.set_refresh_mode(RefreshMode::Tiered);
    p.refresh().unwrap();
    assert_eq!(p.module_tier(m), Some(Tier::Promoting));
    let generic_key = p.module_bound_key(m).cloned();

    // Let the ticket resolve without applying it: the caller's view
    // is still "generic tier" when it calls run().
    let ticket = p.module_at(m.0).and_then(Module::ticket);
    let ticket = ticket.expect("a tiered refresh leaves a pending promotion");
    ticket.wait().unwrap();
    assert_eq!(p.module_tier(m), Some(Tier::Promoting));

    let vals: Vec<f32> = (0..64).map(|i| i as f32).collect();
    p.set_host_f32(host_in, &vals);
    p.run(1).unwrap();
    assert_eq!(
        p.host_f32(host_out)[10],
        50.0,
        "the iteration launched a binary promoted inside run()"
    );

    // The promotion landed once the iteration's actions were done.
    assert_eq!(p.module_tier(m), Some(Tier::Specialized));
    assert_ne!(p.module_bound_key(m).cloned(), generic_key);
    assert_eq!(p.promotion_stats().promoted, 1);
    p.run(1).unwrap();
    assert_eq!(p.host_f32(host_out)[10], 30.0);
    // The generic kernel loads and converts what the specialized
    // one has as a constant.
    assert!(p.reports[0].static_insts > p.reports[1].static_insts);
}

/// Regression: re-dirtying a module while its promotion is in
/// flight must supersede the stale ticket, not swap in a binary
/// specialized for outdated parameter values. A stale FACTOR=3
/// binary would hard-code 3 and ignore the runtime argument — the
/// output check catches exactly that.
#[test]
fn superseding_a_promotion_never_swaps_in_a_stale_binary() {
    let c = Arc::new(Compiler::new(DeviceConfig::tesla_c1060()));
    let (mut p, factor, host_in, host_out) = scale_pipeline(c);
    p.set_refresh_mode(RefreshMode::Tiered);
    p.refresh().unwrap();
    // Re-dirty before the FACTOR=3 ticket is applied.
    p.set_int(factor, 5);
    p.refresh().unwrap();
    assert_eq!(p.promotion_stats().superseded, 1);
    assert_eq!(p.wait_promotions(), 1);
    assert_eq!(p.module_tier(ResId(4)), Some(Tier::Specialized));

    let vals: Vec<f32> = (0..64).map(|i| i as f32).collect();
    p.set_host_f32(host_in, &vals);
    p.run(1).unwrap();
    assert_eq!(
        p.host_f32(host_out)[10],
        50.0,
        "a stale FACTOR=3 specialization must never be promoted"
    );
    let stats = p.promotion_stats();
    assert_eq!((stats.promoted, stats.superseded), (1, 1));
}

/// Regression (ROADMAP item 4): under `Tiered`, a module re-dirtied after
/// it settled must not keep serving the specialization compiled for the
/// previous macro values. One parameter drives both the FACTOR macro and
/// the runtime argument, as a caller's problem parameter does, so a stale
/// FACTOR=3 binary shows as 30.0 where 50.0 is due.
#[test]
fn a_redirtied_module_serves_a_valid_binary_until_its_promotion_lands() {
    let c = Arc::new(Compiler::new(DeviceConfig::tesla_c1060()));
    let (mut p, factor, host_in, host_out) = scale_pipeline(c.clone());
    let (m, kernel) = (ResId(4), ResId(5));
    let variant = |f: i64| c.compile(SCALE_SRC, Defines::new().def("FACTOR", f));
    p.set_refresh_mode(RefreshMode::Tiered);
    p.refresh().unwrap();
    p.wait_promotions();
    assert_eq!(p.module_tier(m), Some(Tier::Specialized));
    let vals: Vec<f32> = (0..64).map(|i| i as f32).collect();
    p.set_host_f32(host_in, &vals);

    // A value the cache has not seen: the held FACTOR=3 binary is not
    // valid for FACTOR=5, so the generic serves until the ticket lands.
    p.set_int(factor, 5);
    p.refresh().unwrap();
    assert_eq!(p.module_tier(m), Some(Tier::Promoting));
    let generic = c.compile(SCALE_SRC, Defines::new()).unwrap();
    assert!(Arc::ptr_eq(p.kernel_binary(kernel), &generic));
    p.run(1).unwrap();
    assert_eq!(p.host_f32(host_out)[10], 50.0, "served a stale binary");
    p.wait_promotions();
    assert_eq!(p.module_tier(m), Some(Tier::Specialized));
    assert!(Arc::ptr_eq(p.kernel_binary(kernel), &variant(5).unwrap()));

    // Back to a cached value: the exact binary is bound before
    // refresh() returns — no ticket left pending, no generic launch.
    p.set_int(factor, 3);
    p.refresh().unwrap();
    assert_eq!(p.module_tier(m), Some(Tier::Specialized));
    assert_eq!(p.promotion_stats().pending, 0);
    assert!(Arc::ptr_eq(p.kernel_binary(kernel), &variant(3).unwrap()));
    p.run(1).unwrap();
    assert_eq!(p.host_f32(host_out)[10], 30.0);
    assert!(p.reports.last().unwrap().static_insts < generic.static_insts("scale"));
    assert_eq!(
        p.promotion_stats().promoted,
        2,
        "refresh-time binds are not promotions"
    );
}

/// Tiered promotion failures route through the same degradation
/// machinery as blocking refreshes, and a seeded fault plan makes
/// two identical runs degrade byte-identically.
#[test]
fn promotion_failure_degrades_deterministically() {
    let run_once = || {
        let plan = Arc::new(
            ks_fault::FaultPlan::new(23).rule(
                ks_fault::FaultRule::new(
                    ks_fault::FaultKind::CompileError,
                    ks_fault::Target::Define("FACTOR".into()),
                )
                .persistent(),
            ),
        );
        let c = Arc::new(Compiler::new(DeviceConfig::tesla_c1060()).with_fault_plan(plan.clone()));
        let (mut p, _factor, host_in, host_out) = scale_pipeline(c);
        p.set_refresh_mode(RefreshMode::Tiered);
        p.refresh().unwrap();
        assert_eq!(p.wait_promotions(), 0, "failed promotion must not swap");
        assert_eq!(p.module_tier(ResId(4)), Some(Tier::Failed));
        assert_eq!(p.promotion_stats().failed, 1);
        assert_eq!(p.degradations().len(), 1);
        assert_eq!(p.degradations()[0].fallback, FallbackKind::Generic);
        assert!(p.degradations()[0].error.contains("injected fault"));
        // Still serving correct results from the generic tier.
        let vals: Vec<f32> = (0..64).map(|i| i as f32).collect();
        p.set_host_f32(host_in, &vals);
        p.run(1).unwrap();
        assert_eq!(p.host_f32(host_out)[10], 30.0);
        // A later refresh retries the specialization (still doomed
        // by the persistent rule — a second identical degradation).
        p.refresh().unwrap();
        assert_eq!(p.module_tier(ResId(4)), Some(Tier::Promoting));
        p.wait_promotions();
        assert_eq!(p.degradations().len(), 2);
        plan.event_log()
    };
    let first = run_once();
    let second = run_once();
    assert!(!first.is_empty());
    assert_eq!(
        first, second,
        "same seed must degrade byte-identically across runs"
    );
}

/// A launch racing a hot-swap must always execute a fully-built
/// binary: launches pin an `Arc<Binary>` before executing, and the
/// swap only changes which binary the *next* pin observes.
#[test]
fn launch_racing_a_hot_swap_sees_a_fully_built_binary() {
    let c = Arc::new(Compiler::new(DeviceConfig::tesla_c1060()));
    let generic = c.compile(SCALE_SRC, Defines::new()).unwrap();
    let ticket = c.spawn_compile(SCALE_SRC, Defines::new().def("FACTOR", 7));
    // The shared slot stands in for a module's binary field; the
    // launcher threads play the part of pipeline iterations.
    let slot = Arc::new(parking_lot::Mutex::new(generic.clone()));
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let launchers: Vec<_> = (0..3)
        .map(|t| {
            let (slot, stop, c) = (slot.clone(), stop.clone(), c.clone());
            std::thread::spawn(move || {
                let mut state = DeviceState::new(c.device().clone(), 1 << 20);
                let a_in = state.global.alloc(64 * 4).unwrap();
                let a_out = state.global.alloc(64 * 4).unwrap();
                let dims = LaunchDims {
                    grid: (1, 1, 1),
                    block: (64, 1, 1),
                    dynamic_shared: 0,
                };
                let args = [
                    KArg::Ptr(a_in),
                    KArg::Ptr(a_out),
                    KArg::I32(2),
                    KArg::I32(64),
                ];
                let mut launches = 0u64;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) || launches == 0 {
                    // Pin, then launch: the swap may happen between
                    // these two lines and must not matter.
                    let bin = slot.lock().clone();
                    assert!(
                        !bin.module.functions.is_empty() && !bin.ptx.is_empty(),
                        "launcher {t} saw a partially built binary"
                    );
                    ks_sim::launch(
                        &mut state,
                        &bin.module,
                        "scale",
                        dims,
                        &args,
                        LaunchOptions::default(),
                    )
                    .unwrap();
                    launches += 1;
                }
                launches
            })
        })
        .collect();
    // Resolve the promotion and hot-swap mid-traffic.
    let specialized = ticket.wait().unwrap();
    *slot.lock() = specialized.clone();
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let total: u64 = launchers.into_iter().map(|h| h.join().unwrap()).sum();
    assert!(total >= 3, "every launcher must have launched");
    // Post-swap pins observe exactly the specialized binary.
    assert!(Arc::ptr_eq(&*slot.lock(), &specialized));
}

#[test]
fn blocking_refresh_reports_specialized_tier() {
    let c = Arc::new(Compiler::new(DeviceConfig::tesla_c1060()));
    let (mut p, _f, _hi, _ho) = scale_pipeline(c);
    assert_eq!(p.refresh_mode(), RefreshMode::Blocking);
    p.refresh().unwrap();
    assert_eq!(p.module_tier(ResId(4)), Some(Tier::Specialized));
    assert_eq!(p.promotion_stats(), PromotionStats::default());
    // Non-module resources have no tier.
    assert_eq!(p.module_tier(ResId(0)), None);
}

/// Labeled pipelines publish through a `{pipeline=...}` scope:
/// the scoped cells carry this pipeline's events, and time-in-tier
/// dwell histograms record every transition (generic → promoting →
/// specialized) with the promotion latency alongside.
#[test]
fn labeled_pipeline_scopes_metrics_and_records_dwell() {
    let reg = ks_trace::registry();
    let c = Arc::new(Compiler::new(DeviceConfig::tesla_c1060()));
    let (mut p, _factor, host_in, host_out) = scale_pipeline(c);
    p.set_label("dwell-test");
    p.set_refresh_mode(RefreshMode::Tiered);
    assert_eq!(p.label(), Some("dwell-test"));
    assert_eq!(
        p.metric_name(ks_trace::names::PF_ITERATIONS),
        "gpu_pf.iterations{pipeline=dwell-test}"
    );

    let iters_before = reg.counter_value(&p.metric_name(ks_trace::names::PF_ITERATIONS));
    let lat_before = reg
        .histogram(&p.metric_name(ks_trace::names::PF_PROMOTION_LATENCY_US))
        .count();

    p.refresh().unwrap();
    // Generic dwell episode closed by the -> Promoting transition.
    assert_eq!(p.tier_dwell(Tier::Generic).count, 1);
    let vals: Vec<f32> = (0..64).map(|i| i as f32).collect();
    p.set_host_f32(host_in, &vals);
    p.run(1).unwrap();
    p.wait_promotions();
    assert_eq!(p.module_tier(ResId(4)), Some(Tier::Specialized));
    assert_eq!(p.host_f32(host_out)[10], 30.0);

    // Promoting dwell closed by the hot-swap; promotion latency
    // histogram recorded the same event under this pipeline's scope.
    assert_eq!(p.tier_dwell(Tier::Promoting).count, 1);
    let lat_after = reg
        .histogram(&p.metric_name(ks_trace::names::PF_PROMOTION_LATENCY_US))
        .count();
    assert_eq!(lat_after - lat_before, 1);
    let iters_after = reg.counter_value(&p.metric_name(ks_trace::names::PF_ITERATIONS));
    assert_eq!(iters_after - iters_before, 1);
    // Per-module dwell cells exist under the nested scope and roll
    // up into the pipeline-level cell (module 4 is the only one).
    let per_module = reg
        .histogram("gpu_pf.tier.dwell_us.promoting{module=4,pipeline=dwell-test}")
        .snapshot();
    assert_eq!(per_module.count, 1);
}
