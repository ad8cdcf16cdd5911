//! Cross-crate integration tests: the three applications end-to-end on
//! both simulated devices, checked against their CPU references, plus a
//! GPU-PF streaming pipeline with mid-stream re-specialization, and the
//! `ks-prof` CLI's exit status when its output cannot be written.

use gpu_pf::{Arg, MacroBinding, Pipeline};
use ks_apps::backproj::{self, BackprojImpl, BackprojProblem};
use ks_apps::piv::{self, PivImpl, PivKernel, PivProblem};
use ks_apps::template_match::{self, MatchImpl, MatchProblem};
use ks_apps::{synth, Variant};
use ks_core::Compiler;
use ks_sim::DeviceConfig;
use std::sync::Arc;

/// All three applications agree with their CPU oracles on both devices
/// under both compilation regimes.
#[test]
fn all_apps_all_devices_all_variants() {
    for dev in DeviceConfig::presets() {
        let compiler = Compiler::new(dev.clone());
        for variant in [Variant::Re, Variant::Sk] {
            // Template matching.
            let mp = MatchProblem {
                frame_w: 96,
                frame_h: 80,
                templ_w: 24,
                templ_h: 20,
                shift_w: 8,
                shift_h: 8,
                frames: 1,
            };
            let ms = synth::match_scenario(96, 80, 24, 20, 8, 8, 5);
            let mi = MatchImpl {
                tile_w: 8,
                tile_h: 8,
                threads: 64,
            };
            let out = template_match::run_gpu(&compiler, variant, &mp, &mi, &ms, true)
                .expect("template matching");
            let cpu = template_match::cpu_ncc(&mp, &ms.frame, &ms.template, 2);
            for (g, c) in out.ncc.iter().zip(&cpu) {
                assert!((g - c).abs() < 2e-3, "{} {variant}: {g} vs {c}", dev.name);
            }

            // PIV.
            let pp = PivProblem {
                img_w: 80,
                img_h: 80,
                mask_w: 16,
                mask_h: 16,
                step_x: 16,
                step_y: 16,
                offs_w: 7,
                offs_h: 7,
            };
            let ps = synth::piv_scenario(80, 80, (2, -1), 6);
            let pi = PivImpl { rb: 3, threads: 64 };
            let pout = piv::run_gpu(&compiler, variant, PivKernel::Basic, &pp, &pi, &ps, true)
                .expect("piv");
            let pcpu = piv::cpu_ssd(&pp, &ps, 2);
            for (g, c) in pout.scores.iter().zip(&pcpu) {
                assert!(
                    (g - c).abs() <= 1e-3 * c.abs().max(1.0),
                    "{} {variant}: {g} vs {c}",
                    dev.name
                );
            }

            // Backprojection.
            let bp = BackprojProblem {
                n: 12,
                num_proj: 4,
                det_u: 20,
                det_v: 20,
            };
            let bs = synth::ct_scenario(12, 4, 20, 20);
            let bi = BackprojImpl {
                block_x: 4,
                block_y: 4,
                ppl: 4,
                zb: 2,
            };
            let bout =
                backproj::run_gpu(&compiler, variant, &bp, &bi, &bs, true).expect("backprojection");
            let bcpu = backproj::cpu_backproject(&bp, &bs, 2);
            for (g, c) in bout.volume.iter().zip(&bcpu) {
                assert!(
                    (g - c).abs() <= 1e-3 * c.abs().max(1.0),
                    "{} {variant}: {g} vs {c}",
                    dev.name
                );
            }
        }
    }
}

/// Every kernel of the three applications, generic and specialized, has
/// branches and addresses that no loaded value reaches, so its launches
/// reuse their timing sample (`LaunchPlan::timing_is_data_independent`).
#[test]
fn every_shipped_kernel_times_independently_of_data() {
    let compiler = Compiler::new(DeviceConfig::tesla_c2070());
    let mp = MatchProblem {
        frame_w: 96,
        frame_h: 80,
        templ_w: 24,
        templ_h: 20,
        shift_w: 8,
        shift_h: 8,
        frames: 1,
    };
    let mi = MatchImpl {
        tile_w: 8,
        tile_h: 8,
        threads: 64,
    };
    let pp = PivProblem::standard(128, 16, 50, 4);
    let bp = BackprojProblem {
        n: 12,
        num_proj: 4,
        det_u: 20,
        det_v: 20,
    };
    let bi = BackprojImpl {
        block_x: 4,
        block_y: 4,
        ppl: 4,
        zb: 2,
    };
    let mut checked = 0;
    for variant in [Variant::Re, Variant::Sk] {
        let mut builds = vec![
            (
                piv::KERNELS,
                piv::specialization(variant, &pp, &PivImpl { rb: 2, threads: 64 }),
            ),
            (
                backproj::KERNELS,
                backproj::specialization(variant, &bp, &bi),
            ),
        ];
        for d in template_match::specializations(variant, &mp, &mi) {
            builds.push((template_match::KERNELS, d));
        }
        for (source, defines) in builds {
            let bin = compiler.compile(source, &defines).expect("compile");
            for f in &bin.module.functions {
                let plan = bin.plan(&f.name).expect("decoded").expect("plan");
                assert!(
                    plan.timing_is_data_independent(),
                    "{variant} {} [{}]",
                    f.name,
                    defines.command_line()
                );
                checked += 1;
            }
        }
    }
    assert!(checked >= 2 * (3 + 1 + 4), "{checked} kernels checked");
}

/// A GPU-PF pipeline whose specialization parameter changes mid-stream:
/// the refresh recompiles exactly once, results track the new value, and
/// returning to a previous value hits the binary cache.
#[test]
fn gpu_pf_respecialization_mid_stream() {
    const SRC: &str = r#"
        #ifndef POWER
        #define POWER power
        #endif
        __global__ void pow_k(float* in, float* out, int power, int n) {
            int i = (int)(blockIdx.x * blockDim.x + threadIdx.x);
            if (i < n) {
                float acc = 1.0f;
                for (int p = 0; p < POWER; p++) { acc *= in[i]; }
                out[i] = acc;
            }
        }
    "#;
    let compiler = Arc::new(Compiler::new(DeviceConfig::tesla_c2070()));
    let mut p = Pipeline::new(compiler.clone(), 16 << 20);
    let n = 128u32;
    let power = p.int_param("POWER", 2);
    let ext = p.extent_param("buf", [n, 1, 1], 4);
    let host_in = p.host_memory(ext);
    let host_out = p.host_memory(ext);
    let dev_in = p.global_memory(ext);
    let dev_out = p.global_memory(ext);
    let m = p.module(SRC, vec![("POWER", MacroBinding::Param(power))]);
    let k = p.kernel(m, "pow_k");
    let every = p.schedule_param("e", 1, 0);
    let grid = p.triplet_param("g", [1, 1, 1]);
    let blk = p.triplet_param("b", [n, 1, 1]);
    let nparam = p.int_param("n", n as i64);
    p.copy("h2d", host_in, dev_in, every);
    p.exec(
        "pow",
        k,
        grid,
        blk,
        None,
        vec![
            Arg::Mem(dev_in),
            Arg::Mem(dev_out),
            Arg::Param(power),
            Arg::Param(nparam),
        ],
        every,
    );
    p.copy("d2h", dev_out, host_out, every);

    let vals: Vec<f32> = (0..n).map(|i| 1.0 + (i % 5) as f32 * 0.1).collect();
    p.refresh().unwrap();
    p.set_host_f32(host_in, &vals);
    p.run(1).unwrap();
    let sq = p.host_f32(host_out);
    for (v, o) in vals.iter().zip(&sq) {
        assert!((v * v - o).abs() < 1e-5);
    }

    // Re-specialize to cubes.
    p.set_int(power, 3);
    p.refresh().unwrap();
    p.run(1).unwrap();
    let cu = p.host_f32(host_out);
    for (v, o) in vals.iter().zip(&cu) {
        assert!((v * v * v - o).abs() < 1e-4);
    }

    // Back to squares: cache hit, no new compile.
    let misses_before = compiler.cache_stats().misses;
    p.set_int(power, 2);
    p.refresh().unwrap();
    assert_eq!(compiler.cache_stats().misses, misses_before);
    p.run(1).unwrap();
    assert_eq!(p.host_f32(host_out), sq);
}

/// The performance claims hold across devices: for each app, SK ≤ RE in
/// simulated time, and the C2070 beats the C1060 at the same (SK) config.
#[test]
fn performance_shape_holds() {
    let mp = MatchProblem {
        frame_w: 128,
        frame_h: 96,
        templ_w: 32,
        templ_h: 24,
        shift_w: 16,
        shift_h: 16,
        frames: 1,
    };
    let ms = synth::match_scenario(128, 96, 32, 24, 16, 16, 11);
    let mi = MatchImpl {
        tile_w: 8,
        tile_h: 8,
        threads: 64,
    };
    let mut times = Vec::new();
    for dev in DeviceConfig::presets() {
        let compiler = Compiler::new(dev);
        let re = template_match::run_gpu(&compiler, Variant::Re, &mp, &mi, &ms, false).unwrap();
        let sk = template_match::run_gpu(&compiler, Variant::Sk, &mp, &mi, &ms, false).unwrap();
        assert!(
            sk.run.sim_ms < re.run.sim_ms,
            "{}: SK {} !< RE {}",
            compiler.device().name,
            sk.run.sim_ms,
            re.run.sim_ms
        );
        times.push(sk.run.sim_ms);
    }
    assert!(times[1] < times[0], "C2070 must outrun C1060");
}

/// `ks-prof --out` reports a failed write and exits non-zero instead of
/// claiming it wrote the file (`/dev/full` fails every write).
#[test]
fn ks_prof_out_reports_write_errors() {
    if !std::path::Path::new("/dev/full").exists() {
        return;
    }
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_ks-prof"))
        .args([
            "--kernel",
            "template_match",
            "--quick",
            "--out",
            "/dev/full",
        ])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "exit {:?}: {stderr}", out.status);
    assert!(stderr.contains("cannot write /dev/full"), "{stderr}");
}
