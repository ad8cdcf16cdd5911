//! Cone-beam backprojection (dissertation §5.3).
//!
//! Voxel-driven backprojection for circular cone-beam CT with a flat
//! detector (Figure 5.13 geometry): each thread covers a column of `ZB`
//! voxels (z register blocking), loops over the `PPL` projections of the
//! current launch batch — whose per-angle cos/sin pairs sit in constant
//! memory — projects the voxel onto the detector, and accumulates a
//! distance-weighted bilinear sample.
//!
//! Specialization (§5.3.1): `PPL` fixes the projection loop for unrolling
//! and makes the constant-memory declaration exactly the needed size;
//! `ZB` enables register-blocked accumulators; `VOL_N` folds the volume
//! addressing arithmetic.

use crate::launch_binary;
use crate::synth::{ConeGeometry, CtScenario};
use crate::{GpuRunResult, Variant};
use ks_core::{Compiler, Defines};
use ks_sim::{DeviceState, KArg, LaunchDims, LaunchOptions};

/// Problem parameters (Table 6.8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct BackprojProblem {
    /// Volume is `n³` voxels.
    pub n: usize,
    pub num_proj: usize,
    pub det_u: usize,
    pub det_v: usize,
}

/// Implementation parameters (Table 6.9).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct BackprojImpl {
    /// Thread block (x, y).
    pub block_x: u32,
    pub block_y: u32,
    /// Projections per launch (constant-memory batch).
    pub ppl: u32,
    /// Voxels along z per thread (register blocking).
    pub zb: u32,
}

impl Default for BackprojImpl {
    fn default() -> Self {
        BackprojImpl {
            block_x: 16,
            block_y: 8,
            ppl: 8,
            zb: 2,
        }
    }
}

/// The backprojection kernel module.
pub const KERNELS: &str = include_str!("kernels/backproj.cu");

/// The define set [`run_gpu`] compiles for this configuration (empty for
/// RE): `PPL` fixes the projection batch, `ZB` the register blocking,
/// `VOL_N` the volume edge. Profiling and sweep drivers use this to
/// compile the same module `run_gpu` will request.
pub fn specialization(variant: Variant, prob: &BackprojProblem, imp: &BackprojImpl) -> Defines {
    match variant {
        Variant::Re => Defines::new(),
        Variant::Sk => Defines::new()
            .def("PPL", imp.ppl)
            .def("ZB", imp.zb)
            .def("VOL_N", prob.n),
    }
}

/// Output of a GPU backprojection run.
#[derive(Debug, Clone)]
pub struct BackprojOutput {
    pub volume: Vec<f32>,
    pub run: GpuRunResult,
}

/// Run the full backprojection (all projection batches) on the GPU.
pub fn run_gpu(
    compiler: &Compiler,
    variant: Variant,
    prob: &BackprojProblem,
    imp: &BackprojImpl,
    scen: &CtScenario,
    functional: bool,
) -> Result<BackprojOutput, Box<dyn std::error::Error>> {
    assert_eq!(prob.n, scen.n);
    assert!(imp.zb >= 1 && imp.zb as usize <= prob.n && imp.zb <= 8);
    assert!(imp.ppl >= 1 && imp.ppl <= 64);
    let n = prob.n;
    let defines = specialization(variant, prob, imp);
    let t0 = std::time::Instant::now();
    let bin = compiler.compile(KERNELS, &defines)?;
    let compile_ms = t0.elapsed().as_secs_f64() * 1e3;

    let mut st = DeviceState::new(compiler.device().clone(), 512 << 20);
    let batch = imp.ppl as usize;
    let p_proj = st
        .global
        .alloc((batch * prob.det_u * prob.det_v * 4) as u64)?;
    let p_vol = st.global.alloc((n * n * n * 4) as u64)?;

    let geo: ConeGeometry = scen.geo;
    let half_n = n as f32 / 2.0;
    let half_u = prob.det_u as f32 / 2.0;
    let half_v = prob.det_v as f32 / 2.0;

    let grid_z = (n as u32).div_ceil(imp.zb);
    let dims = LaunchDims {
        grid: (
            (n as u32).div_ceil(imp.block_x),
            (n as u32).div_ceil(imp.block_y),
            grid_z,
        ),
        block: (imp.block_x, imp.block_y, 1),
        dynamic_shared: 0,
    };

    let mut reports = Vec::new();
    let mut p0 = 0usize;
    while p0 < prob.num_proj {
        let this_batch = batch.min(prob.num_proj - p0);
        // Upload this batch's projections and (cos, sin) table.
        let slice = &scen.projections
            [p0 * prob.det_u * prob.det_v..(p0 + this_batch) * prob.det_u * prob.det_v];
        st.global.write_f32_slice(p_proj, slice)?;
        let mut geo_tab = Vec::with_capacity(batch * 2);
        for p in 0..this_batch {
            let theta = (p0 + p) as f32 * std::f32::consts::PI * 2.0 / prob.num_proj as f32;
            geo_tab.push(theta.cos());
            geo_tab.push(theta.sin());
        }
        // Pad the table if the last batch is short (kernel still loops
        // PPL times when specialized; the extra reads need valid data but
        // contribute only when p < this_batch — guard below via ppl arg in
        // RE; for SK we simply require num_proj % ppl == 0).
        while geo_tab.len() < batch * 2 {
            geo_tab.push(1.0);
            geo_tab.push(0.0);
        }
        let bytes: Vec<u8> = geo_tab.iter().flat_map(|v| v.to_le_bytes()).collect();
        st.set_const(&bin.module, "projGeo", &bytes)?;
        if variant == Variant::Sk && this_batch != batch {
            return Err(
                format!("specialized PPL={batch} requires num_proj divisible by it").into(),
            );
        }

        let rep = launch_binary(
            &mut st,
            &bin,
            "backproject",
            dims,
            &[
                KArg::Ptr(p_proj),
                KArg::Ptr(p_vol),
                KArg::I32(n as i32),
                KArg::I32(prob.det_u as i32),
                KArg::I32(prob.det_v as i32),
                KArg::I32(this_batch as i32),
                KArg::I32(imp.zb as i32),
                KArg::I32(0),
                KArg::F32(geo.sid),
                KArg::F32(geo.sdd),
                KArg::F32(half_n),
                KArg::F32(half_u),
                KArg::F32(half_v),
            ],
            LaunchOptions {
                functional,
                timing_sample_blocks: 6,
                ..Default::default()
            },
        )?;
        reports.push(rep);
        p0 += this_batch;
    }

    let volume = st.global.read_f32_slice(p_vol, n * n * n)?;
    let sim_ms = reports.iter().map(|r| r.time_ms).sum();
    Ok(BackprojOutput {
        volume,
        run: GpuRunResult {
            sim_ms,
            reports,
            compile_ms,
        },
    })
}

/// Multi-threaded CPU reference (the OpenMP baseline of Table 6.12),
/// parallel over z-slices.
pub fn cpu_backproject(prob: &BackprojProblem, scen: &CtScenario, threads: usize) -> Vec<f32> {
    let n = prob.n;
    let geo = scen.geo;
    let half_n = n as f32 / 2.0;
    let half_u = prob.det_u as f32 / 2.0;
    let half_v = prob.det_v as f32 / 2.0;
    // Precompute angle table.
    let angles: Vec<(f32, f32)> = (0..prob.num_proj)
        .map(|p| {
            let th = p as f32 * std::f32::consts::PI * 2.0 / prob.num_proj as f32;
            (th.cos(), th.sin())
        })
        .collect();
    let mut vol = vec![0.0f32; n * n * n];
    let chunk = (n * n).div_ceil(threads.max(1)) * n; // whole z-slices
    std::thread::scope(|s| {
        for (ci, slice) in vol.chunks_mut(chunk).enumerate() {
            let angles = &angles;
            s.spawn(move || {
                for (k, out) in slice.iter_mut().enumerate() {
                    let idx = ci * chunk + k;
                    let x = idx % n;
                    let y = (idx / n) % n;
                    let z = idx / (n * n);
                    let fx = x as f32 - half_n;
                    let fy = y as f32 - half_n;
                    let fz = z as f32 - half_n;
                    let mut acc = 0.0f32;
                    for (p, &(ct, st)) in angles.iter().enumerate() {
                        let t = fx * ct + fy * st;
                        let ss = fy * ct - fx * st;
                        let depth = geo.sid - ss;
                        let w = geo.sid * geo.sid / (depth * depth);
                        let mag = geo.sdd / depth;
                        let u = t * mag + half_u;
                        let v = fz * mag + half_v;
                        let u0 = u.floor() as i32;
                        let v0 = v.floor() as i32;
                        let fu = u - u0 as f32;
                        let fv = v - v0 as f32;
                        let cl = |c: i32, hi: usize| (c.max(0) as usize).min(hi - 1);
                        let (uu0, uu1) = (cl(u0, prob.det_u), cl(u0 + 1, prob.det_u));
                        let (vv0, vv1) = (cl(v0, prob.det_v), cl(v0 + 1, prob.det_v));
                        let at = |vv: usize, uu: usize| {
                            scen.projections[(p * prob.det_v + vv) * prob.det_u + uu]
                        };
                        let b0 = at(vv0, uu0) + fu * (at(vv0, uu1) - at(vv0, uu0));
                        let b1 = at(vv1, uu0) + fu * (at(vv1, uu1) - at(vv1, uu0));
                        acc += w * (b0 + fv * (b1 - b0));
                    }
                    *out = acc;
                }
            });
        }
    });
    vol
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::ct_scenario;
    use ks_sim::DeviceConfig;

    fn small() -> (BackprojProblem, CtScenario) {
        let prob = BackprojProblem {
            n: 16,
            num_proj: 8,
            det_u: 24,
            det_v: 24,
        };
        (
            prob,
            ct_scenario(prob.n, prob.num_proj, prob.det_u, prob.det_v),
        )
    }

    #[test]
    fn gpu_matches_cpu_reference_sk() {
        let (prob, scen) = small();
        let compiler = Compiler::new(DeviceConfig::tesla_c2070());
        let imp = BackprojImpl {
            block_x: 8,
            block_y: 8,
            ppl: 8,
            zb: 2,
        };
        let out = run_gpu(&compiler, Variant::Sk, &prob, &imp, &scen, true).unwrap();
        let cpu = cpu_backproject(&prob, &scen, 4);
        let mut max_rel = 0.0f32;
        for (g, c) in out.volume.iter().zip(&cpu) {
            let rel = (g - c).abs() / c.abs().max(1.0);
            max_rel = max_rel.max(rel);
        }
        assert!(max_rel < 1e-3, "max relative error {max_rel}");
    }

    #[test]
    fn re_and_sk_agree_and_sk_wins() {
        let (prob, scen) = small();
        let compiler = Compiler::new(DeviceConfig::tesla_c1060());
        let imp = BackprojImpl {
            block_x: 8,
            block_y: 8,
            ppl: 4,
            zb: 2,
        };
        let re = run_gpu(&compiler, Variant::Re, &prob, &imp, &scen, true).unwrap();
        let sk = run_gpu(&compiler, Variant::Sk, &prob, &imp, &scen, true).unwrap();
        for (a, b) in re.volume.iter().zip(&sk.volume) {
            assert!((a - b).abs() <= 1e-3 * a.abs().max(1.0));
        }
        assert!(
            sk.run.sim_ms < re.run.sim_ms,
            "SK {:.4} ms must beat RE {:.4} ms",
            sk.run.sim_ms,
            re.run.sim_ms
        );
    }

    #[test]
    fn reconstruction_has_phantom_structure() {
        let (prob, scen) = small();
        let compiler = Compiler::new(DeviceConfig::tesla_c2070());
        let out = run_gpu(
            &compiler,
            Variant::Sk,
            &prob,
            &BackprojImpl {
                block_x: 8,
                block_y: 8,
                ppl: 8,
                zb: 2,
            },
            &scen,
            true,
        )
        .unwrap();
        let n = prob.n;
        let center = out.volume[(n / 2 * n + n / 2) * n + n / 2];
        let corner = out.volume[0];
        assert!(
            center > corner,
            "phantom interior ({center}) must backproject brighter than air ({corner})"
        );
    }

    #[test]
    fn batching_is_equivalent_to_single_launch() {
        let (prob, scen) = small();
        let compiler = Compiler::new(DeviceConfig::tesla_c2070());
        let one = run_gpu(
            &compiler,
            Variant::Sk,
            &prob,
            &BackprojImpl {
                block_x: 8,
                block_y: 8,
                ppl: 8,
                zb: 1,
            },
            &scen,
            true,
        )
        .unwrap();
        let many = run_gpu(
            &compiler,
            Variant::Sk,
            &prob,
            &BackprojImpl {
                block_x: 8,
                block_y: 8,
                ppl: 2,
                zb: 1,
            },
            &scen,
            true,
        )
        .unwrap();
        for (a, b) in one.volume.iter().zip(&many.volume) {
            assert!((a - b).abs() <= 2e-3 * a.abs().max(1.0));
        }
    }
}
