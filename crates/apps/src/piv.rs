//! Particle image velocimetry (dissertation §5.2).
//!
//! For each interrogation window ("mask") placed on a grid over image A
//! (with configurable overlap), the kernel evaluates the sum-of-squared-
//! differences similarity against image B at every search offset
//! (Figure 5.10) and the host picks the minimizing offset as the local
//! displacement vector.
//!
//! GPU structure (§5.2.1): one block per mask; threads are striped across
//! the mask's area (Figure 5.11); **register blocking** assigns each
//! thread `RB` search offsets whose partial sums live in registers —
//! which requires RB fixed at compile time (the central specialization
//! parameter, Tables 6.14–6.18). An in-block tree reduction combines the
//! per-thread partials; the **warp-specialized** variant (Figure 5.12)
//! reduces within warps warp-synchronously and only barriers once.

use crate::launch_binary;
use crate::synth::PivScenario;
use crate::{GpuRunResult, Variant};
use ks_core::{Compiler, Defines};
use ks_sim::{DeviceState, KArg, LaunchDims, LaunchOptions};

/// Problem parameters (Tables 6.2–6.6 geometry).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PivProblem {
    pub img_w: usize,
    pub img_h: usize,
    /// Interrogation window (mask) dimensions.
    pub mask_w: usize,
    pub mask_h: usize,
    /// Mask grid step (mask size minus overlap).
    pub step_x: usize,
    pub step_y: usize,
    /// Search offsets per axis (window of offsets, centred).
    pub offs_w: usize,
    pub offs_h: usize,
}

impl PivProblem {
    /// A standard setup: given mask size, overlap fraction, and search
    /// radius, on an image.
    pub fn standard(
        img: usize,
        mask: usize,
        overlap_percent: usize,
        search_radius: usize,
    ) -> PivProblem {
        let step = (mask * (100 - overlap_percent) / 100).max(1);
        PivProblem {
            img_w: img,
            img_h: img,
            mask_w: mask,
            mask_h: mask,
            step_x: step,
            step_y: step,
            offs_w: 2 * search_radius + 1,
            offs_h: 2 * search_radius + 1,
        }
    }

    pub fn num_offsets(&self) -> usize {
        self.offs_w * self.offs_h
    }

    /// Number of mask positions in each axis and total. Masks must fit in
    /// the image with room for the search window on both sides.
    pub fn mask_grid(&self) -> (usize, usize) {
        let margin_x = self.offs_w / 2;
        let margin_y = self.offs_h / 2;
        let usable_w = self.img_w.saturating_sub(self.mask_w + 2 * margin_x);
        let usable_h = self.img_h.saturating_sub(self.mask_h + 2 * margin_y);
        (usable_w / self.step_x + 1, usable_h / self.step_y + 1)
    }

    pub fn num_masks(&self) -> usize {
        let (x, y) = self.mask_grid();
        x * y
    }

    /// Mask origin (top-left in image A) of mask `m`.
    fn mask_origin(&self, m: usize) -> (usize, usize) {
        let (gx, _) = self.mask_grid();
        let mx = (m % gx) * self.step_x + self.offs_w / 2;
        let my = (m / gx) * self.step_y + self.offs_h / 2;
        (mx, my)
    }
}

/// Implementation parameters (Table 6.7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct PivImpl {
    /// Data registers per thread (register blocking factor).
    pub rb: u32,
    /// Threads per block.
    pub threads: u32,
}

impl Default for PivImpl {
    fn default() -> Self {
        PivImpl {
            rb: 4,
            threads: 128,
        }
    }
}

/// Kernel flavours compared in Table 6.14.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum PivKernel {
    /// Barriered tree reduction per offset.
    Basic,
    /// Warp-synchronous per-warp reduction, single barrier (Figure 5.12).
    WarpSpec,
    /// Image reads through texture references (the idiomatic CC 1.x path
    /// for cached reads).
    Textured,
}

impl PivKernel {
    pub fn name(self) -> &'static str {
        match self {
            PivKernel::Basic => "piv_ssd",
            PivKernel::WarpSpec => "piv_ssd_warp",
            PivKernel::Textured => "piv_ssd_tex",
        }
    }
}

/// The PIV kernel module. Written once; `RB`, `THREADS`, mask and search
/// dimensions are specialization parameters with run-time fallbacks.
pub const KERNELS: &str = include_str!("kernels/piv.cu");

/// Output of a GPU PIV run.
#[derive(Debug, Clone)]
pub struct PivOutput {
    /// SSD score per (mask, offset), row-major.
    pub scores: Vec<f32>,
    /// Estimated displacement per mask.
    pub displacements: Vec<(i32, i32)>,
    pub run: GpuRunResult,
}

/// Convert raw scores into per-mask displacement vectors.
pub fn displacements(prob: &PivProblem, scores: &[f32]) -> Vec<(i32, i32)> {
    let no = prob.num_offsets();
    (0..prob.num_masks())
        .map(|m| {
            let row = &scores[m * no..(m + 1) * no];
            let best = row
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .map(|(i, _)| i)
                .unwrap_or(0);
            (
                (best % prob.offs_w) as i32 - (prob.offs_w / 2) as i32,
                (best / prob.offs_w) as i32 - (prob.offs_h / 2) as i32,
            )
        })
        .collect()
}

/// The defines [`run_gpu`] compiles with for this configuration. Sweep
/// drivers use this to precompile whole candidate grids in parallel
/// through `Compiler::compile_batch` before walking them.
pub fn specialization(variant: Variant, prob: &PivProblem, imp: &PivImpl) -> Defines {
    match variant {
        Variant::Re => Defines::new(),
        Variant::Sk => Defines::new()
            .def("RB", imp.rb)
            .def("THREADS", imp.threads)
            .def("MASK_W", prob.mask_w)
            .def("MASK_H", prob.mask_h)
            .def("OFFS_W", prob.offs_w),
    }
}

/// Run the GPU PIV kernel over a scenario.
pub fn run_gpu(
    compiler: &Compiler,
    variant: Variant,
    kernel: PivKernel,
    prob: &PivProblem,
    imp: &PivImpl,
    scen: &PivScenario,
    functional: bool,
) -> Result<PivOutput, Box<dyn std::error::Error>> {
    run_gpu_with(
        compiler,
        variant,
        kernel,
        prob,
        imp,
        scen,
        LaunchOptions {
            functional,
            timing_sample_blocks: 6,
            ..Default::default()
        },
    )
}

/// Like [`run_gpu`] but with explicit simulator launch options (e.g. the
/// event-driven timing mode).
#[allow(clippy::too_many_arguments)]
pub fn run_gpu_with(
    compiler: &Compiler,
    variant: Variant,
    kernel: PivKernel,
    prob: &PivProblem,
    imp: &PivImpl,
    scen: &PivScenario,
    opts: LaunchOptions,
) -> Result<PivOutput, Box<dyn std::error::Error>> {
    assert!(
        imp.threads.is_power_of_two() && imp.threads >= 32,
        "threads must be pow2 ≥ 32"
    );
    assert!(imp.rb >= 1 && imp.rb <= 16);
    let num_offsets = prob.num_offsets();
    let num_masks = prob.num_masks();
    let (masks_x, _) = prob.mask_grid();

    let defines = specialization(variant, prob, imp);
    let t0 = std::time::Instant::now();
    let bin = compiler.compile(KERNELS, &defines)?;
    let compile_ms = t0.elapsed().as_secs_f64() * 1e3;

    let mut st = DeviceState::new(compiler.device().clone(), 256 << 20);
    let p_a = st.global.alloc((scen.a.data.len() * 4) as u64)?;
    let p_b = st.global.alloc((scen.b.data.len() * 4) as u64)?;
    let p_scores = st.global.alloc((num_masks * num_offsets * 4) as u64)?;
    st.global.write_f32_slice(p_a, &scen.a.data)?;
    st.global.write_f32_slice(p_b, &scen.b.data)?;
    if kernel == PivKernel::Textured {
        st.bind_texture("texA", p_a);
        st.bind_texture("texB", p_b);
    }

    let groups = (num_offsets as u32).div_ceil(imp.rb);
    let dims = LaunchDims {
        grid: (num_masks as u32, groups, 1),
        block: (imp.threads, 1, 1),
        dynamic_shared: 0,
    };
    let rep = launch_binary(
        &mut st,
        &bin,
        kernel.name(),
        dims,
        &[
            KArg::Ptr(p_a),
            KArg::Ptr(p_b),
            KArg::Ptr(p_scores),
            KArg::I32(prob.img_w as i32),
            KArg::I32(prob.mask_w as i32),
            KArg::I32(prob.mask_h as i32),
            KArg::I32(prob.offs_w as i32),
            KArg::I32(num_offsets as i32),
            KArg::I32(masks_x as i32),
            KArg::I32(prob.step_x as i32),
            KArg::I32(prob.step_y as i32),
            KArg::I32((prob.offs_w / 2) as i32),
            KArg::I32((prob.offs_h / 2) as i32),
            KArg::I32(imp.rb as i32),
        ],
        opts,
    )?;
    let scores = st
        .global
        .read_f32_slice(p_scores, num_masks * num_offsets)?;
    let disp = displacements(prob, &scores);
    Ok(PivOutput {
        scores,
        displacements: disp,
        run: GpuRunResult {
            sim_ms: rep.time_ms,
            reports: vec![rep],
            compile_ms,
        },
    })
}

/// Multi-threaded CPU reference: direct SSD evaluation.
pub fn cpu_ssd(prob: &PivProblem, scen: &PivScenario, threads: usize) -> Vec<f32> {
    let no = prob.num_offsets();
    let nm = prob.num_masks();
    let mut out = vec![0.0f32; nm * no];
    let chunk = nm.div_ceil(threads.max(1));
    std::thread::scope(|s| {
        for (ci, slice) in out.chunks_mut(chunk * no).enumerate() {
            s.spawn(move || {
                for (k, v) in slice.iter_mut().enumerate() {
                    let m = ci * chunk + k / no;
                    let o = k % no;
                    let (mx, my) = prob.mask_origin(m);
                    let dx = (o % prob.offs_w) as i32 - (prob.offs_w / 2) as i32;
                    let dy = (o / prob.offs_w) as i32 - (prob.offs_h / 2) as i32;
                    let mut acc = 0.0f32;
                    for py in 0..prob.mask_h {
                        for px in 0..prob.mask_w {
                            let a = scen.a.at(mx + px, my + py);
                            let b = scen.b.at(
                                (mx as i32 + px as i32 + dx) as usize,
                                (my as i32 + py as i32 + dy) as usize,
                            );
                            acc += (a - b) * (a - b);
                        }
                    }
                    *v = acc;
                }
            });
        }
    });
    out
}

/// Analytic model of Bennis's FPGA PIV implementation (the Table 6.11
/// baseline; see DESIGN.md for the substitution). A deeply pipelined
/// correlator at `clock_hz` evaluates `lanes` offsets per mask-pixel per
/// cycle, plus per-frame transfer overhead.
pub fn fpga_model_ms(prob: &PivProblem) -> f64 {
    let clock_hz = 100.0e6;
    let lanes = 16.0;
    let work =
        prob.num_masks() as f64 * prob.num_offsets() as f64 * (prob.mask_w * prob.mask_h) as f64;
    let cycles = work / lanes;
    let io = (prob.img_w * prob.img_h * 2) as f64 / 4.0; // 4 B/cycle in
    (cycles + io) / clock_hz * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::piv_scenario;
    use ks_sim::DeviceConfig;

    fn small_problem() -> PivProblem {
        PivProblem {
            img_w: 96,
            img_h: 96,
            mask_w: 16,
            mask_h: 16,
            step_x: 16,
            step_y: 16,
            offs_w: 9,
            offs_h: 9,
        }
    }

    #[test]
    fn mask_grid_fits_image() {
        let p = small_problem();
        let (gx, gy) = p.mask_grid();
        assert!(gx >= 2 && gy >= 2);
        for m in 0..p.num_masks() {
            let (mx, my) = p.mask_origin(m);
            assert!(mx + p.mask_w + p.offs_w / 2 <= p.img_w);
            assert!(my + p.mask_h + p.offs_h / 2 <= p.img_h);
            assert!(mx >= p.offs_w / 2 && my >= p.offs_h / 2);
        }
    }

    #[test]
    fn gpu_matches_cpu_and_recovers_flow_sk() {
        let prob = small_problem();
        let scen = piv_scenario(prob.img_w, prob.img_h, (3, -2), 5);
        let compiler = Compiler::new(DeviceConfig::tesla_c1060());
        let imp = PivImpl { rb: 4, threads: 64 };
        let out = run_gpu(
            &compiler,
            Variant::Sk,
            PivKernel::Basic,
            &prob,
            &imp,
            &scen,
            true,
        )
        .unwrap();
        let cpu = cpu_ssd(&prob, &scen, 4);
        for (i, (g, c)) in out.scores.iter().zip(&cpu).enumerate() {
            assert!(
                (g - c).abs() <= 1e-3 * c.abs().max(1.0),
                "score {i}: gpu {g} vs cpu {c}"
            );
        }
        // Most masks should recover the true flow.
        let hits = out
            .displacements
            .iter()
            .filter(|d| **d == scen.flow)
            .count();
        assert!(
            hits * 10 >= out.displacements.len() * 7,
            "only {hits}/{} masks recovered the flow",
            out.displacements.len()
        );
    }

    #[test]
    fn app_kernels_run_clean_under_dynamic_sanitizers() {
        // The correlation kernels mix a block-wide barrier with a
        // warp-synchronous reduction tail; both the dynamic racecheck and
        // strict barrier checking must stay quiet (the static analyzers in
        // ks-analysis reach the same verdict).
        let prob = small_problem();
        let scen = piv_scenario(prob.img_w, prob.img_h, (3, -2), 5);
        let compiler = Compiler::new(DeviceConfig::tesla_c2070());
        let imp = PivImpl { rb: 4, threads: 64 };
        let opts = LaunchOptions {
            functional: true,
            racecheck: true,
            strict_barriers: true,
            ..Default::default()
        };
        for kernel in [PivKernel::Basic, PivKernel::WarpSpec] {
            run_gpu_with(&compiler, Variant::Sk, kernel, &prob, &imp, &scen, opts)
                .unwrap_or_else(|e| panic!("{kernel:?} under sanitizers: {e}"));
        }
    }

    #[test]
    fn warp_specialized_variant_agrees_with_basic() {
        let prob = small_problem();
        let scen = piv_scenario(prob.img_w, prob.img_h, (1, 2), 9);
        let compiler = Compiler::new(DeviceConfig::tesla_c2070());
        let imp = PivImpl { rb: 2, threads: 64 };
        let a = run_gpu(
            &compiler,
            Variant::Sk,
            PivKernel::Basic,
            &prob,
            &imp,
            &scen,
            true,
        )
        .unwrap();
        let b = run_gpu(
            &compiler,
            Variant::Sk,
            PivKernel::WarpSpec,
            &prob,
            &imp,
            &scen,
            true,
        )
        .unwrap();
        for (x, y) in a.scores.iter().zip(&b.scores) {
            assert!((x - y).abs() <= 1e-3 * x.abs().max(1.0));
        }
    }

    #[test]
    fn textured_variant_agrees_with_basic() {
        let prob = small_problem();
        let scen = piv_scenario(prob.img_w, prob.img_h, (2, -2), 17);
        let compiler = Compiler::new(DeviceConfig::tesla_c1060());
        let imp = PivImpl { rb: 2, threads: 64 };
        let a = run_gpu(
            &compiler,
            Variant::Sk,
            PivKernel::Basic,
            &prob,
            &imp,
            &scen,
            true,
        )
        .unwrap();
        let b = run_gpu(
            &compiler,
            Variant::Sk,
            PivKernel::Textured,
            &prob,
            &imp,
            &scen,
            true,
        )
        .unwrap();
        for (x, y) in a.scores.iter().zip(&b.scores) {
            assert!((x - y).abs() <= 1e-3 * x.abs().max(1.0));
        }
        assert_eq!(a.displacements, b.displacements);
    }

    #[test]
    fn re_and_sk_agree_and_sk_wins() {
        let prob = small_problem();
        let scen = piv_scenario(prob.img_w, prob.img_h, (2, 1), 3);
        let compiler = Compiler::new(DeviceConfig::tesla_c1060());
        let imp = PivImpl { rb: 4, threads: 64 };
        let re = run_gpu(
            &compiler,
            Variant::Re,
            PivKernel::Basic,
            &prob,
            &imp,
            &scen,
            true,
        )
        .unwrap();
        let sk = run_gpu(
            &compiler,
            Variant::Sk,
            PivKernel::Basic,
            &prob,
            &imp,
            &scen,
            true,
        )
        .unwrap();
        for (x, y) in re.scores.iter().zip(&sk.scores) {
            assert!((x - y).abs() <= 1e-3 * x.abs().max(1.0));
        }
        assert!(
            sk.run.sim_ms < re.run.sim_ms,
            "SK {:.4} ms must beat RE {:.4} ms (register blocking in local memory)",
            sk.run.sim_ms,
            re.run.sim_ms
        );
        // RE keeps the accumulator array in local memory; SK scalarizes it.
        assert!(re.run.reports[0].local_bytes_per_thread > 0);
        assert_eq!(sk.run.reports[0].local_bytes_per_thread, 0);
    }

    #[test]
    fn fpga_model_scales_linearly_in_work() {
        let p1 = PivProblem::standard(128, 16, 0, 4);
        let p2 = PivProblem::standard(128, 32, 0, 4);
        let t1 = fpga_model_ms(&p1);
        let t2 = fpga_model_ms(&p2);
        assert!(t1 > 0.0 && t2 > 0.0);
        // Bigger masks, fewer masks — work roughly constant, so the ratio
        // stays moderate.
        assert!(t2 / t1 < 4.0);
    }
}
