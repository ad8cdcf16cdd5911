//! Large template matching (dissertation §5.1).
//!
//! Normalized cross-correlation (`corr2`) of a large template against every
//! shift offset within a region of interest. The GPU implementation follows
//! the dissertation's staging:
//!
//! 1. **Numerator stage** — the template is split into tiles (a main tile
//!    size plus right/bottom/corner edge tiles); each block accumulates one
//!    tile's contribution to Σ A_C·B for a stripe of shift offsets
//!    (Figures 5.4–5.6). Tile dimensions are the headline specialization
//!    parameters: every distinct tile size is compiled on demand
//!    (§5.1.3.2) instead of pre-instantiating all variants.
//! 2. **Tiled summation** — partial sums are reduced across tiles per
//!    offset (the kernel Table 6.13 benchmarks).
//! 3. **Other stages** — per-offset window statistics (ΣB, ΣB²) and the
//!    final normalization (§5.1.3.3).
//!
//! The numerator uses the simplification of Figure 5.3: with the template
//! mean pre-subtracted (A_C), Σ A_C·B̄ vanishes, so only Σ A_C·B is needed.

use crate::synth::{Image, MatchScenario};
use crate::{GpuRunResult, Variant};
use ks_core::{Compiler, Defines};
use ks_sim::{launch, DeviceState, KArg, LaunchDims, LaunchOptions};

/// Problem parameters (Table 5.1 geometry).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MatchProblem {
    pub frame_w: usize,
    pub frame_h: usize,
    pub templ_w: usize,
    pub templ_h: usize,
    /// Shift area (vertical/horizontal shift within the ROI).
    pub shift_w: usize,
    pub shift_h: usize,
    /// Image frames per sequence.
    pub frames: usize,
}

impl MatchProblem {
    pub fn num_offsets(&self) -> usize {
        self.shift_w * self.shift_h
    }
}

/// The four patient data sets of Table 5.1. Template sizes follow the
/// dissertation where stated (patient 4: 156×116); the others scale down.
pub fn patients() -> Vec<(&'static str, MatchProblem)> {
    vec![
        (
            "Patient 1",
            MatchProblem {
                frame_w: 320,
                frame_h: 240,
                templ_w: 64,
                templ_h: 56,
                shift_w: 16,
                shift_h: 16,
                frames: 32,
            },
        ),
        (
            "Patient 2",
            MatchProblem {
                frame_w: 400,
                frame_h: 300,
                templ_w: 96,
                templ_h: 80,
                shift_w: 24,
                shift_h: 24,
                frames: 32,
            },
        ),
        (
            "Patient 3",
            MatchProblem {
                frame_w: 480,
                frame_h: 360,
                templ_w: 128,
                templ_h: 96,
                shift_w: 28,
                shift_h: 28,
                frames: 16,
            },
        ),
        (
            "Patient 4",
            MatchProblem {
                frame_w: 512,
                frame_h: 400,
                templ_w: 156,
                templ_h: 116,
                shift_w: 32,
                shift_h: 32,
                frames: 16,
            },
        ),
    ]
}

/// Implementation parameters (Table 6.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatchImpl {
    /// Main tile dimensions.
    pub tile_w: u32,
    pub tile_h: u32,
    /// Threads per block (offsets per block stripe).
    pub threads: u32,
}

impl Default for MatchImpl {
    fn default() -> Self {
        MatchImpl {
            tile_w: 16,
            tile_h: 16,
            threads: 128,
        }
    }
}

/// The kernel module source, written once with specialization toggles.
pub const KERNELS: &str = include_str!("kernels/template_match.cu");

/// A tile region: origin, tile dims, tile grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileRegion {
    pub x0: u32,
    pub y0: u32,
    pub tw: u32,
    pub th: u32,
    pub tiles_x: u32,
    pub tiles_y: u32,
}

impl TileRegion {
    pub fn num_tiles(&self) -> u32 {
        self.tiles_x * self.tiles_y
    }
}

/// Decompose a template into main + edge tile regions (Table 5.2 style).
pub fn tile_regions(templ_w: u32, templ_h: u32, tile_w: u32, tile_h: u32) -> Vec<TileRegion> {
    let tx = templ_w / tile_w;
    let ty = templ_h / tile_h;
    let rw = templ_w % tile_w;
    let rh = templ_h % tile_h;
    let mut out = Vec::new();
    if tx > 0 && ty > 0 {
        out.push(TileRegion {
            x0: 0,
            y0: 0,
            tw: tile_w,
            th: tile_h,
            tiles_x: tx,
            tiles_y: ty,
        });
    }
    if rw > 0 && ty > 0 {
        out.push(TileRegion {
            x0: tx * tile_w,
            y0: 0,
            tw: rw,
            th: tile_h,
            tiles_x: 1,
            tiles_y: ty,
        });
    }
    if rh > 0 && tx > 0 {
        out.push(TileRegion {
            x0: 0,
            y0: ty * tile_h,
            tw: tile_w,
            th: rh,
            tiles_x: tx,
            tiles_y: 1,
        });
    }
    if rw > 0 && rh > 0 {
        out.push(TileRegion {
            x0: tx * tile_w,
            y0: ty * tile_h,
            tw: rw,
            th: rh,
            tiles_x: 1,
            tiles_y: 1,
        });
    }
    out
}

/// Result of one GPU template-matching run.
#[derive(Debug, Clone)]
pub struct MatchOutput {
    /// NCC score per offset (row-major over the shift area).
    pub ncc: Vec<f32>,
    pub run: GpuRunResult,
}

impl MatchOutput {
    /// Best-scoring offset (x, y).
    pub fn best(&self, shift_w: usize) -> (usize, usize) {
        let (mut bi, mut bv) = (0usize, f32::MIN);
        for (i, v) in self.ncc.iter().enumerate() {
            if *v > bv {
                bv = *v;
                bi = i;
            }
        }
        (bi % shift_w, bi / shift_w)
    }
}

/// Defines for the tile kernels at one region tile size (the per-region
/// modules of [`run_gpu`] plus its auxiliary module all come from here).
fn tile_defines(
    variant: Variant,
    prob: &MatchProblem,
    imp: &MatchImpl,
    total_tiles: u32,
    tw: u32,
    th: u32,
) -> Defines {
    match variant {
        Variant::Re => Defines::new(),
        Variant::Sk => Defines::new()
            .def("TILE_W", tw)
            .def("TILE_H", th)
            .def("SHIFT_W", prob.shift_w)
            .def("NUM_TILES", total_tiles)
            .def("TEMPL_W", prob.templ_w)
            .def("TEMPL_H", prob.templ_h)
            .def("THREADS", imp.threads),
    }
}

/// The distinct define sets [`run_gpu`] compiles for this configuration
/// (one per region tile size, plus the auxiliary-stage module). Sweep
/// drivers use this to precompile whole candidate grids in parallel
/// through `Compiler::compile_batch` before walking them.
pub fn specializations(variant: Variant, prob: &MatchProblem, imp: &MatchImpl) -> Vec<Defines> {
    let regions = tile_regions(
        prob.templ_w as u32,
        prob.templ_h as u32,
        imp.tile_w,
        imp.tile_h,
    );
    let total_tiles: u32 = regions.iter().map(|r| r.num_tiles()).sum();
    let mut out: Vec<Defines> = Vec::new();
    for (tw, th) in regions
        .iter()
        .map(|r| (r.tw, r.th))
        .chain(std::iter::once((imp.tile_w, imp.tile_h)))
    {
        let d = tile_defines(variant, prob, imp, total_tiles, tw, th);
        if !out.contains(&d) {
            out.push(d);
        }
    }
    out
}

/// Run the full GPU pipeline for one frame.
///
/// `functional` should be true when outputs are checked; perf sweeps can
/// pass false to time from the block sample only.
pub fn run_gpu(
    compiler: &Compiler,
    variant: Variant,
    prob: &MatchProblem,
    imp: &MatchImpl,
    scen: &MatchScenario,
    functional: bool,
) -> Result<MatchOutput, Box<dyn std::error::Error>> {
    let num_offsets = prob.num_offsets();
    let regions = tile_regions(
        prob.templ_w as u32,
        prob.templ_h as u32,
        imp.tile_w,
        imp.tile_h,
    );
    let total_tiles: u32 = regions.iter().map(|r| r.num_tiles()).sum();

    // Template with mean removed (A_C) and its sum of squares.
    let tmean = scen.template.mean();
    let templc: Vec<f32> = scen.template.data.iter().map(|v| v - tmean).collect();
    let denom_a: f32 = templc.iter().map(|v| v * v).sum();
    let inv_n = 1.0f32 / (prob.templ_w * prob.templ_h) as f32;

    // --- compile (per-region for SK; single RE module otherwise) ---
    let base_defs = |tw: u32, th: u32| tile_defines(variant, prob, imp, total_tiles, tw, th);
    let compile_start = std::time::Instant::now();
    let mut region_bins = Vec::new();
    for r in &regions {
        region_bins.push(compiler.compile(KERNELS, base_defs(r.tw, r.th))?);
    }
    let aux_bin = compiler.compile(KERNELS, base_defs(imp.tile_w, imp.tile_h))?;
    let compile_ms = compile_start.elapsed().as_secs_f64() * 1e3;

    // --- device state and buffers ---
    let mut st = DeviceState::new(compiler.device().clone(), 256 << 20);
    let p_frame = st.global.alloc((scen.frame.data.len() * 4) as u64)?;
    let p_templc = st.global.alloc((templc.len() * 4) as u64)?;
    let p_partial = st
        .global
        .alloc(total_tiles as u64 * num_offsets as u64 * 4)?;
    let p_numer = st.global.alloc(num_offsets as u64 * 4)?;
    let p_sums = st.global.alloc(num_offsets as u64 * 4)?;
    let p_sumsq = st.global.alloc(num_offsets as u64 * 4)?;
    let p_ncc = st.global.alloc(num_offsets as u64 * 4)?;
    st.global.write_f32_slice(p_frame, &scen.frame.data)?;
    st.global.write_f32_slice(p_templc, &templc)?;

    let opts = LaunchOptions {
        functional,
        timing_sample_blocks: 6,
        ..Default::default()
    };
    let oblocks = (num_offsets as u32).div_ceil(imp.threads);
    let mut reports = Vec::new();

    // Stage 1: numerator, one launch per tile region.
    let mut tile_base = 0u32;
    for (r, bin) in regions.iter().zip(&region_bins) {
        let dims = LaunchDims {
            grid: (oblocks, r.num_tiles(), 1),
            block: (imp.threads, 1, 1),
            dynamic_shared: 0,
        };
        let rep = launch(
            &mut st,
            &bin.module,
            "numerator_tiles",
            dims,
            &[
                KArg::Ptr(p_frame),
                KArg::Ptr(p_templc),
                KArg::Ptr(p_partial),
                KArg::I32(prob.frame_w as i32),
                KArg::I32(prob.shift_w as i32),
                KArg::I32(num_offsets as i32),
                KArg::I32(prob.templ_w as i32),
                KArg::I32(r.tw as i32),
                KArg::I32(r.th as i32),
                KArg::I32(r.tiles_x as i32),
                KArg::I32(r.x0 as i32),
                KArg::I32(r.y0 as i32),
                KArg::I32(tile_base as i32),
            ],
            opts,
        )?;
        reports.push(rep);
        tile_base += r.num_tiles();
    }

    // Stage 2: tiled summation.
    let dims1 = LaunchDims::linear(oblocks, imp.threads);
    reports.push(launch(
        &mut st,
        &aux_bin.module,
        "sum_partials",
        dims1,
        &[
            KArg::Ptr(p_partial),
            KArg::Ptr(p_numer),
            KArg::I32(total_tiles as i32),
            KArg::I32(num_offsets as i32),
        ],
        opts,
    )?);

    // Stage 3: window statistics (one block per offset).
    let stats_dims = LaunchDims::linear(num_offsets as u32, imp.threads);
    reports.push(launch(
        &mut st,
        &aux_bin.module,
        "window_stats",
        stats_dims,
        &[
            KArg::Ptr(p_frame),
            KArg::Ptr(p_sums),
            KArg::Ptr(p_sumsq),
            KArg::I32(prob.frame_w as i32),
            KArg::I32(prob.shift_w as i32),
            KArg::I32(num_offsets as i32),
            KArg::I32(prob.templ_w as i32),
            KArg::I32(prob.templ_h as i32),
        ],
        opts,
    )?);

    // Stage 4: normalization.
    reports.push(launch(
        &mut st,
        &aux_bin.module,
        "normalize",
        dims1,
        &[
            KArg::Ptr(p_numer),
            KArg::Ptr(p_sums),
            KArg::Ptr(p_sumsq),
            KArg::Ptr(p_ncc),
            KArg::I32(num_offsets as i32),
            KArg::F32(inv_n),
            KArg::F32(denom_a),
        ],
        opts,
    )?);

    let ncc = st.global.read_f32_slice(p_ncc, num_offsets)?;
    let sim_ms = reports.iter().map(|r| r.time_ms).sum();
    Ok(MatchOutput {
        ncc,
        run: GpuRunResult {
            sim_ms,
            reports,
            compile_ms,
        },
    })
}

/// Match several templates against the same frame (Table 5.1's "template
/// number" column: each patient tracks multiple templates per frame). The
/// per-region specialized binaries are shared across templates via the
/// compiler cache, so only the first template pays compilation.
pub fn run_gpu_multi(
    compiler: &Compiler,
    variant: Variant,
    prob: &MatchProblem,
    imp: &MatchImpl,
    frame: &Image,
    templates: &[Image],
    functional: bool,
) -> Result<Vec<MatchOutput>, Box<dyn std::error::Error>> {
    templates
        .iter()
        .map(|t| {
            let scen = MatchScenario {
                frame: frame.clone(),
                template: t.clone(),
                truth: (0, 0), // unknown here; caller scores via NCC
            };
            run_gpu(compiler, variant, prob, imp, &scen, functional)
        })
        .collect()
}

/// Multi-threaded CPU reference (Figure 5.7): each thread computes the
/// full correlation for a stripe of shift offsets.
pub fn cpu_ncc(prob: &MatchProblem, frame: &Image, template: &Image, threads: usize) -> Vec<f32> {
    let num_offsets = prob.num_offsets();
    let tmean = template.mean();
    let templc: Vec<f32> = template.data.iter().map(|v| v - tmean).collect();
    let denom_a: f32 = templc.iter().map(|v| v * v).sum();
    let n = (prob.templ_w * prob.templ_h) as f32;
    let mut out = vec![0.0f32; num_offsets];
    let chunk = num_offsets.div_ceil(threads.max(1));
    std::thread::scope(|s| {
        for (ci, slice) in out.chunks_mut(chunk).enumerate() {
            let templc = &templc;
            s.spawn(move || {
                for (k, v) in slice.iter_mut().enumerate() {
                    let o = ci * chunk + k;
                    let ox = o % prob.shift_w;
                    let oy = o / prob.shift_w;
                    let mut num = 0.0f32;
                    let mut sb = 0.0f32;
                    let mut sb2 = 0.0f32;
                    for y in 0..prob.templ_h {
                        for x in 0..prob.templ_w {
                            let a = templc[y * prob.templ_w + x];
                            let b = frame.at(ox + x, oy + y);
                            num += a * b;
                            sb += b;
                            sb2 += b * b;
                        }
                    }
                    let var_b = (sb2 - sb * sb / n).max(0.0);
                    *v = num / (var_b * denom_a).sqrt().max(1e-6);
                }
            });
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::match_scenario;
    use ks_sim::DeviceConfig;

    fn small_problem() -> MatchProblem {
        MatchProblem {
            frame_w: 96,
            frame_h: 72,
            templ_w: 28, // deliberately not a tile multiple: edge tiles
            templ_h: 20,
            shift_w: 8,
            shift_h: 8,
            frames: 1,
        }
    }

    #[test]
    fn tile_decomposition_covers_template_exactly() {
        for (tw, th) in [(8u32, 8u32), (16, 16), (7, 5), (28, 20), (32, 32)] {
            let regions = tile_regions(28, 20, tw, th);
            let mut covered = vec![false; 28 * 20];
            for r in &regions {
                for ty in 0..r.tiles_y {
                    for tx in 0..r.tiles_x {
                        for y in 0..r.th {
                            for x in 0..r.tw {
                                let gx = r.x0 + tx * r.tw + x;
                                let gy = r.y0 + ty * r.th + y;
                                let idx = (gy * 28 + gx) as usize;
                                assert!(!covered[idx], "overlap at ({gx},{gy}) tiles {tw}x{th}");
                                covered[idx] = true;
                            }
                        }
                    }
                }
            }
            assert!(covered.iter().all(|c| *c), "gap with tiles {tw}x{th}");
        }
    }

    #[test]
    fn gpu_matches_cpu_and_finds_truth_sk() {
        let prob = small_problem();
        let scen = match_scenario(
            prob.frame_w,
            prob.frame_h,
            prob.templ_w,
            prob.templ_h,
            prob.shift_w,
            prob.shift_h,
            42,
        );
        let compiler = Compiler::new(DeviceConfig::tesla_c1060());
        let imp = MatchImpl {
            tile_w: 8,
            tile_h: 8,
            threads: 64,
        };
        let out = run_gpu(&compiler, Variant::Sk, &prob, &imp, &scen, true).unwrap();
        let cpu = cpu_ncc(&prob, &scen.frame, &scen.template, 4);
        assert_eq!(out.ncc.len(), cpu.len());
        for (i, (g, c)) in out.ncc.iter().zip(&cpu).enumerate() {
            assert!((g - c).abs() < 2e-3, "offset {i}: gpu {g} vs cpu {c}");
        }
        assert_eq!(out.best(prob.shift_w), scen.truth);
    }

    #[test]
    fn re_and_sk_agree() {
        let prob = small_problem();
        let scen = match_scenario(
            prob.frame_w,
            prob.frame_h,
            prob.templ_w,
            prob.templ_h,
            prob.shift_w,
            prob.shift_h,
            7,
        );
        let compiler = Compiler::new(DeviceConfig::tesla_c2070());
        let imp = MatchImpl {
            tile_w: 8,
            tile_h: 8,
            threads: 64,
        };
        let re = run_gpu(&compiler, Variant::Re, &prob, &imp, &scen, true).unwrap();
        let sk = run_gpu(&compiler, Variant::Sk, &prob, &imp, &scen, true).unwrap();
        for (a, b) in re.ncc.iter().zip(&sk.ncc) {
            assert!((a - b).abs() < 1e-4);
        }
        assert!(
            sk.run.sim_ms < re.run.sim_ms,
            "SK {:.4} ms must beat RE {:.4} ms",
            sk.run.sim_ms,
            re.run.sim_ms
        );
    }

    #[test]
    fn multi_template_tracking_shares_compiled_binaries() {
        let prob = small_problem();
        // One frame containing template A at its truth spot; template B is
        // unrelated and must score lower at every offset.
        let scen = match_scenario(
            prob.frame_w,
            prob.frame_h,
            prob.templ_w,
            prob.templ_h,
            prob.shift_w,
            prob.shift_h,
            21,
        );
        let other = crate::synth::textured_image(prob.templ_w, prob.templ_h, 999);
        let compiler = Compiler::new(DeviceConfig::tesla_c1060());
        let imp = MatchImpl {
            tile_w: 8,
            tile_h: 8,
            threads: 64,
        };
        let outs = run_gpu_multi(
            &compiler,
            Variant::Sk,
            &prob,
            &imp,
            &scen.frame,
            &[scen.template.clone(), other],
            true,
        )
        .unwrap();
        assert_eq!(outs.len(), 2);
        assert_eq!(outs[0].best(prob.shift_w), scen.truth);
        let best_a = outs[0].ncc.iter().cloned().fold(f32::MIN, f32::max);
        let best_b = outs[1].ncc.iter().cloned().fold(f32::MIN, f32::max);
        assert!(
            best_a > 0.9 && best_a > best_b + 0.2,
            "A {best_a} vs B {best_b}"
        );
        // Second template re-used every compiled module.
        let stats = compiler.cache_stats();
        assert!(stats.hits >= stats.misses, "{stats:?}");
    }

    #[test]
    fn cpu_reference_finds_embedded_template() {
        let prob = small_problem();
        let scen = match_scenario(
            prob.frame_w,
            prob.frame_h,
            prob.templ_w,
            prob.templ_h,
            prob.shift_w,
            prob.shift_h,
            99,
        );
        let ncc = cpu_ncc(&prob, &scen.frame, &scen.template, 2);
        let best = ncc
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!((best % prob.shift_w, best / prob.shift_w), scen.truth);
    }
}
