//! The three case-study applications as GPU-PF pipelines: seeded input
//! synthesis, the hand-written CPU references from `ks-apps`
//! (`cpu_ncc`, `cpu_ssd`, `cpu_backproject`), pipeline construction, and
//! output verification. Every workload builds its pipelines here, so the
//! four workloads differ in *how* they drive a pipeline, never in what
//! a pipeline is.
//!
//! A pipeline is built for one **problem** (geometry + input data) and
//! can be re-specialized across that problem's **implementation
//! parameters** (tile size, register blocking, thread count). The
//! specialization macros and the launch geometry are separate pipeline
//! parameters on purpose: under `RefreshMode::Tiered` a module keeps
//! serving its previous binary until the background compile lands, and
//! that binary is only correct with the geometry it was compiled for —
//! so a tiered caller sets the macros first and flips the geometry when
//! the module reports `Tier::Specialized` (see `workloads::adapt`).

use gpu_pf::{Arg, IntegrityConfig, MacroBinding, ParamId, Pipeline, RefreshMode, ResId};
use ks_apps::backproj::{self, BackprojProblem};
use ks_apps::piv::{self, PivProblem};
use ks_apps::synth::{self, CtScenario, PivScenario};
use ks_apps::template_match::{self as tm, MatchProblem};
use ks_core::{Binary, Compiler, Defines, StableHasher};
use ks_sim::{KArg, LaunchDims};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::Arc;

/// Which case study a pipeline runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum App {
    Tm,
    Piv,
    Bp,
}

impl App {
    pub fn source(self) -> &'static str {
        match self {
            App::Tm => tm::KERNELS,
            App::Piv => piv::KERNELS,
            App::Bp => backproj::KERNELS,
        }
    }
}

/// Problem geometry of one pipeline (what the CPU reference depends on).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Problem {
    /// `frames` frames stream through a moving window, one per round.
    Tm(MatchProblem),
    Piv(PivProblem),
    /// One launch backprojects the whole scan, so `PPL == num_proj`.
    Bp(BackprojProblem),
}

impl Problem {
    pub fn app(&self) -> App {
        match self {
            Problem::Tm(_) => App::Tm,
            Problem::Piv(_) => App::Piv,
            Problem::Bp(_) => App::Bp,
        }
    }
}

/// Implementation parameters: the part of a specialization that changes
/// how a result is computed, not which result.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Impl {
    /// Exact tilings only (tile divides the template), so one module
    /// serves all four kernels.
    Tm {
        tile_w: u32,
        tile_h: u32,
        threads: u32,
    },
    Piv {
        rb: u32,
        threads: u32,
    },
    Bp {
        zb: u32,
    },
}

/// Backprojection thread block edge (x and y); not a specialization.
const BP_BLOCK: u32 = 8;

/// Inputs generated from a seed, with the CPU reference output for each
/// round the pipeline can run.
pub struct Input {
    pub problem: Problem,
    data: InputData,
    /// Expected output per frame (one entry except for streamed frames).
    reference: Vec<Vec<f32>>,
}

enum InputData {
    Tm {
        frames: Vec<f32>,
        templc: Vec<f32>,
        denom_a: f32,
        truths: Vec<(usize, usize)>,
    },
    Piv(PivScenario),
    Bp(CtScenario),
}

const CPU_THREADS: usize = 2;

impl Input {
    /// Synthesize inputs for `problem` from `seed` and compute the CPU
    /// reference. The same seed gives the same bytes.
    ///
    /// A sparse PIV window or a low-contrast template can make the
    /// planted truth unrecoverable even for the CPU reference; such a
    /// draw tests the synthesizer, not the program, so it is redrawn
    /// (deterministically) until the reference itself finds the truth.
    pub fn generate(problem: Problem, seed: u64) -> Input {
        for attempt in 0..32u64 {
            let input = Input::draw(problem, seed.wrapping_add(attempt << 32));
            let well_posed = input
                .reference
                .iter()
                .enumerate()
                .all(|(f, r)| input.verify(f, r).is_ok());
            if well_posed {
                return input;
            }
        }
        panic!("no well-posed input for {problem:?} from seed {seed}");
    }

    fn draw(problem: Problem, seed: u64) -> Input {
        match problem {
            Problem::Tm(prob) => {
                // One template, embedded at a different seeded offset in
                // each frame (the streaming example's scenario).
                let base = synth::match_scenario(
                    prob.frame_w,
                    prob.frame_h,
                    prob.templ_w,
                    prob.templ_h,
                    prob.shift_w,
                    prob.shift_h,
                    seed,
                );
                let mut rng = StdRng::seed_from_u64(seed ^ 0x6c65_6467);
                let mut frames = Vec::new();
                let mut truths = Vec::new();
                let mut reference = Vec::new();
                for f in 0..prob.frames {
                    let mut frame = synth::textured_image(
                        prob.frame_w,
                        prob.frame_h,
                        seed.wrapping_add(1 + f as u64),
                    );
                    let truth = (
                        rng.gen_range(0..prob.shift_w),
                        rng.gen_range(0..prob.shift_h),
                    );
                    for y in 0..prob.templ_h {
                        for x in 0..prob.templ_w {
                            frame.set(truth.0 + x, truth.1 + y, base.template.at(x, y));
                        }
                    }
                    reference.push(tm::cpu_ncc(&prob, &frame, &base.template, CPU_THREADS));
                    truths.push(truth);
                    frames.extend_from_slice(&frame.data);
                }
                let tmean = base.template.mean();
                let templc: Vec<f32> = base.template.data.iter().map(|v| v - tmean).collect();
                let denom_a = templc.iter().map(|v| v * v).sum();
                Input {
                    problem,
                    data: InputData::Tm {
                        frames,
                        templc,
                        denom_a,
                        truths,
                    },
                    reference,
                }
            }
            Problem::Piv(prob) => {
                let mut rng = StdRng::seed_from_u64(seed ^ 0x0070_6976);
                let r = (prob.offs_w / 2) as i32;
                let flow = (rng.gen_range(-r + 1..r), rng.gen_range(-r + 1..r));
                let scen = synth::piv_scenario(prob.img_w, prob.img_h, flow, seed);
                let reference = vec![piv::cpu_ssd(&prob, &scen, CPU_THREADS)];
                Input {
                    problem,
                    data: InputData::Piv(scen),
                    reference,
                }
            }
            Problem::Bp(prob) => {
                // The phantom is fixed; the seed adds detector noise so
                // the projection bytes differ per seed.
                let mut scen = synth::ct_scenario(prob.n, prob.num_proj, prob.det_u, prob.det_v);
                let mut rng = StdRng::seed_from_u64(seed ^ 0x6270);
                for v in &mut scen.projections {
                    *v += rng.gen_range(-0.02f32..0.02);
                }
                let reference = vec![backproj::cpu_backproject(&prob, &scen, CPU_THREADS)];
                Input {
                    problem,
                    data: InputData::Bp(scen),
                    reference,
                }
            }
        }
    }

    /// Feed every generated input byte to `h` (the `--check` mode proves
    /// a different seed changes them).
    pub fn hash_into(&self, h: &mut StableHasher) {
        let mut feed = |vals: &[f32]| {
            for v in vals {
                h.f32_bits(*v);
            }
        };
        match &self.data {
            InputData::Tm { frames, templc, .. } => {
                feed(frames);
                feed(templc);
            }
            InputData::Piv(s) => {
                feed(&s.a.data);
                feed(&s.b.data);
            }
            InputData::Bp(s) => feed(&s.projections),
        }
    }

    /// Compare a pipeline's output for `frame` against the CPU reference
    /// (and, for template matching and PIV, against the planted truth).
    fn verify(&self, frame: usize, got: &[f32]) -> Result<(), String> {
        let want = &self.reference[frame % self.reference.len()];
        if got.len() != want.len() {
            return Err(format!("output length {} != {}", got.len(), want.len()));
        }
        // The tolerances of the ks-apps tests: NCC within 2e-3 absolute;
        // SSD scores and voxels within 1e-3 of max(|reference|, 1).
        let tolerance = |c: f32| match self.problem {
            Problem::Tm(_) => 2e-3,
            Problem::Piv(_) | Problem::Bp(_) => 1e-3 * c.abs().max(1.0),
        };
        for (i, (g, c)) in got.iter().zip(want).enumerate() {
            // False for a NaN, so a NaN fails.
            let within = (g - c).abs() <= tolerance(*c);
            if !within {
                return Err(format!("output[{i}]: gpu {g} vs cpu {c}"));
            }
        }
        match (&self.problem, &self.data) {
            (Problem::Tm(prob), InputData::Tm { truths, .. }) => {
                let best = got
                    .iter()
                    .enumerate()
                    .fold(
                        (0, f32::MIN),
                        |b, (i, v)| if *v > b.1 { (i, *v) } else { b },
                    )
                    .0;
                let found = (best % prob.shift_w, best / prob.shift_w);
                let truth = truths[frame % truths.len()];
                if found != truth {
                    return Err(format!("found offset {found:?} != truth {truth:?}"));
                }
            }
            (Problem::Piv(prob), InputData::Piv(scen)) => {
                // Same acceptance as the ks-apps test: a sparse window can
                // legitimately lock onto a neighbouring particle.
                let disp = piv::displacements(prob, got);
                let hits = disp.iter().filter(|d| **d == scen.flow).count();
                if hits * 10 < disp.len() * 7 {
                    return Err(format!(
                        "only {hits}/{} masks recovered flow {:?}",
                        disp.len(),
                        scen.flow
                    ));
                }
            }
            (Problem::Bp(_), InputData::Bp(_)) => {}
            _ => unreachable!("input data always matches its problem"),
        }
        Ok(())
    }
}

/// The specialization `-D` set for `problem` at `imp` — the same names
/// and values the pipeline's module bindings render, for callers that
/// talk to `Compiler` directly (replay spans, store population).
pub fn defines(problem: &Problem, imp: Impl) -> Defines {
    match (problem, imp) {
        (
            Problem::Tm(p),
            Impl::Tm {
                tile_w,
                tile_h,
                threads,
            },
        ) => Defines::new()
            .def("TILE_W", tile_w)
            .def("TILE_H", tile_h)
            .def("SHIFT_W", p.shift_w)
            .def("NUM_TILES", tm_tiles(p, tile_w, tile_h))
            .def("TEMPL_W", p.templ_w)
            .def("TEMPL_H", p.templ_h)
            .def("THREADS", threads),
        (Problem::Piv(p), Impl::Piv { rb, threads }) => Defines::new()
            .def("RB", rb)
            .def("THREADS", threads)
            .def("MASK_W", p.mask_w)
            .def("MASK_H", p.mask_h)
            .def("OFFS_W", p.offs_w),
        (Problem::Bp(p), Impl::Bp { zb }) => Defines::new()
            .def("PPL", p.num_proj)
            .def("ZB", zb)
            .def("VOL_N", p.n),
        _ => panic!("implementation {imp:?} does not belong to {problem:?}"),
    }
}

fn tm_tiles(p: &MatchProblem, tile_w: u32, tile_h: u32) -> u32 {
    assert!(
        (p.templ_w as u32).is_multiple_of(tile_w) && (p.templ_h as u32).is_multiple_of(tile_h),
        "tile {tile_w}x{tile_h} must divide template {}x{}",
        p.templ_w,
        p.templ_h
    );
    (p.templ_w as u32 / tile_w) * (p.templ_h as u32 / tile_h)
}

/// How a pipeline is configured beyond its problem.
#[derive(Clone, Copy)]
pub struct PipelineConfig<'a> {
    pub mode: RefreshMode,
    pub integrity: Option<IntegrityConfig>,
    pub label: Option<&'a str>,
}

impl PipelineConfig<'_> {
    /// Blocking refresh, integrity off, no label.
    pub const PLAIN: PipelineConfig<'static> = PipelineConfig {
        mode: RefreshMode::Blocking,
        integrity: None,
        label: None,
    };
}

/// A kernel argument as the specification records it.
#[derive(Clone, Copy)]
enum SpecArg {
    Mem(ResId),
    Int(ParamId),
    Float(f32),
}

/// One exec action, remembered so a replay span can re-issue the same
/// launch directly to `ks_sim::launch`.
struct ExecSpec {
    kernel: &'static str,
    res: ResId,
    grid: ParamId,
    block: ParamId,
    args: Vec<SpecArg>,
}

/// Specification-phase helper: forwards to the pipeline and keeps the
/// exec list and current triplet values (gpu-pf exposes neither).
struct Spec<'a> {
    p: &'a mut Pipeline,
    module: ResId,
    execs: Vec<ExecSpec>,
    triplets: HashMap<ParamId, [u32; 3]>,
}

impl<'a> Spec<'a> {
    fn new(p: &'a mut Pipeline, source: &str, bindings: Vec<(&str, MacroBinding)>) -> Spec<'a> {
        let module = p.module(source, bindings);
        Spec {
            p,
            module,
            execs: Vec::new(),
            triplets: HashMap::new(),
        }
    }

    fn triplet(&mut self, name: &str, v: [u32; 3]) -> ParamId {
        let id = self.p.triplet_param(name, v);
        self.triplets.insert(id, v);
        id
    }

    fn ints(&mut self, ints: &[(&str, usize)]) -> Vec<SpecArg> {
        ints.iter()
            .map(|(name, v)| SpecArg::Int(self.p.int_param(name, *v as i64)))
            .collect()
    }

    fn exec(&mut self, kernel: &'static str, grid: ParamId, block: ParamId, args: Vec<SpecArg>) {
        let k = self.p.kernel(self.module, kernel);
        let every = self.p.schedule_param("every", 1, 0);
        let pf_args = args
            .iter()
            .map(|a| match *a {
                SpecArg::Mem(r) => Arg::Mem(r),
                SpecArg::Int(id) => Arg::Param(id),
                SpecArg::Float(v) => Arg::Param(self.p.float_param("f", v as f64)),
            })
            .collect();
        self.p.exec(kernel, k, grid, block, None, pf_args, every);
        self.execs.push(ExecSpec {
            kernel,
            res: k,
            grid,
            block,
            args,
        });
    }
}

/// Handles for the parameters an implementation change touches.
enum Knobs {
    Tm {
        tile_w_m: ParamId,
        tile_h_m: ParamId,
        ntiles_m: ParamId,
        threads_m: ParamId,
        a_tile_w: ParamId,
        a_tile_h: ParamId,
        a_tiles_x: ParamId,
        a_ntiles: ParamId,
        g_numer: ParamId,
        g_lin: ParamId,
        blk: ParamId,
    },
    Piv {
        rb_m: ParamId,
        threads_m: ParamId,
        a_rb: ParamId,
        grid: ParamId,
        blk: ParamId,
    },
    Bp {
        zb_m: ParamId,
        a_zb: ParamId,
        grid: ParamId,
    },
}

/// One application pipeline: upload → kernels → download, verified
/// against the CPU reference after every round.
pub struct AppPipeline {
    pub p: Pipeline,
    pub module: ResId,
    problem: Problem,
    knobs: Knobs,
    execs: Vec<ExecSpec>,
    triplets: HashMap<ParamId, [u32; 3]>,
    out: ResId,
    /// Rounds run so far (selects the streamed frame's reference).
    rounds: usize,
}

impl AppPipeline {
    /// Specification phase only: nothing is compiled or allocated until
    /// the caller's first `refresh()`.
    pub fn build(
        compiler: Arc<Compiler>,
        input: &Input,
        imp: Impl,
        cfg: PipelineConfig<'_>,
    ) -> AppPipeline {
        let mut p = Pipeline::new(compiler, heap_bytes(&input.problem));
        p.set_refresh_mode(cfg.mode);
        p.set_integrity(cfg.integrity);
        if let Some(label) = cfg.label {
            p.set_label(label);
        }
        let (spec, knobs, out) = match (&input.problem, &input.data) {
            (
                Problem::Tm(prob),
                InputData::Tm {
                    frames,
                    templc,
                    denom_a,
                    ..
                },
            ) => spec_tm(&mut p, prob, frames, templc, *denom_a),
            (Problem::Piv(prob), InputData::Piv(scen)) => spec_piv(&mut p, prob, scen),
            (Problem::Bp(prob), InputData::Bp(scen)) => spec_bp(&mut p, prob, scen),
            _ => unreachable!("input data always matches its problem"),
        };
        let Spec {
            module,
            execs,
            triplets,
            ..
        } = spec;
        let mut app = AppPipeline {
            p,
            module,
            problem: input.problem,
            knobs,
            execs,
            triplets,
            out,
            rounds: 0,
        };
        app.set_macros(imp);
        app.set_geometry(imp);
        app
    }

    pub fn app(&self) -> App {
        self.problem.app()
    }

    /// The binary the module currently serves (after a refresh).
    pub fn binary(&self) -> Arc<Binary> {
        self.p.kernel_binary(self.execs[0].res).clone()
    }

    fn set_triplet(&mut self, id: ParamId, v: [u32; 3]) {
        self.p.set_triplet(id, v);
        self.triplets.insert(id, v);
    }

    /// Set the specialization macros for `imp` (dirties the module; takes
    /// effect at the next `refresh()`).
    pub fn set_macros(&mut self, imp: Impl) {
        match (&self.knobs, imp, &self.problem) {
            (
                Knobs::Tm {
                    tile_w_m,
                    tile_h_m,
                    ntiles_m,
                    threads_m,
                    ..
                },
                Impl::Tm {
                    tile_w,
                    tile_h,
                    threads,
                },
                Problem::Tm(prob),
            ) => {
                self.p.set_int(*tile_w_m, tile_w as i64);
                self.p.set_int(*tile_h_m, tile_h as i64);
                self.p
                    .set_int(*ntiles_m, tm_tiles(prob, tile_w, tile_h) as i64);
                self.p.set_int(*threads_m, threads as i64);
            }
            (
                Knobs::Piv {
                    rb_m, threads_m, ..
                },
                Impl::Piv { rb, threads },
                _,
            ) => {
                self.p.set_int(*rb_m, rb as i64);
                self.p.set_int(*threads_m, threads as i64);
            }
            (Knobs::Bp { zb_m, .. }, Impl::Bp { zb }, _) => self.p.set_int(*zb_m, zb as i64),
            _ => panic!(
                "implementation {imp:?} does not belong to {:?}",
                self.problem
            ),
        }
    }

    /// Set launch dimensions and run-time arguments for `imp`. No module
    /// depends on these, so the following `refresh()` compiles nothing.
    pub fn set_geometry(&mut self, imp: Impl) {
        match (&self.knobs, imp, &self.problem) {
            (
                &Knobs::Tm {
                    a_tile_w,
                    a_tile_h,
                    a_tiles_x,
                    a_ntiles,
                    g_numer,
                    g_lin,
                    blk,
                    ..
                },
                Impl::Tm {
                    tile_w,
                    tile_h,
                    threads,
                },
                &Problem::Tm(prob),
            ) => {
                let tiles = tm_tiles(&prob, tile_w, tile_h);
                let oblocks = (prob.num_offsets() as u32).div_ceil(threads);
                self.p.set_int(a_tile_w, tile_w as i64);
                self.p.set_int(a_tile_h, tile_h as i64);
                self.p
                    .set_int(a_tiles_x, (prob.templ_w as u32 / tile_w) as i64);
                self.p.set_int(a_ntiles, tiles as i64);
                self.set_triplet(g_numer, [oblocks, tiles, 1]);
                self.set_triplet(g_lin, [oblocks, 1, 1]);
                self.set_triplet(blk, [threads, 1, 1]);
            }
            (
                &Knobs::Piv {
                    a_rb, grid, blk, ..
                },
                Impl::Piv { rb, threads },
                &Problem::Piv(prob),
            ) => {
                self.p.set_int(a_rb, rb as i64);
                self.set_triplet(
                    grid,
                    [
                        prob.num_masks() as u32,
                        (prob.num_offsets() as u32).div_ceil(rb),
                        1,
                    ],
                );
                self.set_triplet(blk, [threads, 1, 1]);
            }
            (&Knobs::Bp { a_zb, grid, .. }, Impl::Bp { zb }, &Problem::Bp(prob)) => {
                let n = prob.n as u32;
                self.p.set_int(a_zb, zb as i64);
                self.set_triplet(
                    grid,
                    [n.div_ceil(BP_BLOCK), n.div_ceil(BP_BLOCK), n.div_ceil(zb)],
                );
            }
            _ => panic!(
                "implementation {imp:?} does not belong to {:?}",
                self.problem
            ),
        }
    }

    /// `Pipeline::run(1)`. Launch reports of the round stay in
    /// `p.reports` until the caller clears them.
    pub fn run(&mut self) -> Result<(), String> {
        self.p.run(1).map_err(|e| e.to_string())
    }

    /// Compare the output the last `run` downloaded with the CPU
    /// reference for its frame.
    pub fn verify(&mut self, input: &Input) -> Result<(), String> {
        let frame = self.rounds;
        self.rounds += 1;
        input.verify(frame, &self.p.host_f32(self.out))
    }

    /// One verified round.
    pub fn round(&mut self, input: &Input) -> Result<(), String> {
        self.run()?;
        self.verify(input)
    }

    /// The launches one round makes under the current geometry, in
    /// order: kernel, dimensions, resolved arguments.
    pub fn launches(&self) -> Vec<(&'static str, LaunchDims, Vec<KArg>)> {
        let dim = |id: &ParamId| {
            let [x, y, z] = self.triplets[id];
            (x, y, z)
        };
        self.execs
            .iter()
            .map(|e| {
                let args = e
                    .args
                    .iter()
                    .map(|a| match *a {
                        SpecArg::Mem(r) => KArg::Ptr(self.p.device_addr(r)),
                        SpecArg::Int(id) => KArg::I32(self.p.int_value(id) as i32),
                        SpecArg::Float(v) => KArg::F32(v),
                    })
                    .collect();
                let dims = LaunchDims {
                    grid: dim(&e.grid),
                    block: dim(&e.block),
                    dynamic_shared: 0,
                };
                (e.kernel, dims, args)
            })
            .collect()
    }
}

fn heap_bytes(problem: &Problem) -> u64 {
    let elems = match problem {
        Problem::Tm(p) => {
            p.frame_w * p.frame_h * p.frames
                + p.templ_w * p.templ_h * (1 + p.num_offsets())
                + 4 * p.num_offsets()
        }
        Problem::Piv(p) => 2 * p.img_w * p.img_h + p.num_masks() * p.num_offsets(),
        Problem::Bp(p) => p.num_proj * p.det_u * p.det_v + p.n * p.n * p.n,
    };
    // 256-byte allocation alignment on up to eight buffers, plus slack.
    (elems as u64 * 4 + 8 * 256)
        .next_power_of_two()
        .max(1 << 16)
}

/// The four-kernel frame pipeline of `examples/template_matching.rs`:
/// numerator tiles → tiled summation → window statistics → normalize,
/// with frames streaming through a moving subset window.
fn spec_tm<'a>(
    p: &'a mut Pipeline,
    prob: &MatchProblem,
    frames: &[f32],
    templc: &[f32],
    denom_a: f32,
) -> (Spec<'a>, Knobs, ResId) {
    let num_offsets = prob.num_offsets() as u32;
    let frame_px = prob.frame_w * prob.frame_h;
    let templ_px = (prob.templ_w * prob.templ_h) as u32;

    let tile_w_m = p.int_param("TILE_W", 1);
    let tile_h_m = p.int_param("TILE_H", 1);
    let ntiles_m = p.int_param("NUM_TILES", 1);
    let threads_m = p.int_param("THREADS", 32);
    let mut s = Spec::new(
        p,
        tm::KERNELS,
        vec![
            ("TILE_W", MacroBinding::Param(tile_w_m)),
            ("TILE_H", MacroBinding::Param(tile_h_m)),
            ("SHIFT_W", MacroBinding::Literal(prob.shift_w.to_string())),
            ("NUM_TILES", MacroBinding::Param(ntiles_m)),
            ("TEMPL_W", MacroBinding::Literal(prob.templ_w.to_string())),
            ("TEMPL_H", MacroBinding::Literal(prob.templ_h.to_string())),
            ("THREADS", MacroBinding::Param(threads_m)),
        ],
    );

    let frames_ext =
        s.p.extent_param("frames", [(frame_px * prob.frames) as u32, 1, 1], 4);
    let templ_ext = s.p.extent_param("templc", [templ_px, 1, 1], 4);
    // Sized for the finest tiling (1×1 tiles) so re-tiling never reallocates.
    let partial_ext =
        s.p.extent_param("partial", [templ_px * num_offsets, 1, 1], 4);
    let offs_ext = s.p.extent_param("offsets", [num_offsets, 1, 1], 4);
    let host_frames = s.p.host_memory(frames_ext);
    let dev_frames = s.p.global_memory(frames_ext);
    let host_templ = s.p.host_memory(templ_ext);
    let dev_templ = s.p.global_memory(templ_ext);
    let dev_partial = s.p.global_memory(partial_ext);
    let dev_numer = s.p.global_memory(offs_ext);
    let dev_sums = s.p.global_memory(offs_ext);
    let dev_sumsq = s.p.global_memory(offs_ext);
    let dev_ncc = s.p.global_memory(offs_ext);
    let host_ncc = s.p.host_memory(offs_ext);
    let window = s.p.subset_param(
        "frame-window",
        0,
        frame_px as u64,
        frame_px as i64,
        prob.frames as u64,
    );
    let dev_frame = s.p.subset(dev_frames, window);
    let once = s.p.schedule_param("once", u64::MAX >> 1, 0);
    let every = s.p.schedule_param("every", 1, 0);

    let fixed = s.ints(&[
        ("frameW", prob.frame_w),
        ("shiftW", prob.shift_w),
        ("numOffsets", num_offsets as usize),
        ("templW", prob.templ_w),
        ("templH", prob.templ_h),
        ("zero", 0),
    ]);
    let [frame_w, shift_w, noffs, templ_w, templ_h, zero] = fixed[..] else {
        unreachable!()
    };
    let a_tile_w = s.p.int_param("tileW", 1);
    let a_tile_h = s.p.int_param("tileH", 1);
    let a_tiles_x = s.p.int_param("tilesX", 1);
    let a_ntiles = s.p.int_param("numTiles", 1);
    let g_numer = s.triplet("g-numer", [1, 1, 1]);
    let g_lin = s.triplet("g-lin", [1, 1, 1]);
    let g_stats = s.triplet("g-stats", [num_offsets, 1, 1]);
    let blk = s.triplet("block", [32, 1, 1]);

    s.p.copy("upload frames", host_frames, dev_frames, once);
    s.p.copy("upload template", host_templ, dev_templ, once);
    s.exec(
        "numerator_tiles",
        g_numer,
        blk,
        vec![
            SpecArg::Mem(dev_frame),
            SpecArg::Mem(dev_templ),
            SpecArg::Mem(dev_partial),
            frame_w,
            shift_w,
            noffs,
            templ_w,
            SpecArg::Int(a_tile_w),
            SpecArg::Int(a_tile_h),
            SpecArg::Int(a_tiles_x),
            zero,
            zero,
            zero,
        ],
    );
    s.exec(
        "sum_partials",
        g_lin,
        blk,
        vec![
            SpecArg::Mem(dev_partial),
            SpecArg::Mem(dev_numer),
            SpecArg::Int(a_ntiles),
            noffs,
        ],
    );
    s.exec(
        "window_stats",
        g_stats,
        blk,
        vec![
            SpecArg::Mem(dev_frame),
            SpecArg::Mem(dev_sums),
            SpecArg::Mem(dev_sumsq),
            frame_w,
            shift_w,
            noffs,
            templ_w,
            templ_h,
        ],
    );
    s.exec(
        "normalize",
        g_lin,
        blk,
        vec![
            SpecArg::Mem(dev_numer),
            SpecArg::Mem(dev_sums),
            SpecArg::Mem(dev_sumsq),
            SpecArg::Mem(dev_ncc),
            noffs,
            SpecArg::Float(1.0 / templ_px as f32),
            SpecArg::Float(denom_a),
        ],
    );
    s.p.copy("download ncc", dev_ncc, host_ncc, every);
    s.p.set_host_f32(host_frames, frames);
    s.p.set_host_f32(host_templ, templc);
    let knobs = Knobs::Tm {
        tile_w_m,
        tile_h_m,
        ntiles_m,
        threads_m,
        a_tile_w,
        a_tile_h,
        a_tiles_x,
        a_ntiles,
        g_numer,
        g_lin,
        blk,
    };
    (s, knobs, host_ncc)
}

/// PIV SSD correlation (`piv_ssd`): upload the image pair, one launch,
/// download the score table.
fn spec_piv<'a>(
    p: &'a mut Pipeline,
    prob: &PivProblem,
    scen: &PivScenario,
) -> (Spec<'a>, Knobs, ResId) {
    let num_offsets = prob.num_offsets() as u32;
    let num_masks = prob.num_masks() as u32;
    let rb_m = p.int_param("RB", 1);
    let threads_m = p.int_param("THREADS", 32);
    let mut s = Spec::new(
        p,
        piv::KERNELS,
        vec![
            ("RB", MacroBinding::Param(rb_m)),
            ("THREADS", MacroBinding::Param(threads_m)),
            ("MASK_W", MacroBinding::Literal(prob.mask_w.to_string())),
            ("MASK_H", MacroBinding::Literal(prob.mask_h.to_string())),
            ("OFFS_W", MacroBinding::Literal(prob.offs_w.to_string())),
        ],
    );
    let img_ext =
        s.p.extent_param("img", [(prob.img_w * prob.img_h) as u32, 1, 1], 4);
    let sc_ext =
        s.p.extent_param("scores", [num_masks * num_offsets, 1, 1], 4);
    let h_a = s.p.host_memory(img_ext);
    let h_b = s.p.host_memory(img_ext);
    let d_a = s.p.global_memory(img_ext);
    let d_b = s.p.global_memory(img_ext);
    let d_sc = s.p.global_memory(sc_ext);
    let h_sc = s.p.host_memory(sc_ext);
    let grid = s.triplet("grid", [num_masks, num_offsets, 1]);
    let blk = s.triplet("block", [32, 1, 1]);
    let every = s.p.schedule_param("every", 1, 0);
    let (masks_x, _) = prob.mask_grid();
    let mut args = vec![SpecArg::Mem(d_a), SpecArg::Mem(d_b), SpecArg::Mem(d_sc)];
    args.extend(s.ints(&[
        ("imgW", prob.img_w),
        ("maskW", prob.mask_w),
        ("maskH", prob.mask_h),
        ("offsW", prob.offs_w),
        ("numOffsets", num_offsets as usize),
        ("masksX", masks_x),
        ("stepX", prob.step_x),
        ("stepY", prob.step_y),
        ("marginX", prob.offs_w / 2),
        ("marginY", prob.offs_h / 2),
    ]));
    let a_rb = s.p.int_param("rb", 1);
    args.push(SpecArg::Int(a_rb));
    s.p.copy("h2d-a", h_a, d_a, every);
    s.p.copy("h2d-b", h_b, d_b, every);
    s.exec("piv_ssd", grid, blk, args);
    s.p.copy("d2h", d_sc, h_sc, every);
    s.p.set_host_f32(h_a, &scen.a.data);
    s.p.set_host_f32(h_b, &scen.b.data);
    let knobs = Knobs::Piv {
        rb_m,
        threads_m,
        a_rb,
        grid,
        blk,
    };
    (s, knobs, h_sc)
}

/// Cone-beam backprojection (`backproject`): the whole scan in one
/// launch (`PPL == num_proj`), projection geometry in constant memory,
/// the volume zeroed before every round because the kernel accumulates.
fn spec_bp<'a>(
    p: &'a mut Pipeline,
    prob: &BackprojProblem,
    scen: &CtScenario,
) -> (Spec<'a>, Knobs, ResId) {
    let n = prob.n as u32;
    let ppl = prob.num_proj as u32;
    let zb_m = p.int_param("ZB", 1);
    let mut s = Spec::new(
        p,
        backproj::KERNELS,
        vec![
            ("PPL", MacroBinding::Literal(ppl.to_string())),
            ("ZB", MacroBinding::Param(zb_m)),
            ("VOL_N", MacroBinding::Literal(n.to_string())),
        ],
    );
    let c_geo = s.p.constant_memory(s.module, "projGeo");
    let proj_ext =
        s.p.extent_param("proj", [ppl * (prob.det_u * prob.det_v) as u32, 1, 1], 4);
    let vol_ext = s.p.extent_param("vol", [n * n * n, 1, 1], 4);
    let geo_ext = s.p.extent_param("geo", [ppl * 2, 1, 1], 4);
    let h_proj = s.p.host_memory(proj_ext);
    let d_proj = s.p.global_memory(proj_ext);
    let h_zero = s.p.host_memory(vol_ext);
    let d_vol = s.p.global_memory(vol_ext);
    let h_vol = s.p.host_memory(vol_ext);
    let h_geo = s.p.host_memory(geo_ext);
    let grid = s.triplet("grid", [n.div_ceil(BP_BLOCK), n.div_ceil(BP_BLOCK), n]);
    let blk = s.triplet("block", [BP_BLOCK, BP_BLOCK, 1]);
    let every = s.p.schedule_param("every", 1, 0);
    let mut args = vec![SpecArg::Mem(d_proj), SpecArg::Mem(d_vol)];
    args.extend(s.ints(&[
        ("volN", prob.n),
        ("detU", prob.det_u),
        ("detV", prob.det_v),
        ("ppl", prob.num_proj),
    ]));
    let a_zb = s.p.int_param("zb", 1);
    args.push(SpecArg::Int(a_zb));
    args.extend(s.ints(&[("z0", 0)]));
    args.extend(
        [
            scen.geo.sid,
            scen.geo.sdd,
            n as f32 / 2.0,
            prob.det_u as f32 / 2.0,
            prob.det_v as f32 / 2.0,
        ]
        .map(SpecArg::Float),
    );
    s.p.copy("geo2const", h_geo, c_geo, every);
    s.p.copy("h2d", h_proj, d_proj, every);
    s.p.copy("zero volume", h_zero, d_vol, every);
    s.exec("backproject", grid, blk, args);
    s.p.copy("d2h", d_vol, h_vol, every);
    let geo: Vec<f32> = (0..ppl)
        .flat_map(|pi| {
            let theta = pi as f32 * std::f32::consts::PI * 2.0 / ppl as f32;
            [theta.cos(), theta.sin()]
        })
        .collect();
    s.p.set_host_f32(h_proj, &scen.projections);
    s.p.set_host_f32(h_geo, &geo);
    let knobs = Knobs::Bp { zb_m, a_zb, grid };
    (s, knobs, h_vol)
}
