//! # ks-bench — the evaluation harness
//!
//! One binary, `ks-bench <id>… | all`, over the table of the
//! dissertation's Chapter 6 experiments in [`experiments::ALL`] (see
//! DESIGN.md's per-experiment index). Shared here: the run context
//! [`Ctx`], the problem sets and grids (Tables 6.1–6.9), the one search
//! over configurations (`Sweep`), and table formatting with CSV output.
//!
//! Every number ks-bench prints is simulated, except the CPU baselines of
//! Tables 6.10 and 6.12. Host-side costs (compile, cache, store, refresh,
//! first launch) are measured by `ks-ledger` (`benchmark/`).

pub mod experiments;

use ks_apps::backproj::{self, BackprojImpl, BackprojProblem};
use ks_apps::piv::{self, PivImpl, PivKernel, PivProblem};
use ks_apps::synth::{self, CtScenario, MatchScenario, PivScenario};
use ks_apps::template_match::{self, MatchImpl, MatchProblem};
use ks_apps::{GpuRunResult, Variant};
use ks_codegen::CodegenOptions;
use ks_core::{Compiler, Defines};
use ks_opt::OptConfig;
use ks_sim::DeviceConfig;
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt::{Debug, Display};
use std::path::{Path, PathBuf};

/// The two simulated devices of the dissertation's testbed.
fn devices() -> Vec<DeviceConfig> {
    DeviceConfig::presets()
}

/// What every experiment is given, parsed once by the driver.
pub struct Ctx {
    /// Reduced problem sizes (`--quick`); full sizes are the canonical
    /// numbers.
    pub quick: bool,
    /// Persistent artifact store every compiler attaches (`--store DIR`),
    /// so compiled binaries survive process restarts.
    pub store: Option<PathBuf>,
    /// Where each table lands as `<name>.csv` (`--out-dir DIR`).
    pub out_dir: PathBuf,
}

impl Ctx {
    /// Every compiler an experiment uses: the given (codegen, optimizer)
    /// passes — `Default::default()` for the shipped pipeline —
    /// store-backed when `--store` is set.
    fn compiler(&self, dev: DeviceConfig, (codegen, opt): (CodegenOptions, OptConfig)) -> Compiler {
        let c = Compiler::with_passes(dev, codegen, opt);
        match &self.store {
            Some(dir) => c
                .with_store(dir)
                .unwrap_or_else(|e| panic!("ks-bench: cannot open store {}: {e}", dir.display())),
            None => c,
        }
    }

    fn pick<T>(&self, full: T, quick: T) -> T {
        if self.quick {
            quick
        } else {
            full
        }
    }

    /// Template-matching patients (Table 5.1), optionally shrunk.
    fn match_patients(&self) -> Vec<(&'static str, MatchProblem)> {
        let mut p = ks_apps::template_match::patients();
        if self.quick {
            p.truncate(2);
            for (_, prob) in &mut p {
                prob.frames = 4;
            }
        }
        p
    }

    /// The PIV "FPGA benchmark set" (Tables 6.2/6.3): window/image dims
    /// and the resulting mask/offset counts.
    fn piv_fpga_sets(&self) -> Vec<(String, PivProblem)> {
        [
            ("V1", PivProblem::standard(256, 16, 50, 4)),
            ("V2", PivProblem::standard(512, 32, 50, 8)),
            ("V3", PivProblem::standard(512, 64, 50, 8)),
            ("V4", PivProblem::standard(1024, 32, 75, 12)),
            ("V5", PivProblem::standard(1024, 64, 50, 16)),
        ]
        .into_iter()
        .take(self.pick(5, 2))
        .map(|(n, p)| (n.to_string(), p))
        .collect()
    }

    /// Mask-size sweep (Table 6.4).
    fn piv_mask_sets(&self) -> Vec<(String, PivProblem)> {
        self.pick(&[16, 24, 32, 48, 64][..], &[16, 32])
            .iter()
            .map(|&m| (format!("{m}x{m}"), PivProblem::standard(512, m, 50, 8)))
            .collect()
    }

    /// Search-offset sweep (Table 6.5).
    fn piv_search_sets(&self) -> Vec<(String, PivProblem)> {
        self.pick(&[2, 4, 6, 8, 12][..], &[4, 8])
            .iter()
            .map(|&r| {
                (
                    format!("{0}x{0}", 2 * r + 1),
                    PivProblem::standard(512, 32, 50, r),
                )
            })
            .collect()
    }

    /// Overlap sweep (Table 6.6).
    fn piv_overlap_sets(&self) -> Vec<(String, PivProblem)> {
        self.pick(&[0, 25, 50, 75][..], &[0, 50])
            .iter()
            .map(|&o| (format!("{o}%"), PivProblem::standard(512, 32, o, 8)))
            .collect()
    }

    /// The cone-beam problem (Tables 6.8, 6.12, 6.19).
    fn backproj_problem(&self) -> BackprojProblem {
        let (n, num_proj, det) = self.pick((64, 32, 96), (32, 16, 48));
        BackprojProblem {
            n,
            num_proj,
            det_u: det,
            det_v: det,
        }
    }

    /// Implementation parameter grids (Tables 6.1 / 6.7).
    fn match_tile_options(&self) -> Vec<(u32, u32)> {
        self.pick(
            vec![(8, 8), (8, 16), (16, 8), (16, 16), (16, 32), (32, 16)],
            vec![(8, 8), (16, 16)],
        )
    }

    fn thread_options(&self) -> Vec<u32> {
        self.pick(vec![64, 128, 256], vec![64, 128])
    }

    fn piv_rb_options(&self) -> Vec<u32> {
        self.pick(vec![1, 2, 4, 6, 8], vec![2, 4])
    }

    fn piv_thread_options(&self) -> Vec<u32> {
        self.pick(vec![32, 64, 128, 256], vec![64, 128])
    }

    /// The template-matching sweep grid: tile × threads.
    pub(crate) fn match_grid(&self) -> Vec<MatchImpl> {
        let threads = self.thread_options();
        self.match_tile_options()
            .into_iter()
            .flat_map(|(tile_w, tile_h)| {
                threads.iter().map(move |&threads| MatchImpl {
                    tile_w,
                    tile_h,
                    threads,
                })
            })
            .collect()
    }

    /// The PIV sweep grid: RB × threads.
    pub(crate) fn piv_grid(&self) -> Vec<PivImpl> {
        let threads = self.piv_thread_options();
        let rbs = self.piv_rb_options().into_iter();
        rbs.flat_map(|rb| threads.iter().map(move |&threads| PivImpl { rb, threads }))
            .collect()
    }
}

// ---------------------------------------------------------------- tables

/// An aligned ASCII table on stdout that also lands in
/// `<out_dir>/<name>.csv`.
struct Table {
    name: String,
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    fn new<S: AsRef<str>>(name: &str, title: &str, headers: &[S]) -> Table {
        Table {
            name: name.to_string(),
            title: title.to_string(),
            headers: headers.iter().map(|s| s.as_ref().to_string()).collect(),
            rows: Vec::new(),
        }
    }

    fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Print the table and write `<out_dir>/<name>.csv`. Returns the CSV
    /// path.
    fn finish(&self, out_dir: &Path) -> PathBuf {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        println!("\n=== {} ===", self.title);
        let line = |cells: &[String]| {
            let padded: Vec<String> = cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
                .collect();
            println!("| {} |", padded.join(" | "));
        };
        line(&self.headers);
        println!(
            "|{}|",
            widths
                .iter()
                .map(|w| "-".repeat(w + 2))
                .collect::<Vec<_>>()
                .join("|")
        );
        for r in &self.rows {
            line(r);
        }
        let esc = |s: &String| {
            if s.contains(',') {
                format!("\"{s}\"")
            } else {
                s.clone()
            }
        };
        let mut csv = String::new();
        for r in std::iter::once(&self.headers).chain(&self.rows) {
            csv += &r.iter().map(esc).collect::<Vec<_>>().join(",");
            csv.push('\n');
        }
        let _ = std::fs::create_dir_all(out_dir);
        let path = out_dir.join(format!("{}.csv", self.name));
        std::fs::write(&path, csv).expect("write csv");
        println!("[csv] {}", path.display());
        path
    }
}

fn fmt_ms(v: f64) -> String {
    if v >= 100.0 {
        format!("{v:.1}")
    } else if v >= 1.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.4}")
    }
}

fn fmt<T: Display>(v: T) -> String {
    v.to_string()
}

/// Wall-clock a closure (best of `reps`), in milliseconds.
fn time_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let t0 = std::time::Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    best
}

// ---------------------------------------------------------- sweep engine

/// Measurement of one (problem, configuration) point.
#[derive(Debug, Clone, Copy, Default)]
struct Sample {
    pub sim_ms: f64,
    pub regs: u32,
    pub occupancy: f64,
    pub active_warps: u32,
    pub blocks_per_sm: u32,
    pub local_bytes: u32,
    pub shared_bytes: u32,
}

/// One timing-only run of `imp` as a [`Sample`]. Configurations that
/// exceed device limits are legal sweep points with infinite cost
/// (exactly what happens on real hardware: the launch fails).
fn sample(run: Result<GpuRunResult, Box<dyn Error>>, imp: &impl Debug) -> Sample {
    match run {
        Ok(run) => {
            let rep = &run.reports[0];
            Sample {
                sim_ms: run.sim_ms,
                regs: run.regs_per_thread(),
                occupancy: rep.occupancy.occupancy,
                active_warps: rep.occupancy.active_warps,
                blocks_per_sm: rep.occupancy.blocks_per_sm,
                local_bytes: rep.local_bytes_per_thread,
                shared_bytes: rep.shared_per_block,
            }
        }
        Err(e) if e.to_string().contains("infeasible") => Sample {
            sim_ms: f64::INFINITY,
            ..Default::default()
        },
        Err(e) => panic!("sweep point {imp:?}: {e}"),
    }
}

/// The grid point with the lowest time; the first one on a tie.
fn best_of<I: Copy>(grid: &[I], mut eval: impl FnMut(&I) -> Sample) -> (I, Sample) {
    let mut best: Option<(I, Sample)> = None;
    for imp in grid {
        let s = eval(imp);
        if best.as_ref().is_none_or(|(_, b)| s.sim_ms < b.sim_ms) {
            best = Some((*imp, s));
        }
    }
    best.unwrap()
}

/// One application's part of a [`Sweep`], implemented by the synthetic
/// input its problems run on: measure one configuration point on it, and
/// the defines that point compiles.
pub(crate) trait App {
    /// What a point is compiled and run as: RE or SK, and for PIV the
    /// kernel flavour.
    type Variant: Copy + Ord;
    type Problem: Copy + Ord;
    /// A configuration point (implementation parameters).
    type Imp: Copy + Ord + Debug;
    /// The source every point compiles.
    const KERNELS: &'static str;
    /// The input `p` runs on.
    fn generate(p: &Self::Problem) -> Self;
    fn defines(v: Self::Variant, p: &Self::Problem, imp: &Self::Imp) -> Vec<Defines>;
    fn eval(&self, c: &Compiler, v: Self::Variant, p: &Self::Problem, i: &Self::Imp) -> Sample;
}

/// Template matching over (tile × threads).
impl App for MatchScenario {
    type Variant = Variant;
    type Problem = MatchProblem;
    type Imp = MatchImpl;
    const KERNELS: &'static str = template_match::KERNELS;
    fn generate(p: &MatchProblem) -> MatchScenario {
        let (fw, fh, tw, th) = (p.frame_w, p.frame_h, p.templ_w, p.templ_h);
        synth::match_scenario(fw, fh, tw, th, p.shift_w, p.shift_h, 1234)
    }
    fn defines(v: Variant, p: &MatchProblem, imp: &MatchImpl) -> Vec<Defines> {
        template_match::specializations(v, p, imp)
    }
    fn eval(&self, c: &Compiler, v: Variant, p: &MatchProblem, i: &MatchImpl) -> Sample {
        let run = template_match::run_gpu(c, v, p, i, self, false);
        sample(run.map(|o| o.run), i)
    }
}

/// PIV over (RB × threads), per kernel flavour.
impl App for PivScenario {
    type Variant = (Variant, PivKernel);
    type Problem = PivProblem;
    type Imp = PivImpl;
    const KERNELS: &'static str = piv::KERNELS;
    fn generate(p: &PivProblem) -> PivScenario {
        synth::piv_scenario(p.img_w, p.img_h, (3, 1), 77)
    }
    fn defines((v, _): (Variant, PivKernel), p: &PivProblem, imp: &PivImpl) -> Vec<Defines> {
        vec![piv::specialization(v, p, imp)]
    }
    fn eval(&self, c: &Compiler, (v, k): Self::Variant, p: &PivProblem, i: &PivImpl) -> Sample {
        sample(piv::run_gpu(c, v, k, p, i, self, false).map(|o| o.run), i)
    }
}

/// Cone-beam backprojection over (block × PPL × ZB).
impl App for CtScenario {
    type Variant = Variant;
    type Problem = BackprojProblem;
    type Imp = BackprojImpl;
    const KERNELS: &'static str = backproj::KERNELS;
    fn generate(p: &BackprojProblem) -> CtScenario {
        eprintln!(
            "[gen] forward projecting {}^3 phantom, {} views...",
            p.n, p.num_proj
        );
        synth::ct_scenario(p.n, p.num_proj, p.det_u, p.det_v)
    }
    fn defines(v: Variant, p: &BackprojProblem, imp: &BackprojImpl) -> Vec<Defines> {
        vec![backproj::specialization(v, p, imp)]
    }
    fn eval(&self, c: &Compiler, v: Variant, p: &BackprojProblem, i: &BackprojImpl) -> Sample {
        sample(backproj::run_gpu(c, v, p, i, self, false).map(|o| o.run), i)
    }
}

/// The one configuration search: a memoizing evaluator over one
/// device's compiler, and the grid [`Sweep::best`] searches.
pub(crate) struct Sweep<A: App> {
    compiler: Compiler,
    /// The configurations `best` searches, in tie-break order.
    grid: Vec<A::Imp>,
    scenarios: BTreeMap<A::Problem, A>,
    cache: BTreeMap<Point<A>, Sample>,
}

/// A measured point: (variant, problem, configuration).
type Point<A> = (<A as App>::Variant, <A as App>::Problem, <A as App>::Imp);

impl<A: App> Sweep<A> {
    pub(crate) fn new(ctx: &Ctx, dev: DeviceConfig, grid: Vec<A::Imp>) -> Sweep<A> {
        Sweep {
            compiler: ctx.compiler(dev, Default::default()),
            grid,
            scenarios: BTreeMap::new(),
            cache: BTreeMap::new(),
        }
    }

    /// Simulated cost of one point, on the grid or off it; each point is
    /// measured once.
    pub(crate) fn eval(&mut self, v: A::Variant, p: &A::Problem, imp: &A::Imp) -> Sample {
        *self.cache.entry((v, *p, *imp)).or_insert_with(|| {
            let scen = self.scenarios.entry(*p).or_insert_with(|| A::generate(p));
            scen.eval(&self.compiler, v, p, imp)
        })
    }

    /// Warm the compile cache with every module the grid will need,
    /// fanned out across threads by the batch API (single-flight
    /// collapses identical defines to one compilation). Best-effort:
    /// compile errors resurface when the point is evaluated.
    pub(crate) fn precompile(&self, v: A::Variant, p: &A::Problem) {
        let jobs: Vec<(&str, Defines)> = self
            .grid
            .iter()
            .flat_map(|imp| A::defines(v, p, imp))
            .map(|d| (A::KERNELS, d))
            .collect();
        let _ = self.compiler.compile_batch(&jobs);
    }

    /// The best configuration on the grid.
    pub(crate) fn best(&mut self, v: A::Variant, p: &A::Problem) -> (A::Imp, Sample) {
        self.precompile(v, p);
        best_of(&self.grid.clone(), |imp| self.eval(v, p, imp))
    }
}

/// Render a (threads × rb) relative-performance grid as an ASCII contour
/// (Figures 6.1/6.2). `grid[i][j]` is performance relative to peak in
/// [0, 1]; the peak cell is marked `#`.
fn ascii_contour(
    rows: &[u32],
    cols: &[u32],
    grid: &[Vec<f64>],
    row_label: &str,
    col_label: &str,
) -> String {
    let mut out = String::new();
    let shades = [' ', '.', ':', '-', '=', '+', '*', '%', '@'];
    let peak = grid
        .iter()
        .enumerate()
        .flat_map(|(i, r)| r.iter().enumerate().map(move |(j, v)| (i, j, *v)))
        .max_by(|a, b| a.2.partial_cmp(&b.2).unwrap())
        .map(|(i, j, _)| (i, j))
        .unwrap_or((0, 0));
    out.push_str(&format!("{row_label} \\ {col_label}:"));
    for c in cols {
        out.push_str(&format!("{c:>6}"));
    }
    out.push('\n');
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!("{r:>16}"));
        for (j, v) in grid[i].iter().enumerate() {
            if (i, j) == peak {
                out.push_str("     #");
            } else {
                let idx = ((v * (shades.len() - 1) as f64).round() as usize).min(shades.len() - 1);
                out.push_str(&format!("     {}", shades[idx]));
            }
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[test]
    fn tables_land_only_in_the_out_dir_they_are_given() {
        let base = std::env::temp_dir().join(format!("ks-bench-test-{}", std::process::id()));
        let sent = [("unit_a", base.join("a")), ("unit_b", base.join("b"))];
        std::thread::scope(|s| {
            for (name, dir) in &sent {
                s.spawn(move || {
                    let mut t = Table::new(name, "A test", &["a", "b"]);
                    t.row(vec!["1".into(), "x,y".into()]);
                    t.finish(dir)
                });
            }
        });
        for (name, dir) in &sent {
            let csv = format!("{name}.csv");
            let files: Vec<_> = std::fs::read_dir(dir)
                .unwrap()
                .map(|e| e.unwrap().file_name())
                .collect();
            assert_eq!(files, [csv.as_str()]);
            let text = std::fs::read_to_string(dir.join(&csv)).unwrap();
            assert_eq!(text, "a,b\n1,\"x,y\"\n");
            assert!(!Path::new("bench_results").join(&csv).exists());
        }
        std::fs::remove_dir_all(base).unwrap();
    }

    #[test]
    fn contour_marks_peak() {
        let grid = vec![vec![0.2, 0.5], vec![0.9, 1.0]];
        let s = ascii_contour(&[32, 64], &[1, 2], &grid, "threads", "rb");
        assert!(s.contains('#'));
        assert_eq!(s.matches('#').count(), 1);
    }

    /// A fake application whose point `i` costs `COSTS[p][i]` ms on
    /// problem `p`, counting its evaluations.
    struct Fake;
    const INF: f64 = f64::INFINITY;
    const COSTS: [[f64; 4]; 3] = [[3.0, 1.0, 2.0, 1.0], [INF, 2.0, INF, 2.0], [INF; 4]];
    thread_local!(static EVALS: Cell<usize> = const { Cell::new(0) });

    impl App for Fake {
        type Variant = ();
        type Problem = usize;
        type Imp = usize;
        const KERNELS: &'static str = "";
        fn generate(_: &usize) -> Fake {
            Fake
        }
        fn defines(_: (), _: &usize, _: &usize) -> Vec<Defines> {
            Vec::new()
        }
        fn eval(&self, _: &Compiler, _: (), p: &usize, i: &usize) -> Sample {
            EVALS.with(|n| n.set(n.get() + 1));
            let sim_ms = COSTS[*p][*i];
            Sample {
                sim_ms,
                ..Default::default()
            }
        }
    }

    fn ctx(quick: bool) -> Ctx {
        Ctx {
            quick,
            store: None,
            out_dir: PathBuf::new(),
        }
    }

    fn fake_sweep() -> Sweep<Fake> {
        Sweep::new(&ctx(true), DeviceConfig::tesla_c1060(), (0..4).collect())
    }

    #[test]
    fn a_tie_goes_to_the_first_grid_point() {
        let (imp, s) = fake_sweep().best((), &0);
        assert_eq!((imp, s.sim_ms), (1, 1.0));
    }

    #[test]
    fn an_infeasible_point_never_beats_a_feasible_one() {
        let (imp, s) = fake_sweep().best((), &1);
        assert_eq!((imp, s.sim_ms), (1, 2.0));
    }

    #[test]
    fn an_all_infeasible_grid_returns_its_first_point_at_infinity() {
        let (imp, s) = fake_sweep().best((), &2);
        assert_eq!((imp, s.sim_ms), (0, INF));
    }

    #[test]
    fn repeated_searches_evaluate_each_point_once() {
        let mut sweep = fake_sweep();
        let before = EVALS.with(Cell::get);
        for _ in 0..3 {
            assert_eq!(sweep.best((), &0).0, 1);
        }
        assert_eq!(EVALS.with(Cell::get) - before, 4);
    }

    #[test]
    fn problem_sets_are_wellformed() {
        for quick in [false, true] {
            let ctx = ctx(quick);
            for (_, p) in ctx.piv_fpga_sets() {
                assert!(p.num_masks() > 0, "{p:?}");
                assert!(p.num_offsets() > 0);
            }
            for (_, p) in ctx.match_patients() {
                assert!(p.num_offsets() > 0);
            }
        }
    }
}
