//! # ks-bench — the evaluation harness
//!
//! One binary, `ks-bench <id>… | all`, over the table of the
//! dissertation's Chapter 6 experiments in [`experiments::ALL`] (see
//! DESIGN.md's per-experiment index). Shared here: the run context
//! [`Ctx`], the problem sets (Tables 6.1–6.9), configuration sweep drivers
//! with memoization, and table formatting with CSV output.
//!
//! Every number ks-bench prints is simulated, except the CPU baselines of
//! Tables 6.10 and 6.12. Host-side costs (compile, cache, store, refresh,
//! first launch) are measured by `ks-ledger` (`benchmark/`).

pub mod experiments;

use ks_apps::backproj::BackprojProblem;
use ks_apps::piv::{PivImpl, PivKernel, PivProblem};
use ks_apps::template_match::{MatchImpl, MatchProblem};
use ks_apps::{synth, GpuRunResult, Variant};
use ks_codegen::CodegenOptions;
use ks_core::{Compiler, Defines};
use ks_opt::OptConfig;
use ks_sim::DeviceConfig;
use std::collections::BTreeMap;
use std::fmt::Display;
use std::path::{Path, PathBuf};

/// The two simulated devices of the dissertation's testbed.
pub fn devices() -> Vec<DeviceConfig> {
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
    pub fn compiler(
        &self,
        dev: DeviceConfig,
        (codegen, opt): (CodegenOptions, OptConfig),
    ) -> Compiler {
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
    pub fn match_patients(&self) -> Vec<(&'static str, MatchProblem)> {
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
    pub fn piv_fpga_sets(&self) -> Vec<(String, PivProblem)> {
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
    pub fn piv_mask_sets(&self) -> Vec<(String, PivProblem)> {
        self.pick(&[16, 24, 32, 48, 64][..], &[16, 32])
            .iter()
            .map(|&m| (format!("{m}x{m}"), PivProblem::standard(512, m, 50, 8)))
            .collect()
    }

    /// Search-offset sweep (Table 6.5).
    pub fn piv_search_sets(&self) -> Vec<(String, PivProblem)> {
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
    pub fn piv_overlap_sets(&self) -> Vec<(String, PivProblem)> {
        self.pick(&[0, 25, 50, 75][..], &[0, 50])
            .iter()
            .map(|&o| (format!("{o}%"), PivProblem::standard(512, 32, o, 8)))
            .collect()
    }

    /// The cone-beam problem (Tables 6.8, 6.12, 6.19).
    pub fn backproj_problem(&self) -> BackprojProblem {
        let (n, num_proj, det) = self.pick((64, 32, 96), (32, 16, 48));
        BackprojProblem {
            n,
            num_proj,
            det_u: det,
            det_v: det,
        }
    }

    /// Implementation parameter grids (Tables 6.1 / 6.7).
    pub fn match_tile_options(&self) -> Vec<(u32, u32)> {
        self.pick(
            vec![(8, 8), (8, 16), (16, 8), (16, 16), (16, 32), (32, 16)],
            vec![(8, 8), (16, 16)],
        )
    }

    pub fn thread_options(&self) -> Vec<u32> {
        self.pick(vec![64, 128, 256], vec![64, 128])
    }

    pub fn piv_rb_options(&self) -> Vec<u32> {
        self.pick(vec![1, 2, 4, 6, 8], vec![2, 4])
    }

    pub fn piv_thread_options(&self) -> Vec<u32> {
        self.pick(vec![32, 64, 128, 256], vec![64, 128])
    }
}

// ---------------------------------------------------------------- tables

/// An aligned ASCII table on stdout that also lands in
/// `<out_dir>/<name>.csv`.
pub struct Table {
    name: String,
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new<S: AsRef<str>>(name: &str, title: &str, headers: &[S]) -> Table {
        Table {
            name: name.to_string(),
            title: title.to_string(),
            headers: headers.iter().map(|s| s.as_ref().to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Print the table and write `<out_dir>/<name>.csv`. Returns the CSV
    /// path.
    pub fn finish(&self, out_dir: &Path) -> PathBuf {
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

pub fn fmt_ms(v: f64) -> String {
    if v >= 100.0 {
        format!("{v:.1}")
    } else if v >= 1.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.4}")
    }
}

pub fn fmt<T: Display>(v: T) -> String {
    v.to_string()
}

/// Wall-clock a closure (best of `reps`), in milliseconds.
pub fn time_ms(reps: usize, mut f: impl FnMut()) -> f64 {
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
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub sim_ms: f64,
    pub regs: u32,
    pub occupancy: f64,
    pub active_warps: u32,
    pub blocks_per_sm: u32,
    pub local_bytes: u32,
    pub shared_bytes: u32,
}

impl Sample {
    /// Marker for configurations the device cannot launch at all.
    pub fn infeasible() -> Sample {
        Sample {
            sim_ms: f64::INFINITY,
            regs: 0,
            occupancy: 0.0,
            active_warps: 0,
            blocks_per_sm: 0,
            local_bytes: 0,
            shared_bytes: 0,
        }
    }

    pub fn is_infeasible(&self) -> bool {
        self.sim_ms.is_infinite()
    }
}

/// One timing-only sweep run as a [`Sample`]. Configurations that exceed
/// device limits are legal sweep points with infinite cost (exactly what
/// happens on real hardware: the launch fails).
fn sample(run: Result<GpuRunResult, Box<dyn std::error::Error>>, sweep: &str) -> Sample {
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
        Err(e) if e.to_string().contains("infeasible") => Sample::infeasible(),
        Err(e) => panic!("{sweep} sweep: {e}"),
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

/// Cache key for a measured configuration point.
type PointKey<P> = (String, P, (u32, u32, u32));

/// Memoizing evaluator for template matching configurations.
pub struct MatchSweep {
    compiler: Compiler,
    /// The (tile × threads) grid `best` searches, in tie-break order.
    grid: Vec<MatchImpl>,
    scenarios: BTreeMap<(usize, usize, usize, usize, usize, usize), synth::MatchScenario>,
    cache: BTreeMap<PointKey<MatchProblem>, Sample>,
}

impl MatchSweep {
    pub fn new(ctx: &Ctx, dev: DeviceConfig) -> MatchSweep {
        let threads = ctx.thread_options();
        let grid = ctx
            .match_tile_options()
            .into_iter()
            .flat_map(|(tile_w, tile_h)| {
                threads.iter().map(move |&threads| MatchImpl {
                    tile_w,
                    tile_h,
                    threads,
                })
            })
            .collect();
        MatchSweep {
            compiler: ctx.compiler(dev, Default::default()),
            grid,
            scenarios: BTreeMap::new(),
            cache: BTreeMap::new(),
        }
    }

    /// Simulated time (ms) for one frame at this configuration.
    pub fn eval(&mut self, variant: Variant, p: &MatchProblem, imp: &MatchImpl) -> Sample {
        let key = (
            variant.to_string(),
            *p,
            (imp.tile_w, imp.tile_h, imp.threads),
        );
        if let Some(s) = self.cache.get(&key) {
            return *s;
        }
        let geometry = (
            p.frame_w, p.frame_h, p.templ_w, p.templ_h, p.shift_w, p.shift_h,
        );
        let scen = self.scenarios.entry(geometry).or_insert_with(|| {
            synth::match_scenario(
                p.frame_w, p.frame_h, p.templ_w, p.templ_h, p.shift_w, p.shift_h, 1234,
            )
        });
        let run = ks_apps::template_match::run_gpu(&self.compiler, variant, p, imp, scen, false);
        let s = sample(run.map(|o| o.run), "template");
        self.cache.insert(key, s);
        s
    }

    /// Warm the compile cache with every module the grid will need,
    /// fanned out across threads by the batch API. Best-effort: compile
    /// errors resurface (with context) when the corresponding sweep point
    /// is actually evaluated.
    pub fn precompile(&self, variant: Variant, prob: &MatchProblem) {
        let jobs: Vec<(&str, Defines)> = self
            .grid
            .iter()
            .flat_map(|imp| ks_apps::template_match::specializations(variant, prob, imp))
            .map(|d| (ks_apps::template_match::KERNELS, d))
            .collect();
        let _ = self.compiler.compile_batch(&jobs);
    }

    /// Best configuration over the sweep grid.
    pub fn best(&mut self, variant: Variant, prob: &MatchProblem) -> (MatchImpl, Sample) {
        self.precompile(variant, prob);
        let grid = self.grid.clone();
        best_of(&grid, |imp| self.eval(variant, prob, imp))
    }
}

/// Memoizing evaluator for PIV configurations.
pub struct PivSweep {
    compiler: Compiler,
    /// The (RB × threads) grid `best` searches, in tie-break order.
    grid: Vec<PivImpl>,
    scenarios: BTreeMap<(usize, usize), synth::PivScenario>,
    cache: BTreeMap<PointKey<PivProblem>, Sample>,
}

impl PivSweep {
    pub fn new(ctx: &Ctx, dev: DeviceConfig) -> PivSweep {
        let threads = ctx.piv_thread_options();
        let grid = ctx
            .piv_rb_options()
            .into_iter()
            .flat_map(|rb| threads.iter().map(move |&threads| PivImpl { rb, threads }))
            .collect();
        PivSweep {
            compiler: ctx.compiler(dev, Default::default()),
            grid,
            scenarios: BTreeMap::new(),
            cache: BTreeMap::new(),
        }
    }

    pub fn eval(
        &mut self,
        variant: Variant,
        kernel: PivKernel,
        p: &PivProblem,
        imp: &PivImpl,
    ) -> Sample {
        let key = (
            format!("{variant}/{kernel:?}"),
            *p,
            (imp.rb, imp.threads, 0),
        );
        if let Some(s) = self.cache.get(&key) {
            return *s;
        }
        let scen = self
            .scenarios
            .entry((p.img_w, p.img_h))
            .or_insert_with(|| synth::piv_scenario(p.img_w, p.img_h, (3, 1), 77));
        let run = ks_apps::piv::run_gpu(&self.compiler, variant, kernel, p, imp, scen, false);
        let s = sample(run.map(|o| o.run), "piv");
        self.cache.insert(key, s);
        s
    }

    /// Warm the compile cache with the full grid in parallel
    /// (single-flight collapses the RE variant's identical defines to one
    /// compilation). Best-effort: errors resurface when the sweep point
    /// is evaluated.
    pub fn precompile(&self, variant: Variant, prob: &PivProblem) {
        let jobs: Vec<(&str, Defines)> = self
            .grid
            .iter()
            .map(|imp| {
                (
                    ks_apps::piv::KERNELS,
                    ks_apps::piv::specialization(variant, prob, imp),
                )
            })
            .collect();
        let _ = self.compiler.compile_batch(&jobs);
    }

    pub fn best(
        &mut self,
        variant: Variant,
        kernel: PivKernel,
        prob: &PivProblem,
    ) -> (PivImpl, Sample) {
        self.precompile(variant, prob);
        let grid = self.grid.clone();
        best_of(&grid, |imp| self.eval(variant, kernel, prob, imp))
    }
}

/// Render a (threads × rb) relative-performance grid as an ASCII contour
/// (Figures 6.1/6.2). `grid[i][j]` is performance relative to peak in
/// [0, 1]; the peak cell is marked `#`.
pub fn ascii_contour(
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

    #[test]
    fn infeasible_sample_marker() {
        let s = Sample::infeasible();
        assert!(s.is_infeasible());
        assert!(s.sim_ms > 1e300);
        let ok = Sample {
            sim_ms: 1.0,
            regs: 8,
            occupancy: 0.5,
            active_warps: 16,
            blocks_per_sm: 4,
            local_bytes: 0,
            shared_bytes: 0,
        };
        assert!(!ok.is_infeasible());
    }

    #[test]
    fn problem_sets_are_wellformed() {
        for quick in [false, true] {
            let ctx = Ctx {
                quick,
                store: None,
                out_dir: PathBuf::new(),
            };
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
