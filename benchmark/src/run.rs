//! One run of one workload: the mode the acceptance driver invokes.
//!
//! Untraced (`--trace 0`): set up at least three times (reporting the
//! median), then repeat whole laps until `--seconds` of timed wall has passed,
//! and report the end-to-end metrics. Traced (`--trace 1`): set up once,
//! run one traced lap (boundary and replay spans) between two untraced
//! ones (the tracing-overhead base), then the micro-probes, and report
//! the per-layer metrics.

use crate::env::{self, ScratchDir};
use crate::layers;
use crate::metrics::{Metric, END_TO_END, PER_LAYER};
use crate::stats::{median, percentile, ratio};
use crate::trace::Tracer;
use crate::workloads::{self, Lap, Scale};
use ks_core::StableHasher;
use ks_trace::Json;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Set-ups per untraced run: at least `MIN_SETUPS`, then more while
/// they are cheap (under `SETUP_BUDGET_S` in total, at most
/// `MAX_SETUPS`). `setup_s` is their median.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 50;
const SETUP_BUDGET_S: f64 = 1.0;
/// Stop starting laps after this much process wall, whatever `--seconds`
/// says, so a run on a much slower machine still ends in time.
const WALL_CAP_S: f64 = 120.0;

pub struct Options {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: u32,
    /// Directory for trace files and scratch stores.
    pub out_dir: PathBuf,
}

/// The result of a run, as printed on its last line.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static Metric, f64)>,
}

impl Outcome {
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::u64(self.attempted)),
            ("failed", Json::u64(self.failed)),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|(m, v)| {
                            (
                                m.name.to_string(),
                                Json::obj(vec![
                                    ("value", Json::Num(*v)),
                                    ("unit", Json::str(m.unit)),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Totals over the laps of a run, with the check that exact counts
/// repeated lap after lap.
#[derive(Default)]
struct Laps {
    laps: Vec<Lap>,
    failed: u64,
}

impl Laps {
    fn push(&mut self, lap: Lap) {
        for msg in &lap.failures {
            println!("failure: {msg}");
        }
        if let Some(first) = self.laps.first() {
            // Counts both laps kept (a traced lap keeps more) must agree.
            let repeats = first
                .exact
                .iter()
                .all(|(k, v)| lap.exact.get(k).is_none_or(|w| w == v));
            if !repeats || first.attempted() != lap.attempted() {
                println!("failure: exact counts differ between laps of one run");
                self.failed += 1;
            }
        }
        self.failed += lap.failed;
        println!(
            "lap {}: ops {} failed {} wall_s {:.3} ops_per_s {:.3} op_ms_p50 {:.3} op_ms_p95 {:.3}",
            self.laps.len() + 1,
            lap.attempted(),
            lap.failed,
            lap.wall_s(),
            ratio(lap.latencies().len() as f64, lap.wall_s()),
            median(&lap.latencies()),
            percentile(&lap.latencies(), 95.0),
        );
        self.laps.push(lap);
    }

    fn attempted(&self) -> u64 {
        self.laps.iter().map(Lap::attempted).sum()
    }

    fn timed_s(&self) -> f64 {
        self.laps.iter().map(Lap::wall_s).sum()
    }
}

pub fn run(opts: &Options) -> Result<Outcome, String> {
    let started = Instant::now();
    std::fs::create_dir_all(&opts.out_dir).map_err(|e| e.to_string())?;
    let scratch = ScratchDir::create(&opts.out_dir).map_err(|e| e.to_string())?;
    let scale = Scale(opts.scale.max(1));
    let setup = || {
        workloads::setup(&opts.workload, opts.seed, scale, scratch.path())
            .ok_or_else(|| format!("unknown workload `{}`", opts.workload))
    };

    let mut setups = Vec::new();
    let mut workload = None;
    loop {
        // The previous instance goes first: set-up is measured from a
        // clean slate each time.
        drop(workload.take());
        let t = Instant::now();
        workload = Some(setup()?);
        setups.push(t.elapsed().as_secs_f64());
        let cheap = setups.iter().sum::<f64>() < SETUP_BUDGET_S && setups.len() < MAX_SETUPS;
        if opts.trace || (setups.len() >= MIN_SETUPS && !cheap) {
            break;
        }
    }
    let mut workload = workload.expect("at least one set-up");
    let mut h = StableHasher::new();
    workload.hash_inputs(&mut h);
    println!(
        "{}",
        Json::obj(vec![
            ("info", Json::str("run")),
            ("workload", Json::str(opts.workload.as_str())),
            ("seed", Json::u64(opts.seed)),
            ("scale", Json::u64(opts.scale as u64)),
            ("trace", Json::Bool(opts.trace)),
            ("input_hash", Json::str(h.finish().to_hex())),
            ("nproc", Json::u64(env::nproc() as u64)),
            ("rustc", Json::str(env::rustc_version())),
            ("commit", Json::str(env::commit())),
        ])
        .render()
    );

    let mut laps = Laps::default();
    let values: BTreeMap<&'static str, f64>;
    let table: &'static [Metric];
    if opts.trace {
        // Untraced, traced, untraced: the two untraced laps bracket the
        // traced one, so a drift in machine speed cancels out of the
        // overhead figure.
        let cpu0 = env::cpu_seconds();
        let t0 = Instant::now();
        laps.push(workload.lap(&mut Tracer::new(false)));
        let cpu_per_wall = (env::cpu_seconds() - cpu0) / t0.elapsed().as_secs_f64();
        let mut tracer = Tracer::new(true);
        laps.push(workload.lap(&mut tracer));
        laps.push(workload.lap(&mut Tracer::new(false)));
        let untraced_op_ms_p50 =
            (median(&laps.laps[0].latencies()) + median(&laps.laps[2].latencies())) / 2.0;
        let mut probes = BTreeMap::new();
        crate::probes::run(&mut probes);
        let ctx = layers::Context {
            untraced_op_ms_p50,
            cpu_per_wall,
            probes,
        };
        values = layers::collect(&tracer, &laps.laps[1], ctx);
        table = PER_LAYER;
        let path = opts.out_dir.join(format!("trace_{}.jsonl", opts.workload));
        tracer.write_jsonl(&path).map_err(|e| e.to_string())?;
        println!(
            "trace: {} spans -> {}",
            tracer.spans().len(),
            path.display()
        );
    } else {
        let mut off = Tracer::new(false);
        while laps.laps.is_empty()
            || (laps.timed_s() < opts.seconds && started.elapsed().as_secs_f64() < WALL_CAP_S)
        {
            laps.push(workload.lap(&mut off));
        }
        values = end_to_end(&laps, median(&setups));
        table = END_TO_END;
    }
    drop(workload);
    drop(scratch);

    println!(
        "laps {} ops {} failed_ops {} timed_s {:.3} wall_s {:.3}",
        laps.laps.len(),
        laps.attempted(),
        laps.failed,
        laps.timed_s(),
        started.elapsed().as_secs_f64()
    );
    let metrics: Vec<(&'static Metric, f64)> = table
        .iter()
        .map(|m| (m, values.get(m.name).copied().unwrap_or(0.0)))
        .collect();
    for (m, v) in &metrics {
        println!("metric {} {} {v}", m.name, m.unit);
    }
    Ok(Outcome {
        attempted: laps.attempted(),
        failed: laps.failed,
        metrics,
    })
}

fn end_to_end(laps: &Laps, setup_s: f64) -> BTreeMap<&'static str, f64> {
    // The machine this runs on slows by a quarter for seconds at a time
    // (a busy sibling hyperthread, most likely), so a statistic pooled
    // over the whole run mostly measures the neighbours. Every lap runs
    // the same operations in the same order, interference only ever
    // slows an operation down, and a change to the program moves every
    // lap alike — so the timing metrics are taken over the *clean lap*:
    // each operation (and each timed overhead segment) at the best time
    // it achieved in any lap of the run.
    let best_of = |at: &dyn Fn(&Lap) -> Option<f64>| -> Option<f64> {
        laps.laps.iter().filter_map(at).reduce(f64::min)
    };
    let ops = laps.laps[0].op_ms.len();
    let clean: Vec<f64> = (0..ops)
        .filter_map(|i| best_of(&|l| l.op_ms.get(i).copied().flatten()))
        .collect();
    let overhead: f64 = (0..laps.laps[0].overhead_ms.len())
        .filter_map(|i| best_of(&|l| l.overhead_ms.get(i).copied()))
        .sum();
    let wall_s = (clean.iter().sum::<f64>() + overhead) / 1e3;
    // Identical in every lap except on `adapt`, where a few timed rounds
    // run whichever binary the background compile had delivered.
    let dyn_insts = median(
        &laps
            .laps
            .iter()
            .map(|l| l.dyn_insts as f64)
            .collect::<Vec<_>>(),
    );
    let exact = |name: &str| laps.laps[0].exact.get(name).copied().unwrap_or(0) as f64;
    BTreeMap::from([
        ("setup_s", setup_s),
        ("ops_per_s", ratio(clean.len() as f64, wall_s)),
        ("op_ms_p50", median(&clean)),
        ("op_ms_p95", percentile(&clean, 95.0)),
        ("warp_insts_per_s", ratio(dyn_insts, wall_s)),
        ("peak_rss_mb", env::peak_rss_mb()),
        // Per lap, and identical in every lap (checked in `Laps::push`).
        ("sim_cycles", exact("sim_cycles")),
        ("static_insts", exact("static_insts")),
    ])
}
