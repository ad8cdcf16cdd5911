//! The four workloads and what they share: the lap record, the scale
//! divisor, and roll-up of simulator launch reports.
//!
//! A **lap** is a fixed, seed-ordered sequence of operations. A run
//! repeats whole laps until its time budget is spent, so every lap of
//! every run of a workload performs the same multiset of operations —
//! which is what lets exact counts (`sim_cycles`, `static_insts`, the
//! per-layer counts) be compared between runs, seeds and commits while
//! the run length is still set by `--seconds`.

pub mod adapt;
pub mod churn;
pub mod restart;
pub mod stream;

use crate::apps::AppPipeline;
use crate::trace::Tracer;
use ks_core::{AsyncStats, CacheStats, StableHasher};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Duration;

pub const NAMES: [&str; 4] = ["stream", "churn", "restart", "adapt"];

/// Divides every workload's operation counts (`--scale 20` is the
/// `--check` size).
#[derive(Debug, Clone, Copy)]
pub struct Scale(pub u32);

impl Scale {
    /// `n` divided by the scale, at least `min`.
    pub fn of(self, n: usize, min: usize) -> usize {
        (n / self.0 as usize).max(min)
    }
}

/// What one lap measured.
#[derive(Default)]
pub struct Lap {
    /// Wall time of each operation, issue → verified, in ms, in the
    /// lap's (fixed) operation order. A failed operation has no latency.
    pub op_ms: Vec<Option<f64>>,
    /// Timed segments that are not operations (`adapt`'s epoch-boundary
    /// refreshes), in ms, in lap order.
    pub overhead_ms: Vec<f64>,
    /// Wall time failed operations took, in ms.
    pub lost_ms: f64,
    pub failed: u64,
    /// First few failure messages, for the log.
    pub failures: Vec<String>,
    /// Σ `LaunchReport.stats.dyn_insts` over timed launches.
    pub dyn_insts: u64,
    /// Counts that must repeat exactly lap after lap.
    pub exact: BTreeMap<&'static str, u64>,
    /// Per-layer samples that are not spans (latencies the workload
    /// itself observes, shares).
    pub samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Lap {
    pub fn add(&mut self, name: &'static str, n: u64) {
        *self.exact.entry(name).or_default() += n;
    }

    pub fn max(&mut self, name: &'static str, n: u64) {
        let e = self.exact.entry(name).or_default();
        *e = (*e).max(n);
    }

    pub fn sample(&mut self, name: &'static str, v: f64) {
        self.samples.entry(name).or_default().push(v);
    }

    /// A failure that is not one operation's (a replay, a lap total).
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(what);
        }
    }

    /// Record one operation: its wall time, and whether it verified.
    pub fn op(&mut self, wall: Duration, result: Result<(), String>) {
        let ms = wall.as_secs_f64() * 1e3;
        match result {
            Ok(()) => self.op_ms.push(Some(ms)),
            Err(e) => {
                self.lost_ms += ms;
                self.op_ms.push(None);
                self.fail(e);
            }
        }
    }

    pub fn attempted(&self) -> u64 {
        self.op_ms.len() as u64
    }

    /// Latencies of the operations that verified.
    pub fn latencies(&self) -> Vec<f64> {
        self.op_ms.iter().flatten().copied().collect()
    }

    /// Timed wall of the lap in seconds: every operation (closed loop,
    /// one client: issue → verified or failed) plus timed overhead.
    pub fn wall_s(&self) -> f64 {
        let ops: f64 = self.op_ms.iter().flatten().sum();
        (ops + self.overhead_ms.iter().sum::<f64>() + self.lost_ms) / 1e3
    }

    /// Fold a pipeline's launch reports of the last round(s) into the
    /// lap and clear them. `timed` launches also feed `dyn_insts`, the
    /// numerator of `warp_insts_per_s`; `exact` ones feed the counts
    /// that must repeat (on `adapt` only settled rounds do, because
    /// which binary serves a timed round depends on when the background
    /// compile lands).
    pub fn absorb_reports(&mut self, app: &mut AppPipeline, timed: bool, exact: bool) {
        for r in &app.p.reports {
            if timed {
                self.dyn_insts += r.stats.dyn_insts;
            }
            if exact {
                self.add("sim_cycles", r.cycles);
                self.add("sim.dyn_insts", r.stats.dyn_insts);
                self.add("sim.global_bytes", r.stats.global_bytes);
                self.add("sim.shared_accesses", r.stats.shared_accesses);
                self.add("sim.divergent_branches", r.stats.divergent_branches);
                self.add("sim.barriers", r.stats.barriers);
            }
        }
        app.p.clear_timings();
    }

    pub fn absorb_cache(&mut self, c: &CacheStats) {
        self.add("core.requests", c.hits + c.misses);
        self.add("core.hits", c.hits);
        self.add("core.misses", c.misses);
        self.add("core.disk_hits", c.disk_hits);
        self.add("core.dedup_waits", c.dedup_waits);
        self.add("core.evictions", c.evictions);
        self.add("core.store_errors", c.store_errors);
    }

    pub fn absorb_async(&mut self, a: &AsyncStats) {
        self.add("core.async_spawned", a.spawned);
        self.add("core.async_completed", a.completed);
        self.add("core.async_cancelled", a.cancelled);
    }
}

/// Fisher–Yates with the seeded generator (the vendored `rand` has no
/// `SliceRandom`).
pub fn shuffle<T>(v: &mut [T], rng: &mut StdRng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..i + 1));
    }
}

/// Static instructions of every kernel in a binary (generated-code
/// size, the `static_insts` metric).
pub fn static_insts(bin: &ks_core::Binary) -> u64 {
    bin.module
        .functions
        .iter()
        .map(|f| f.static_inst_count() as u64)
        .sum()
}

pub trait Workload {
    /// One lap: the workload's fixed operation sequence. Boundary spans
    /// go to `tr` on the clock; when `tr` is on, replay spans follow
    /// each operation off the clock.
    fn lap(&mut self, tr: &mut Tracer) -> Lap;

    /// Feed every generated input byte to `h`.
    fn hash_inputs(&self, h: &mut StableHasher);
}

/// Everything before the first timed operation: input synthesis, CPU
/// references, warm-up compiles, store population. `dir` is a scratch
/// directory the workload may fill; it is removed when the run ends.
pub fn setup(name: &str, seed: u64, scale: Scale, dir: &Path) -> Option<Box<dyn Workload>> {
    Some(match name {
        "stream" => Box::new(stream::Stream::setup(seed, scale, dir)),
        "churn" => Box::new(churn::Churn::setup(seed, scale, dir)),
        "restart" => Box::new(restart::Restart::setup(seed, scale, dir)),
        "adapt" => Box::new(adapt::Adapt::setup(seed, scale, dir)),
        _ => return None,
    })
}
