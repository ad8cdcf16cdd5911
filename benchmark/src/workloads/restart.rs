//! `restart` — warm restart, ks-store + ks-core decode-bound; the
//! **read** side of what `churn` writes.
//!
//! Set-up publishes the grid's 64 variants (C2070, plain compiler) into
//! a store. One operation is a process-restart analogue:
//! `Compiler::with_store_scrubbed(dir)` (attach + scrub walk) → fresh
//! pipelines holding all 64 variants as modules → `refresh()` resolves
//! every one from disk → one small verified round per application. The
//! operation asserts `CacheStats.misses == 0` and `disk_hits == 64`.
//! There are zero compiles and almost no simulation, so only store I/O,
//! checksumming, record decode and cache insertion can move it; a
//! store-format change that speeds reads but slows `churn`'s publishes
//! (or the reverse) shows as a win on one and a loss on the other.

use super::{static_insts, Lap, Scale, Workload};
use crate::apps::{self, AppPipeline, Impl, Input, PipelineConfig};
use crate::grid::{self, Variant};
use crate::replay::{self, Replayer};
use crate::trace::{Kind, SpanId, Tracer};
use gpu_pf::MacroBinding;
use ks_core::{Compiler, Defines, StableHasher};
use ks_sim::DeviceConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Restarts in one lap at full scale (about 1.4 s on the reference box).
const OPS: usize = 60;

pub struct Restart {
    inputs: Vec<Input>,
    /// The working set, in the seeded order modules are declared.
    set: Vec<Variant>,
    /// Per problem, the variant whose parameters drive its launches: the
    /// first in grid order, whatever the seed, so launches repeat.
    lead: Vec<Option<Impl>>,
    store: PathBuf,
    ops: usize,
    replayer: Replayer,
}

fn device() -> DeviceConfig {
    DeviceConfig::tesla_c2070()
}

/// What one restart produced, for the checks and replays that follow it
/// off the clock.
struct Restarted {
    compiler: Arc<Compiler>,
    launched: Vec<AppPipeline>,
    attach: SpanId,
    runs: Vec<SpanId>,
}

impl Restart {
    pub fn setup(seed: u64, scale: Scale, dir: &Path) -> Restart {
        let inputs: Vec<Input> = grid::problems()
            .into_iter()
            .enumerate()
            .map(|(i, p)| Input::generate(p, seed.wrapping_add(i as u64)))
            .collect();
        let all = grid::variants();
        let keep = scale.of(all.len(), 4);
        let mut set: Vec<Variant> = all.iter().copied().step_by(all.len() / keep).collect();
        let mut lead = vec![None; inputs.len()];
        for v in &set {
            lead[v.problem].get_or_insert(v.imp);
        }
        super::shuffle(&mut set, &mut StdRng::seed_from_u64(seed ^ 0x7265_7374));
        let w = Restart {
            inputs,
            set,
            lead,
            store: dir.join("restart-store"),
            ops: scale.of(OPS, 2),
            replayer: Replayer::new(dir),
        };
        // Publish: the first restart finds an empty store, compiles the
        // whole working set and writes it through.
        let _ = std::fs::remove_dir_all(&w.store);
        w.restart(&mut Tracer::new(false))
            .expect("publishing restart");
        w
    }

    /// The working set as (source, defines) jobs.
    fn jobs(&self) -> Vec<(&'static str, Defines)> {
        self.set
            .iter()
            .map(|v| {
                let problem = &self.inputs[v.problem].problem;
                (problem.app().source(), apps::defines(problem, v.imp))
            })
            .collect()
    }

    /// Attach (with scrub), declare, refresh, and run one round per app.
    fn restart(&self, tr: &mut Tracer) -> Result<Restarted, String> {
        let attach = tr.enter("core.attach", Kind::Boundary);
        let attached = Compiler::new(device()).with_store_scrubbed(&self.store);
        tr.exit(attach);
        let (compiler, report) = attached.map_err(|e| e.to_string())?;
        if !report.quarantined.is_empty() {
            return Err(format!("scrub quarantined records: {report}"));
        }
        let compiler = Arc::new(compiler);

        // One pipeline per problem in the working set; the lead variant
        // drives the launch parameters, the rest ride along as modules.
        let mut pipes: Vec<(usize, AppPipeline)> = Vec::new();
        for v in &self.set {
            let input = &self.inputs[v.problem];
            let lead = self.lead[v.problem].expect("lead of a problem in the set");
            let at = pipes.iter().position(|(p, _)| *p == v.problem);
            let at = at.unwrap_or_else(|| {
                let app = AppPipeline::build(compiler.clone(), input, lead, PipelineConfig::PLAIN);
                pipes.push((v.problem, app));
                pipes.len() - 1
            });
            if v.imp != lead {
                let app = &mut pipes[at].1;
                let defines = apps::defines(&input.problem, v.imp);
                app.p.module(
                    app.app().source(),
                    defines
                        .items()
                        .iter()
                        .map(|(k, v)| (k.as_str(), MacroBinding::Literal(v.clone())))
                        .collect(),
                );
            }
        }
        for (_, app) in &mut pipes {
            let span = tr.enter("pf.refresh", Kind::Boundary);
            let refreshed = app.p.refresh();
            tr.exit(span);
            refreshed.map_err(|e| e.to_string())?;
        }
        // One verified round per application: its first problem's pipeline.
        pipes.sort_by_key(|(problem, _)| *problem);
        let mut launched: Vec<AppPipeline> = Vec::new();
        let mut runs = Vec::new();
        for (problem, mut app) in pipes {
            if launched.iter().any(|a| a.app() == app.app()) {
                continue;
            }
            let span = tr.enter("pf.run", Kind::Boundary);
            let ran = app.run();
            tr.exit(span);
            ran.and_then(|()| app.verify(&self.inputs[problem]))?;
            runs.push(span);
            launched.push(app);
        }
        Ok(Restarted {
            compiler,
            launched,
            attach,
            runs,
        })
    }
}

impl Workload for Restart {
    fn lap(&mut self, tr: &mut Tracer) -> Lap {
        let mut lap = Lap::default();
        let jobs = self.jobs();
        for _ in 0..self.ops {
            tr.next_op();
            let op = tr.enter("op", Kind::Boundary);
            let t0 = Instant::now();
            let result = self.restart(tr);
            let dt = t0.elapsed();
            tr.exit(op);
            // Cache accounting: every variant from disk, no compile.
            let result = result.and_then(|done| {
                let stats = done.compiler.cache_stats();
                if stats.misses != 0 || stats.disk_hits != jobs.len() as u64 {
                    return Err(format!("restart was not warm: {stats}"));
                }
                Ok(done)
            });
            let mut done = match result {
                Ok(done) => done,
                Err(e) => {
                    lap.op(dt, Err(e));
                    continue;
                }
            };
            lap.op(dt, Ok(()));
            for app in &mut done.launched {
                lap.absorb_reports(app, true, true);
            }
            lap.absorb_cache(&done.compiler.cache_stats());
            // Every variant loaded: memory hits now, after the accounting.
            for (source, defines) in &jobs {
                let bin = done.compiler.compile(source, defines).expect("resident");
                lap.add("static_insts", static_insts(&bin));
            }
            if tr.on() {
                self.replayer
                    .warm_attach(tr, &mut lap, done.attach, &self.store, &device(), &jobs);
                for (app, run) in done.launched.iter_mut().zip(&done.runs) {
                    self.replayer.launches(tr, &mut lap, *run, app);
                }
            }
        }
        if tr.on() {
            let (records, bytes) = replay::store_size(&self.store);
            lap.add("store.records", records);
            lap.add("store.bytes", bytes);
        }
        lap
    }

    fn hash_inputs(&self, h: &mut StableHasher) {
        for input in &self.inputs {
            input.hash_into(h);
        }
    }
}
