//! `churn` — variant churn, compiler-bound; also the **write** side of
//! the artifact store.
//!
//! A seeded shuffle of the 64-variant grid on both the C1060 and the
//! C2070 (128 distinct cold keys a lap). One operation is: set the
//! variant's parameters → `Pipeline::refresh()` (Blocking, cold key, the
//! compiler has a write-through store attached) → one small functional
//! round → compare with the CPU reference for that problem. A fixed
//! third of the variants go through a compiler built `with_analysis` +
//! `with_validation{deny}`, so ks-analysis and ks-verify are on the
//! path. Launches are tiny next to the compiles, so a simulator-speed
//! change must read "no change" here while a ks-opt / ks-lang /
//! ks-verify change shows.
//!
//! Every lap starts from fresh compilers, fresh pipelines and an empty
//! store directory, so every key is cold again.

use super::{shuffle, static_insts, Lap, Scale, Workload};
use crate::apps::{self, AppPipeline, Input, PipelineConfig};
use crate::grid::{self, Variant};
use crate::replay::{self, CompileJob, Replayer};
use crate::trace::{Kind, Tracer};
use ks_core::{AnalysisConfig, Compiler, StableHasher, ValidationConfig};
use ks_sim::DeviceConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

pub struct Churn {
    inputs: Vec<Input>,
    variants: Vec<Variant>,
    /// Visit order: indices into the (device × variant) product.
    order: Vec<usize>,
    dir: PathBuf,
    laps: u64,
    replayer: Replayer,
}

fn devices() -> [DeviceConfig; 2] {
    [DeviceConfig::tesla_c1060(), DeviceConfig::tesla_c2070()]
}

/// Whether product index `i` compiles through the checked compiler: a
/// property of the variant, not of its position in the shuffle, so the
/// multiset of operations is the same for every seed.
fn is_checked(i: usize) -> bool {
    i % 3 == 2
}

/// The "checked" compiler: static analysis plus translation validation
/// with deny, so ks-analysis and ks-verify are on the compile path.
pub fn checked(c: Compiler) -> Compiler {
    c.with_analysis(AnalysisConfig::default())
        .with_validation(ValidationConfig::default())
}

impl Churn {
    pub fn setup(seed: u64, scale: Scale, dir: &Path) -> Churn {
        let inputs: Vec<Input> = grid::problems()
            .into_iter()
            .enumerate()
            .map(|(i, p)| Input::generate(p, seed.wrapping_add(i as u64)))
            .collect();
        // Warm-up compiles, thrown away: each application's generic
        // kernels on each device.
        for dev in devices() {
            let c = Compiler::new(dev);
            for app in [apps::App::Tm, apps::App::Piv, apps::App::Bp] {
                c.compile(app.source(), ks_core::Defines::new())
                    .expect("warm-up compile");
            }
        }
        let variants = grid::variants();
        // At reduced scale keep an evenly spaced subset of the product.
        let total = 2 * variants.len();
        let step = total / scale.of(total, 6);
        let mut order: Vec<usize> = (0..total).step_by(step).collect();
        shuffle(&mut order, &mut StdRng::seed_from_u64(seed ^ 0x6368_7572));
        Churn {
            inputs,
            variants,
            order,
            dir: dir.join("churn"),
            laps: 0,
            replayer: Replayer::new(dir),
        }
    }
}

impl Workload for Churn {
    fn lap(&mut self, tr: &mut Tracer) -> Lap {
        let mut lap = Lap::default();
        // Lap preparation, off the clock: an empty store, four compilers
        // (device × plain/checked) writing through to it, and one
        // unrefreshed pipeline per (problem, compiler) in use.
        self.laps += 1;
        let store = self.dir.join(self.laps.to_string());
        let devices = devices();
        let compilers: Vec<Arc<Compiler>> = devices
            .iter()
            .flat_map(|dev| {
                [false, true].map(|validate| {
                    let c = Compiler::new(dev.clone());
                    let c = if validate { checked(c) } else { c };
                    Arc::new(c.with_store(&store).expect("attach lap store"))
                })
            })
            .collect();
        let mut pipes: HashMap<(usize, usize), AppPipeline> = HashMap::new();
        for &i in &self.order {
            let v = self.variants[i % self.variants.len()];
            let c = 2 * (i / self.variants.len()) + is_checked(i) as usize;
            pipes.entry((v.problem, c)).or_insert_with(|| {
                AppPipeline::build(
                    compilers[c].clone(),
                    &self.inputs[v.problem],
                    v.imp,
                    PipelineConfig::PLAIN,
                )
            });
        }

        for &i in &self.order {
            let v = self.variants[i % self.variants.len()];
            let d = i / self.variants.len();
            let c = 2 * d + is_checked(i) as usize;
            let input = &self.inputs[v.problem];
            let app = pipes.get_mut(&(v.problem, c)).expect("built above");
            let misses = compilers[c].cache_stats().misses;
            tr.next_op();

            let op = tr.enter("op", Kind::Boundary);
            let t0 = Instant::now();
            app.set_macros(v.imp);
            app.set_geometry(v.imp);
            let refresh = tr.enter("pf.refresh", Kind::Boundary);
            let refreshed = app.p.refresh().map_err(|e| e.to_string());
            tr.exit(refresh);
            let run = tr.enter("pf.run", Kind::Boundary);
            let ran = refreshed.and_then(|()| app.run());
            tr.exit(run);
            let mut result = ran.and_then(|()| app.verify(input));
            let dt = t0.elapsed();
            tr.exit(op);

            // Cache accounting: the key was cold, so exactly one compile.
            if result.is_ok() && compilers[c].cache_stats().misses != misses + 1 {
                result = Err(format!("variant {i} was not a cold compile"));
            }
            lap.absorb_reports(app, true, true);
            let verified = result.is_ok();
            lap.op(dt, result);
            if verified {
                lap.add("static_insts", static_insts(&app.binary()));
                if tr.on() {
                    let defines = apps::defines(&input.problem, v.imp);
                    let source = app.app().source();
                    let key = compilers[c].cache_key(source, &defines);
                    let job = CompileJob {
                        device: &devices[d],
                        source,
                        defines: &defines,
                        checked: is_checked(i),
                    };
                    self.replayer.compile(tr, &mut lap, refresh, job);
                    self.replayer.publish(tr, refresh, &store, key);
                    self.replayer.launches(tr, &mut lap, run, app);
                }
            }
        }

        for c in &compilers {
            lap.absorb_cache(&c.cache_stats());
        }
        if tr.on() {
            let (records, bytes) = replay::store_size(&store);
            lap.add("store.records", records);
            lap.add("store.bytes", bytes);
        }
        let _ = std::fs::remove_dir_all(&store);
        lap
    }

    fn hash_inputs(&self, h: &mut StableHasher) {
        for input in &self.inputs {
            input.hash_into(h);
        }
    }
}
