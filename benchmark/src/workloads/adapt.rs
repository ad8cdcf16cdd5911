//! `adapt` — tiered adaptation, gpu-pf orchestration + small-launch-bound.
//!
//! Three tiny pipelines (a round is six launches of one to nine blocks,
//! two to three thousand warp-instructions in all) in `RefreshMode::Tiered`, `IntegrityConfig::default()`
//! (a witness launch every 16th check), `set_label` scopes on. A *round*
//! is one verified `run(1)` of each pipeline and is the operation. Every
//! ten rounds (an *epoch*) each pipeline's implementation parameter
//! steps through a seeded sequence with revisits, so about 15 % of
//! epochs spawn a real background compile and the rest resolve from the
//! memory cache. Kernels are so small that per-launch fixed cost,
//! gpu-pf's per-exec snapshots, checksums and copies, telemetry
//! publishes, cache-hit lookups, ticket polling and hot-swap dominate:
//! an interpreter lane-loop speed-up should barely move this workload,
//! a "decode once per `Binary`" or a gpu-pf split should.
//!
//! **Serving protocol.** Under `Tiered` a re-dirtied module keeps its
//! previous specialized binary until the new one lands, and that binary
//! is only correct with the launch geometry it was compiled for. So at
//! an epoch boundary the workload sets the *macros* and refreshes, keeps
//! launching the old geometry, and flips geometry and run-time
//! arguments when the module reports `Tier::Specialized`. Every round of
//! every epoch therefore verifies against the CPU reference.
//!
//! **Settling.** Which binary serves a timed round depends on when the
//! background compile lands, so after each epoch — off the clock — the
//! workload waits for promotions and runs one more verified round. Only
//! these settled rounds feed the exact counts (`sim_cycles`, `sim.*`).

use super::{static_insts, Lap, Scale, Workload};
use crate::apps::{self, AppPipeline, Impl, Input, PipelineConfig, Problem};
use crate::replay::{CompileJob, Replayer};
use crate::trace::{Kind, SpanId, Tracer};
use gpu_pf::{IntegrityConfig, RefreshMode, Tier};
use ks_apps::backproj::BackprojProblem;
use ks_apps::piv::PivProblem;
use ks_apps::template_match::MatchProblem;
use ks_core::{Compiler, StableHasher};
use ks_sim::DeviceConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Epochs in one lap at full scale. Fifteen stepped values over 100
/// epochs: 15 % of epochs meet a cold key.
const EPOCHS: usize = 100;
const ROUNDS_PER_EPOCH: usize = 10;

/// One pipeline's problem, the specialization it starts each lap on,
/// and the values it steps through.
struct Case {
    label: &'static str,
    input: Input,
    home: Impl,
    /// One value per epoch: the stepped set repeated to length, then
    /// shuffled by the seed (same multiset for every seed).
    sequence: Vec<Impl>,
}

pub struct Adapt {
    cases: Vec<Case>,
    replayer: Replayer,
}

fn tile(tile_w: u32, tile_h: u32) -> Impl {
    Impl::Tm {
        tile_w,
        tile_h,
        threads: 32,
    }
}

fn cases() -> Vec<(&'static str, Problem, Impl, Vec<Impl>)> {
    vec![
        (
            "tm",
            Problem::Tm(MatchProblem {
                frame_w: 32,
                frame_h: 24,
                templ_w: 8,
                templ_h: 8,
                shift_w: 4,
                shift_h: 2,
                frames: 1,
            }),
            tile(8, 8),
            vec![
                tile(4, 4),
                tile(8, 4),
                tile(4, 8),
                tile(2, 4),
                tile(4, 2),
                tile(8, 2),
            ],
        ),
        (
            "piv",
            Problem::Piv(PivProblem::standard(32, 16, 0, 2)),
            Impl::Piv { rb: 8, threads: 32 },
            [3, 4, 5, 7, 13, 16]
                .map(|rb| Impl::Piv { rb, threads: 32 })
                .to_vec(),
        ),
        (
            "bp",
            Problem::Bp(BackprojProblem {
                n: 8,
                num_proj: 4,
                det_u: 12,
                det_v: 12,
            }),
            Impl::Bp { zb: 8 },
            [1, 2, 4].map(|zb| Impl::Bp { zb }).to_vec(),
        ),
    ]
}

/// A pipeline during one lap.
struct Live<'a> {
    case: &'a Case,
    app: AppPipeline,
    /// The specialization whose geometry is being launched.
    serving: Impl,
    /// The specialization the macros were last set to.
    target: Impl,
    /// When `target` was set, while its promotion time is still owed
    /// (only for values this lap's compiler had not seen).
    owed: Option<Instant>,
    seen: Vec<Impl>,
}

impl Live<'_> {
    /// If the target's binary has landed, flip geometry and run-time
    /// arguments to it. On the clock: part of serving under `Tiered`.
    fn flip_if_promoted(&mut self, lap: &mut Lap) -> Result<(), String> {
        if self.serving == self.target {
            return Ok(());
        }
        self.app.p.poll_promotions();
        if self.app.p.module_tier(self.app.module) == Some(Tier::Specialized) {
            if let Some(since) = self.owed.take() {
                lap.sample("pf.promotion_ms", since.elapsed().as_secs_f64() * 1e3);
            }
            self.app.set_geometry(self.target);
            self.app.p.refresh().map_err(|e| e.to_string())?;
            self.serving = self.target;
        }
        Ok(())
    }
}

/// Lap preparation, off the clock: a fresh compiler (every stepped
/// value is cold again) and fresh pipelines settled on their home
/// specialization, one warm-up round each.
fn prepare<'a>(cases: &'a [Case], device: &DeviceConfig) -> (Arc<Compiler>, Vec<Live<'a>>) {
    let compiler = Arc::new(Compiler::new(device.clone()));
    let live = cases
        .iter()
        .map(|case| {
            let cfg = PipelineConfig {
                mode: RefreshMode::Tiered,
                integrity: Some(IntegrityConfig::default()),
                label: Some(case.label),
            };
            let mut app = AppPipeline::build(compiler.clone(), &case.input, case.home, cfg);
            app.p.refresh().expect("lap refresh");
            app.p.wait_promotions();
            app.round(&case.input).expect("warm-up round");
            app.p.clear_timings();
            Live {
                case,
                app,
                serving: case.home,
                target: case.home,
                owed: None,
                seen: vec![case.home],
            }
        })
        .collect();
    (compiler, live)
}

impl Adapt {
    pub fn setup(seed: u64, scale: Scale, dir: &Path) -> Adapt {
        let epochs = scale.of(EPOCHS, 4);
        let cases = cases()
            .into_iter()
            .enumerate()
            .map(|(i, (label, problem, home, values))| {
                let mut sequence: Vec<Impl> =
                    (0..epochs).map(|e| values[e % values.len()]).collect();
                let mut rng = StdRng::seed_from_u64(seed ^ (0x6164_6170 + i as u64));
                super::shuffle(&mut sequence, &mut rng);
                Case {
                    label,
                    input: Input::generate(problem, seed.wrapping_add(i as u64)),
                    home,
                    sequence,
                }
            })
            .collect::<Vec<Case>>();
        // Warm-up: one lap preparation, thrown away (generic and home
        // compiles, the background pool's threads, a verified round).
        drop(prepare(&cases, &DeviceConfig::tesla_c2070()));
        Adapt {
            cases,
            replayer: Replayer::new(dir),
        }
    }
}

impl Workload for Adapt {
    fn lap(&mut self, tr: &mut Tracer) -> Lap {
        let mut lap = Lap::default();
        let device = DeviceConfig::tesla_c2070();
        let (compiler, mut live) = prepare(&self.cases, &device);
        for l in &live {
            lap.add("static_insts", static_insts(&l.app.binary()));
        }

        let epochs = self.cases[0].sequence.len();
        for epoch in 0..epochs {
            // Epoch boundary: parameters set → all three refresh() calls
            // returned, i.e. every pipeline is servable again.
            tr.next_op();
            let t0 = Instant::now();
            let mut refreshes: Vec<SpanId> = Vec::new();
            let mut boundary = Ok(());
            for l in &mut live {
                l.target = l.case.sequence[epoch];
                l.owed = (!l.seen.contains(&l.target)).then_some(t0);
                l.app.set_macros(l.target);
                let span = tr.enter("pf.refresh_tiered", Kind::Boundary);
                let r = l.app.p.refresh().map_err(|e| e.to_string());
                tr.exit(span);
                refreshes.push(span);
                boundary = boundary.and(r);
            }
            let dt = t0.elapsed().as_secs_f64();
            lap.overhead_ms.push(dt * 1e3);
            lap.sample("pf.first_launch_us", dt * 1e6);
            if let Err(e) = boundary {
                lap.fail(e);
            }

            let mut last_runs: Vec<SpanId> = vec![None; live.len()];
            for round in 0..ROUNDS_PER_EPOCH {
                if round > 0 {
                    tr.next_op();
                }
                let op = tr.enter("op", Kind::Boundary);
                let t0 = Instant::now();
                let mut result = Ok(());
                for (l, last) in live.iter_mut().zip(&mut last_runs) {
                    let flipped = l.flip_if_promoted(&mut lap);
                    lap.sample("pf.specialized_share", (l.serving == l.target) as u8 as f64);
                    let span = tr.enter("pf.run", Kind::Boundary);
                    let ran = flipped.and_then(|()| l.app.run());
                    tr.exit(span);
                    *last = span;
                    result = result.and(ran.and_then(|()| l.app.verify(&l.case.input)));
                }
                let dt = t0.elapsed();
                tr.exit(op);
                lap.op(dt, result);
                for l in &mut live {
                    lap.absorb_reports(&mut l.app, true, false);
                }
            }

            // Settle, off the clock.
            for ((l, refresh), run) in live.iter_mut().zip(refreshes).zip(last_runs) {
                if tr.on() {
                    self.replayer.launches(tr, &mut lap, run, &mut l.app);
                }
                l.app.p.wait_promotions();
                let settled = l
                    .flip_if_promoted(&mut lap)
                    .and_then(|()| l.app.round(&l.case.input));
                lap.absorb_reports(&mut l.app, false, true);
                if let Err(e) = settled {
                    lap.fail(format!("settling round: {e}"));
                    continue;
                }
                if !l.seen.contains(&l.target) {
                    l.seen.push(l.target);
                    lap.add("static_insts", static_insts(&l.app.binary()));
                    if tr.on() {
                        let defines = apps::defines(&l.case.input.problem, l.target);
                        let source = l.app.app().source();
                        let job = CompileJob {
                            device: &device,
                            source,
                            defines: &defines,
                            checked: false,
                        };
                        self.replayer.compile(tr, &mut lap, refresh, job);
                    }
                }
            }
        }

        lap.absorb_cache(&compiler.cache_stats());
        lap.absorb_async(&compiler.async_stats());
        for l in &live {
            let promo = l.app.p.promotion_stats();
            let integrity = l.app.p.integrity_stats();
            lap.add("pf.promotions", promo.promoted);
            lap.add("pf.promotions_failed", promo.failed);
            lap.add("pf.degradations", l.app.p.degradations().len() as u64);
            lap.add("pf.integrity_checks", integrity.checks);
            lap.add("pf.witness_launches", integrity.witness_launches);
            lap.add("pf.violations", integrity.violations);
            if integrity.violations > 0 {
                lap.fail(format!(
                    "{}: integrity violations in a fault-free run",
                    l.case.label
                ));
            }
        }
        lap
    }

    fn hash_inputs(&self, h: &mut StableHasher) {
        for case in &self.cases {
            case.input.hash_into(h);
        }
    }
}
