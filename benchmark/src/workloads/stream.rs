//! `stream` — steady-state streaming, ks-sim interpreter-bound.
//!
//! Three pipelines on the C2070 with fixed SK specializations, Blocking
//! refresh done in set-up, integrity checking off: the four-kernel
//! template-matching frame pipeline, `piv_ssd`, and `backproject`, on
//! grids large enough (140 k / 230 k / 210 k warp-instructions a round)
//! that after set-up nearly all wall time is inside `ks_sim::launch`.
//! The compiler, cache and store do nothing in the timed section, so a
//! compile-side change must read "no change" here.
//!
//! One operation is one *round*: `run(1)` of each pipeline, each output
//! compared with its CPU reference.

use super::{static_insts, Lap, Scale, Workload};
use crate::apps::{AppPipeline, Impl, Input, PipelineConfig, Problem};
use crate::replay::Replayer;
use crate::trace::{Kind, Tracer};
use ks_apps::backproj::BackprojProblem;
use ks_apps::piv::PivProblem;
use ks_apps::template_match::MatchProblem;
use ks_core::{Compiler, StableHasher};
use ks_sim::DeviceConfig;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Rounds in one lap at full scale (about 2.6 s on the reference box).
const ROUNDS: usize = 40;

pub struct Stream {
    pipes: Vec<(Input, AppPipeline)>,
    static_insts: u64,
    rounds: usize,
    replayer: Replayer,
}

fn cases() -> [(Problem, Impl); 3] {
    [
        (
            Problem::Tm(MatchProblem {
                frame_w: 128,
                frame_h: 96,
                templ_w: 32,
                templ_h: 24,
                shift_w: 12,
                shift_h: 12,
                frames: 4,
            }),
            Impl::Tm {
                tile_w: 8,
                tile_h: 8,
                threads: 64,
            },
        ),
        (
            Problem::Piv(PivProblem::standard(64, 16, 0, 4)),
            Impl::Piv { rb: 4, threads: 64 },
        ),
        (
            Problem::Bp(BackprojProblem {
                n: 24,
                num_proj: 8,
                det_u: 36,
                det_v: 36,
            }),
            Impl::Bp { zb: 2 },
        ),
    ]
}

impl Stream {
    pub fn setup(seed: u64, scale: Scale, dir: &Path) -> Stream {
        let compiler = Arc::new(Compiler::new(DeviceConfig::tesla_c2070()));
        let mut static_total = 0;
        let pipes = cases()
            .into_iter()
            .enumerate()
            .map(|(i, (problem, imp))| {
                let input = Input::generate(problem, seed.wrapping_add(i as u64));
                let mut app =
                    AppPipeline::build(compiler.clone(), &input, imp, PipelineConfig::PLAIN);
                app.p.refresh().expect("set-up refresh");
                // Warm-up round: first-touch of every buffer, and proof
                // the pipeline verifies before the clock starts.
                app.round(&input).expect("warm-up round");
                app.p.clear_timings();
                static_total += static_insts(&app.binary());
                (input, app)
            })
            .collect();
        Stream {
            pipes,
            static_insts: static_total,
            rounds: scale.of(ROUNDS, 2),
            replayer: Replayer::new(dir),
        }
    }
}

impl Workload for Stream {
    fn lap(&mut self, tr: &mut Tracer) -> Lap {
        let mut lap = Lap::default();
        lap.add("static_insts", self.static_insts);
        for _ in 0..self.rounds {
            tr.next_op();
            let mut runs = Vec::new();
            let op = tr.enter("op", Kind::Boundary);
            let t0 = Instant::now();
            let mut result = Ok(());
            for (input, app) in &mut self.pipes {
                let span = tr.enter("pf.run", Kind::Boundary);
                let ran = app.run();
                tr.exit(span);
                runs.push(span);
                result = result.and(ran.and_then(|()| app.verify(input)));
            }
            let dt = t0.elapsed();
            tr.exit(op);
            let verified = result.is_ok();
            lap.op(dt, result);
            for ((_, app), span) in self.pipes.iter_mut().zip(runs) {
                lap.absorb_reports(app, true, true);
                if tr.on() && verified {
                    self.replayer.launches(tr, &mut lap, span, app);
                }
            }
        }
        lap
    }

    fn hash_inputs(&self, h: &mut StableHasher) {
        for (input, _) in &self.pipes {
            input.hash_into(h);
        }
    }
}
