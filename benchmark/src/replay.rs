//! Replay spans: right after an operation, off its clock, the same
//! inputs are re-issued directly to the public functions of the layers
//! beneath the call the workload made. A boundary span's self time is
//! then its own duration minus its replayed children — an estimate,
//! because the replay runs with warmer caches than the original and
//! without whatever ran concurrently with it (see README.md).

use crate::apps::{App, AppPipeline};
use crate::trace::{Kind, SpanId, Tracer};
use crate::workloads::churn::checked;
use crate::workloads::Lap;
use ks_core::{AnalysisConfig, Binary, Compiler, Defines};
use ks_sim::{DeviceConfig, LaunchDims, LaunchOptions};
use ks_store::Store;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// One cold compile to replay: what `Compiler::compile` was given, on
/// which device, and whether through the checked compiler.
pub struct CompileJob<'a> {
    pub device: &'a DeviceConfig,
    pub source: &'static str,
    pub defines: &'a Defines,
    pub checked: bool,
}

pub struct Replayer {
    /// Generic (define-free) binaries for `check_specialization`, by
    /// (source, device name).
    generic: HashMap<(&'static str, String), Arc<Binary>>,
    /// Where replayed publishes go.
    scratch: PathBuf,
    seq: u64,
}

impl Replayer {
    pub fn new(scratch: &Path) -> Replayer {
        Replayer {
            generic: HashMap::new(),
            scratch: scratch.join("replay"),
            seq: 0,
        }
    }

    fn fresh_dir(&mut self) -> PathBuf {
        self.seq += 1;
        self.scratch.join(self.seq.to_string())
    }

    /// Replay one cold compile under `parent` (a `Pipeline::refresh`
    /// that missed): the whole `Compiler::compile` on scratch compilers
    /// (plain, with a store attached, and — for a checked operation —
    /// with analysis and validation), then each phase on its own:
    /// lex → preprocess → parse → sema → lower → optimize (per pass) →
    /// IR verify → register allocation → PTX print.
    pub fn compile(&mut self, tr: &mut Tracer, lap: &mut Lap, parent: SpanId, job: CompileJob) {
        let CompileJob {
            device: dev,
            source,
            defines,
            checked: is_checked,
        } = job;
        tr.adopt(parent);
        let err = "replayed compile of a variant that compiled on the clock";
        let plain = tr.span("core.compile_cold", Kind::Replay, || {
            Compiler::new(dev.clone()).compile(source, defines)
        });
        let plain = plain.expect(err);
        let dir = self.fresh_dir();
        let stored = Compiler::new(dev.clone())
            .with_store(&dir)
            .expect("scratch store");
        tr.span("core.compile_store", Kind::Replay, || {
            stored.compile(source, defines).expect(err)
        });
        let _ = std::fs::remove_dir_all(&dir);
        if is_checked {
            // The compile path publishes its comparison count only to
            // the registry; nothing else compiles during a replay.
            let checks = || ks_trace::registry().counter_value(ks_trace::names::VERIFY_CHECKS);
            let before = checks();
            let c = checked(Compiler::new(dev.clone()));
            let bin = tr.span("core.compile_checked", Kind::Replay, || {
                c.compile(source, defines).expect(err)
            });
            lap.add("verify.checks", checks() - before);
            lap.add(
                "verify.inconclusive",
                bin.verification.iter().filter(|f| !f.is_error()).count() as u64,
            );
        }

        // Phase by phase, mirroring `Compiler::compile`'s miss path.
        let phases = tr.enter("core.phases", Kind::Replay);
        let mut all_defines = vec![(
            "__CUDA_ARCH__".to_string(),
            format!("{}{}0", dev.cc_major, dev.cc_minor),
        )];
        all_defines.extend(defines.items().iter().cloned());
        let toks = tr.span("lang.lex", Kind::Replay, || ks_lang::lexer::lex(source));
        let toks = toks.expect(err);
        lap.add("lang.tokens", toks.len() as u64);
        let pp = tr.span("lang.preproc", Kind::Replay, || {
            ks_lang::preproc::preprocess(toks, &all_defines)
        });
        let unit = tr.span("lang.parse", Kind::Replay, || {
            ks_lang::parser::parse(pp.expect(err))
        });
        let unit = unit.expect(err);
        let program = tr.span("lang.sema", Kind::Replay, || ks_lang::sema::check(&unit));
        let program = program.expect(err);
        let module = tr.span("codegen.lower", Kind::Replay, || {
            ks_codegen::compile(&program, &Default::default())
        });
        let mut module = module.expect(err);
        let opt = tr.enter("opt.total", Kind::Replay);
        for f in module.functions.iter_mut() {
            // A pass that changed nothing never reaches the observer, so
            // its time lands on the next pass that did (or only on
            // `opt.total` in the final, quiescent round).
            let mut since = Instant::now();
            let mut pass_us: Vec<(&'static str, Instant, Instant)> = Vec::new();
            let stats = ks_opt::optimize_with_observer(f, &Default::default(), &mut |pass, _| {
                let now = Instant::now();
                pass_us.push((pass, since, now));
                since = Instant::now();
            });
            lap.add("codegen.insts_out", stats.insts_before as u64);
            lap.add("opt.insts_in", stats.insts_before as u64);
            lap.add("opt.insts_out", stats.insts_after as u64);
            lap.add("opt.pass_calls", pass_us.len() as u64);
            lap.add("opt.folded", stats.folded as u64);
            lap.add("opt.strength_reduced", stats.strength_reduced as u64);
            lap.add("opt.addresses_folded", stats.addresses_folded as u64);
            lap.add("opt.cse_replaced", stats.cse_replaced as u64);
            lap.add("opt.dead_removed", stats.dead_removed as u64);
            for (pass, from, to) in pass_us {
                let name = match pass {
                    "constfold" => "opt.constfold",
                    "strength" => "opt.strength",
                    "addrfold" => "opt.addrfold",
                    "cse" => "opt.cse",
                    _ => "opt.dce",
                };
                tr.record(name, Kind::Replay, from, to);
            }
        }
        tr.exit(opt);
        let errors = tr.span("ir.verify", Kind::Replay, || ks_ir::verify_module(&module));
        assert!(errors.is_empty(), "{err}");
        let regs = tr.span("sim.regalloc", Kind::Replay, || {
            module
                .functions
                .iter()
                .map(|f| ks_sim::allocate(f).gpr_count)
                .max()
        });
        lap.max("sim.regs_max", regs.unwrap_or(0) as u64);
        let ptx = tr.span("ir.print", Kind::Replay, || {
            ks_ir::printer::print_module(&module)
        });
        lap.add("ir.ptx_bytes", ptx.len() as u64);
        if ptx != plain.ptx {
            // The per-phase numbers would describe some other pipeline.
            lap.fail(format!(
                "replayed phases rebuilt different PTX for [{}]",
                defines.command_line()
            ));
        }
        tr.exit(phases);

        if is_checked {
            tr.span("analysis.analyze", Kind::Replay, || {
                ks_analysis::analyze_module(&module, dev, &AnalysisConfig::default())
            });
            let generic = self
                .generic
                .entry((source, dev.name.clone()))
                .or_insert_with(|| {
                    Compiler::new(dev.clone())
                        .compile(source, Defines::new())
                        .expect("generic compile")
                })
                .clone();
            let report = tr.span("verify.spec", Kind::Replay, || {
                ks_verify::check_specialization(
                    &generic.module,
                    &module,
                    source,
                    defines.items(),
                    Default::default(),
                )
            });
            lap.add("verify.checks", report.checks as u64);
            lap.add("verify.inconclusive", report.warning_count() as u64);
        }
        tr.adopt(None);
    }

    /// Replay the launches of one verified round under `parent` (its
    /// `Pipeline::run`), on the pipeline's own device state: each
    /// kernel once as launched, once timing-only (sample blocks), and
    /// once with a one-block grid (the per-launch fixed cost).
    pub fn launches(
        &mut self,
        tr: &mut Tracer,
        lap: &mut Lap,
        parent: SpanId,
        app: &mut AppPipeline,
    ) {
        tr.adopt(parent);
        let bin = app.binary();
        let (name, insts) = match app.app() {
            App::Tm => ("sim.tm.launch", "sim.tm.replayed_insts"),
            App::Piv => ("sim.piv.launch", "sim.piv.replayed_insts"),
            App::Bp => ("sim.bp.launch", "sim.bp.replayed_insts"),
        };
        for (kernel, dims, args) in app.launches() {
            let one_block = LaunchDims {
                grid: (1, 1, 1),
                ..dims
            };
            for (span, dims, functional) in [
                (name, dims, true),
                ("sim.timing_only", dims, false),
                ("sim.one_block", one_block, true),
            ] {
                let opts = LaunchOptions {
                    functional,
                    ..app.p.launch_options
                };
                let state = &mut app.p.state;
                let report = tr
                    .span(span, Kind::Replay, || {
                        ks_sim::launch(state, &bin.module, kernel, dims, &args, opts)
                    })
                    .expect("replayed launch of a round that ran on the clock");
                if span == name {
                    lap.add(insts, report.stats.dyn_insts);
                }
            }
        }
        tr.adopt(None);
    }

    /// Replay the store side of a published variant under `parent`:
    /// `Store::load` of its record, then `Store::save` of that payload
    /// into an empty scratch store.
    pub fn publish(
        &mut self,
        tr: &mut Tracer,
        parent: SpanId,
        store: &Path,
        key: ks_core::Fingerprint,
    ) {
        tr.adopt(parent);
        let from = Store::open(store).expect("open lap store");
        let payload = from
            .load(key)
            .expect("read back a just-published record")
            .expect("record present after write-through");
        let dir = self.fresh_dir();
        let to = Store::open(&dir).expect("scratch store");
        let wrote = tr.span("store.save", Kind::Replay, || to.save(key, &payload));
        assert!(wrote.expect("scratch save"), "scratch store starts empty");
        let _ = std::fs::remove_dir_all(&dir);
        tr.adopt(None);
    }

    /// Replay a warm attach under `parent`: a full `Store::scrub` walk,
    /// then per variant a raw `Store::load` and a disk hit through a
    /// fresh `Compiler` (load + decode + cache insert).
    pub fn warm_attach(
        &mut self,
        tr: &mut Tracer,
        lap: &mut Lap,
        parent: SpanId,
        store: &Path,
        dev: &DeviceConfig,
        jobs: &[(&'static str, Defines)],
    ) {
        tr.adopt(parent);
        let s = Store::open(store).expect("open store");
        let report = tr.span("store.scrub", Kind::Replay, || s.scrub());
        let scanned = report.expect("scrub").scanned as u64;
        lap.add("store.scrubbed", scanned);
        let c = Compiler::new(dev.clone())
            .with_store(store)
            .expect("attach store");
        for (source, defines) in jobs {
            let key = c.cache_key(source, defines);
            tr.span("store.load", Kind::Replay, || s.load(key))
                .expect("load")
                .expect("published record");
            tr.span("core.disk_hit", Kind::Replay, || c.compile(source, defines))
                .expect("disk hit");
        }
        assert_eq!(c.cache_stats().disk_hits, jobs.len() as u64);
        tr.adopt(None);
    }
}

/// Record count and total record bytes of a store directory.
pub fn store_size(store: &Path) -> (u64, u64) {
    let mut records = 0;
    let mut bytes = 0;
    for fan in std::fs::read_dir(store).into_iter().flatten().flatten() {
        for rec in std::fs::read_dir(fan.path())
            .into_iter()
            .flatten()
            .flatten()
        {
            let p = rec.path();
            if p.extension().is_some_and(|x| x == ks_store::RECORD_EXT) {
                records += 1;
                bytes += rec.metadata().map_or(0, |m| m.len());
            }
        }
    }
    (records, bytes)
}
