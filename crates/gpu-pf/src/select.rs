//! Which binary a module serves: one function picks it, one binds it.
//!
//! A parametric kernel is a list of (constraints on parameters, kernel)
//! pairs; ours is the compiler's cache, and a binary's constraint is its
//! [`Binary::defines`]: it is *valid* for the current macro bindings iff
//! every define it was compiled with is among them
//! ([`Binary::valid_for`]; the generic, define-free binary is valid
//! everywhere). [`select`] is the whole ladder (table in DESIGN §9) and
//! `Module::bind` the only code that writes what a module serves and the
//! books that go with it: refresh, promotion (success and failure) and
//! integrity conviction all end there. The serving fields are private to
//! this file, so a second bind site does not compile.

use crate::{log::Logger, MacroBinding, PfError, PfMetrics};
use ks_core::{Binary, CompileError, CompileTicket, Compiler, Defines, Fingerprint};
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

/// How [`crate::Pipeline::refresh`] obtains a module's exact variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RefreshMode {
    /// Compile every dirty module synchronously inside `refresh()` —
    /// the original GPU-PF behavior: refresh returns only when every
    /// module holds its exact specialized binary (or has degraded).
    #[default]
    Blocking,
    /// Tiered execution: `refresh()` never waits for a specialized
    /// compile. A dirty module serves its exact variant at once when the
    /// cache already has it; otherwise a binary that is valid for the new
    /// bindings (the one it holds, else the generic) while the exact
    /// variant compiles on the background tier, and is hot-swapped when
    /// its [`CompileTicket`] resolves. In-flight launches keep the binary
    /// they pinned at launch time.
    Tiered,
}

/// Which binary a module is serving, relative to its current bindings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Tier {
    /// Not refreshed yet.
    #[default]
    Generic,
    /// Serving a valid interim binary while the exact variant compiles
    /// in the background.
    Promoting,
    /// Serving the binary compiled for exactly the current bindings.
    Specialized,
    /// The exact variant failed to compile or was convicted by the
    /// integrity witness; the module serves its recorded fallback and
    /// the next refresh retries.
    Failed,
}

/// Registry label value for one tier, used in the
/// `gpu_pf.tier.dwell_us.<tier>` dwell histogram names.
pub(crate) fn tier_label(t: Tier) -> &'static str {
    match t {
        Tier::Generic => "generic",
        Tier::Promoting => "promoting",
        Tier::Specialized => "specialized",
        Tier::Failed => "failed",
    }
}

/// What a module serves after its exact variant failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FallbackKind {
    /// A binary valid for the current bindings — the generic (no `-D`)
    /// kernel: correct results via runtime arguments, without the
    /// specialized variant's performance.
    Generic,
    /// The binary the module already held although it is *not* valid for
    /// the current bindings: results are visibly stale. The ladder's last
    /// rung, reached only when the generic compile fails too.
    LastKnownGood,
}

/// Record of one graceful degradation.
#[derive(Debug, Clone)]
pub struct Degradation {
    /// Resource index of the module that degraded.
    pub module: usize,
    pub fallback: FallbackKind,
    /// The compile error (or integrity verdict) that forced the fallback.
    pub error: String,
    /// Canonical cache key of the *failed* variant, so reports name the
    /// exact artifact — the same identity `ks-store` records carry on
    /// disk (its `Display` is the 32-hex form).
    pub key: Fingerprint,
    /// The failed variant's rendered `-D` command line (empty for a
    /// generic compile).
    pub defines: String,
}

/// Canonical identity of the binary a module serves: the
/// [`Compiler::cache_key`] over the module source and the binary's
/// *actual* compile defines (which, for a degraded module, differ from
/// the requested specialization).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoundKey {
    /// Canonical cache key; its low 64 bits are what keyed launch-fault
    /// selectors (`ks_fault::Target::Key`) match on.
    pub fingerprint: Fingerprint,
    /// Rendered `-D` command line of the bound binary.
    pub defines: Arc<str>,
}

/// Per-pipeline promotion accounting (tiered mode): this pipeline's
/// share of the `gpu_pf.promotions*` registry counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PromotionStats {
    /// Modules hot-swapped to their specialized binary.
    pub promoted: u64,
    /// Background specializations that failed (module kept fallback).
    pub failed: u64,
    /// In-flight promotions cancelled because the module was re-dirtied
    /// before the ticket resolved.
    pub superseded: u64,
    /// Promotions currently in flight.
    pub pending: u64,
}

/// An in-flight background specialization; the `tier_swap` span and the
/// promotion-latency histogram cover `started` → hot-swap.
struct Pending {
    ticket: CompileTicket,
    started: Instant,
}

/// Why a module is not on its exact variant: the error, and the defines
/// of the variant that failed (or was convicted).
struct Failure {
    error: String,
    failed: Defines,
}

/// What [`select`] chose. Neither `pending` nor `failure` means `binary`
/// is the exact variant.
pub(crate) struct Choice {
    binary: Arc<Binary>,
    pending: Option<Pending>,
    failure: Option<Failure>,
}

impl Choice {
    fn new(binary: Arc<Binary>, failed: Option<(String, &Defines)>) -> Choice {
        let failure = failed.map(|(error, defs)| Failure {
            error,
            failed: defs.clone(),
        });
        Choice {
            binary,
            pending: None,
            failure,
        }
    }
}

/// The pipeline's side of a bind — compiler, counters, log, degradation
/// list — split off from the resources so a module can be borrowed
/// mutably next to them.
pub(crate) struct Books<'a> {
    pub(crate) compiler: &'a Arc<Compiler>,
    pub(crate) metrics: &'a PfMetrics,
    pub(crate) scope: &'a ks_trace::Scope<'static>,
    pub(crate) log: &'a Logger,
    pub(crate) degradations: &'a mut Vec<Degradation>,
}

/// Canonical identity of a (source, defines) variant under `compiler`.
pub(crate) fn variant_key(compiler: &Compiler, source: &str, defs: &Defines) -> BoundKey {
    BoundKey {
        fingerprint: compiler.cache_key(source, defs),
        defines: defs.command_line().into(),
    }
}

/// `Blocking`'s inline compile of the exact variant, with the
/// Appendix-G-style refresh report.
fn compile_reported(
    books: &Books,
    i: usize,
    source: &str,
    want: &Defines,
) -> Result<Arc<Binary>, CompileError> {
    let hits = books.compiler.cache_stats().hits;
    let bin = books.compiler.compile(source, want)?;
    books.log.line_with(|| {
        let how = if books.compiler.cache_stats().hits > hits {
            "cache hit".to_string()
        } else {
            format!("compiled in {:?}: {}", bin.compile_time, bin.metrics)
        };
        let kernels: Vec<&str> = bin.module.functions.iter().map(|f| &*f.name).collect();
        let defs = want.command_line();
        format!(
            "module[{i}]: compile [{defs}] -> {} ({how})",
            kernels.join(",")
        )
    });
    // Analysis diagnostics and translation-validation findings that did
    // not deny the compile (deny-level ones already failed it).
    for d in &bin.diagnostics {
        books.log.line_with(|| format!("module[{i}]: {d}"));
    }
    if !bin.verification.is_empty() {
        let errors = bin.verification.iter().filter(|f| f.is_error()).count();
        let n = bin.verification.len();
        books
            .log
            .line_with(|| format!("module[{i}]: verification: {n} finding(s), {errors} error(s)"));
        for f in &bin.verification {
            books.log.line_with(|| format!("module[{i}]: {f}"));
        }
    }
    Ok(bin)
}

/// The rungs below "exact". `exact_err` is why the exact variant is out
/// (`None`: it is merely not ready yet).
fn fall_back(
    books: &Books,
    source: &str,
    held: Option<&Arc<Binary>>,
    want: &Defines,
    exact_err: Option<CompileError>,
) -> Result<Choice, PfError> {
    let _span = exact_err.as_ref().map(|e| {
        ks_trace::span_fields("refresh-fallback", || {
            vec![("error".to_string(), e.message.clone())]
        })
    });
    let generic = Defines::new();
    let servable = match (held.filter(|h| h.valid_for(want)), exact_err) {
        (Some(valid), exact_err) => Ok((valid.clone(), exact_err)),
        // A define-free `want` *is* the generic variant, and it failed.
        (None, Some(e)) if want.is_empty() => Err((e, want)),
        (None, exact_err) => match books.compiler.compile(source, &generic) {
            Ok(binary) => Ok((binary, exact_err)),
            Err(e) => Err(exact_err.map_or((e, &generic), |first| (first, want))),
        },
    };
    match (servable, held) {
        (Ok((binary, e)), _) => Ok(Choice::new(binary, e.map(|e| (e.to_string(), want)))),
        (Err((e, blamed)), Some(stale)) => {
            Ok(Choice::new(stale.clone(), Some((e.to_string(), blamed))))
        }
        (Err((e, _)), None) => Err(PfError::Compile(e)),
    }
}

/// Pick the binary module `i` serves under the bindings `want`, given the
/// one it `held` — the whole ladder, in order of preference:
///
/// 1. the exact variant when it can be had now: compiled inline under
///    [`RefreshMode::Blocking`]; under [`RefreshMode::Tiered`] a ticket
///    that [`Compiler::spawn_compile`] resolved before returning it (the
///    cache or the store had the binary);
/// 2. the held binary if it is valid for `want`;
/// 3. the generic binary;
/// 4. the held binary although it is stale (last-known-good) — only when
///    the generic itself cannot be had;
///
/// rungs 2–4 carrying the pending ticket, or the failure that put a rung
/// above out of reach. Nothing servable is the only error. Tiered settles
/// rungs 2–4 *before* it spawns, so a seeded fault plan sees this
/// thread's compiles and the worker's in one order.
pub(crate) fn select(
    books: &Books,
    i: usize,
    source: &str,
    held: Option<&Arc<Binary>>,
    want: &Defines,
    mode: RefreshMode,
) -> Result<Choice, PfError> {
    // A define-free module's generic binary *is* its exact variant, so
    // there is nothing to serve meanwhile: compile it in place.
    if mode == RefreshMode::Blocking || want.is_empty() {
        return match compile_reported(books, i, source, want) {
            Ok(binary) => Ok(Choice::new(binary, None)),
            Err(e) => fall_back(books, source, held, want, Some(e)),
        };
    }
    let interim = fall_back(books, source, held, want, None)?;
    let ticket = books.compiler.spawn_compile(source, want);
    if ticket.resolved_at_spawn() {
        if let Some(Ok(binary)) = ticket.try_result() {
            return Ok(Choice::new(binary, None));
        }
    }
    books.log.line_with(|| {
        let defs = want.command_line();
        format!(
            "module[{i}]: specializing [{defs}] in background (key {})",
            ticket.key()
        )
    });
    let started = Instant::now();
    Ok(Choice {
        pending: Some(Pending { ticket, started }),
        ..interim
    })
}

/// A module resource: its source and macro bindings, and — private to
/// this file — what it serves.
pub(crate) struct Module {
    pub(crate) source: String,
    pub(crate) bindings: Vec<(String, MacroBinding)>,
    /// The bound binary and its canonical identity.
    served: Option<(Arc<Binary>, BoundKey)>,
    /// The bindings of the last refresh: what `served` is judged against.
    want: Defines,
    tier: Tier,
    /// When the module entered its current tier.
    tier_since: Instant,
    pending: Option<Pending>,
}

impl Module {
    pub(crate) fn new(source: &str, bindings: Vec<(&str, MacroBinding)>) -> Module {
        Module {
            source: source.to_string(),
            bindings: bindings
                .into_iter()
                .map(|(n, b)| (n.to_string(), b))
                .collect(),
            served: None,
            want: Defines::new(),
            tier: Tier::Generic,
            tier_since: Instant::now(),
            pending: None,
        }
    }

    pub(crate) fn served(&self) -> Option<&(Arc<Binary>, BoundKey)> {
        self.served.as_ref()
    }

    pub(crate) fn binary(&self) -> Option<&Arc<Binary>> {
        self.served.as_ref().map(|(bin, _)| bin)
    }

    pub(crate) fn tier(&self) -> Tier {
        self.tier
    }

    /// The in-flight promotion's ticket, if any.
    pub(crate) fn ticket(&self) -> Option<&CompileTicket> {
        self.pending.as_ref().map(|p| &p.ticket)
    }

    /// Whether `refresh()` has to look at this module: never bound, a
    /// bound parameter changed, or it sits on a recorded fallback with no
    /// promotion in flight — the half-open probe of the fallback path:
    /// every refresh retries, even when no parameter changed.
    pub(crate) fn needs_refresh(&self, dirty: &BTreeSet<usize>) -> bool {
        self.served.is_none()
            || (self.tier == Tier::Failed && self.pending.is_none())
            || self.bindings.iter().any(|(_, b)| match b {
                MacroBinding::Param(p) => dirty.contains(&p.0),
                MacroBinding::Literal(_) => false,
            })
    }

    /// Re-select under the bindings `want` and bind the choice. An
    /// in-flight promotion is superseded first (cancelled, its result
    /// discarded): the bindings it compiled under are stale, and
    /// hot-swapping its binary in would pin old macro values.
    pub(crate) fn refresh(
        &mut self,
        books: &mut Books,
        i: usize,
        want: Defines,
        mode: RefreshMode,
    ) -> Result<(), PfError> {
        if let Some(stale) = self.pending.take() {
            stale.ticket.cancel();
            books.metrics.promotions_superseded.inc();
            books.log.line_with(|| {
                format!("module[{i}]: superseded in-flight promotion (parameters re-dirtied)")
            });
        }
        let choice = select(books, i, &self.source, self.binary(), &want, mode)?;
        self.want = want;
        self.bind(books, i, choice);
        Ok(())
    }

    /// Apply the promotion ticket if it has resolved: hot-swap to the
    /// exact variant, or keep what is served and record why. Returns
    /// whether the module was promoted.
    pub(crate) fn poll(&mut self, books: &mut Books, i: usize) -> bool {
        let Some(result) = self.ticket().and_then(CompileTicket::try_result) else {
            return false;
        };
        let (Some(p), Some(held)) = (self.pending.take(), self.binary().cloned()) else {
            return false;
        };
        let choice = match &result {
            Ok(binary) => {
                let took = p.started.elapsed();
                books.metrics.promotions.inc();
                books.metrics.promotion_latency_us.record_duration_us(took);
                // Span covering spawn → hot-swap: the window the module
                // served its interim binary.
                ks_trace::complete_span("tier_swap", p.started);
                books.log.line_with(|| {
                    format!("module[{i}]: promoted to specialized binary after {took:?}")
                });
                Choice::new(binary.clone(), None)
            }
            Err(e) => {
                books.metrics.promotions_failed.inc();
                Choice::new(held, Some((e.to_string(), &self.want)))
            }
        };
        self.bind(books, i, choice);
        result.is_ok()
    }

    /// Quarantine the served variant after the integrity witness
    /// convicted it: the witness's `generic` binary takes over, and the
    /// record names the convicted variant.
    pub(crate) fn convict(
        &mut self,
        books: &mut Books,
        i: usize,
        generic: Arc<Binary>,
        error: String,
    ) {
        let Some(convicted) = self.binary().cloned() else {
            return;
        };
        let mut quarantined = Choice::new(generic, Some((error, &convicted.defines)));
        quarantined.pending = self.pending.take();
        self.bind(books, i, quarantined);
    }

    /// The one place a module's serving state is written: binary and
    /// bound key, pending promotion, tier (with the dwell of the one it
    /// leaves), and — when `choice` carries a failure — the fallback
    /// counter, the [`Degradation`] record and the log line.
    fn bind(&mut self, books: &mut Books, i: usize, choice: Choice) {
        let tier = match (&choice.failure, &choice.pending) {
            (Some(_), _) => Tier::Failed,
            (None, Some(_)) => Tier::Promoting,
            (None, None) => Tier::Specialized,
        };
        if let Some(Failure { error, failed }) = choice.failure {
            let fallback = if choice.binary.valid_for(&self.want) {
                books.metrics.fallback_generic.inc();
                FallbackKind::Generic
            } else {
                books.metrics.fallback_last_good.inc();
                FallbackKind::LastKnownGood
            };
            let BoundKey {
                fingerprint: key,
                defines,
            } = variant_key(books.compiler, &self.source, &failed);
            books.log.line_with(|| {
                format!(
                    "module[{i}]: {error}; serving {fallback:?} fallback \
                     (failed variant {key} [{defines}])"
                )
            });
            books.degradations.push(Degradation {
                module: i,
                fallback,
                error,
                key,
                defines: defines.to_string(),
            });
        }
        // The scope chain rolls the dwell sample up through the
        // per-module, per-pipeline and global histograms.
        let left = std::mem::replace(&mut self.tier, tier);
        let dwell = std::mem::replace(&mut self.tier_since, Instant::now()).elapsed();
        books
            .scope
            .scoped(&[("module", &i.to_string())])
            .histogram(&ks_trace::names::pf_tier_dwell_us(tier_label(left)))
            .record_duration_us(dwell);
        if self
            .binary()
            .is_none_or(|b| !Arc::ptr_eq(b, &choice.binary))
        {
            let key = variant_key(books.compiler, &self.source, &choice.binary.defines);
            self.served = Some((choice.binary, key));
        }
        self.pending = choice.pending;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::{scale_pipeline, SCALE_SRC};
    use crate::ResId;
    use ks_fault::{FaultKind, FaultPlan, FaultRule, Target};
    use ks_sim::DeviceConfig;
    use FallbackKind::LastKnownGood;
    use RefreshMode::{Blocking, Tiered};

    /// What the module holds when the refresh under test starts.
    #[derive(Clone, Copy)]
    enum Held {
        Nothing,
        /// The generic binary (an earlier refresh degraded onto it).
        Generic,
        /// The FACTOR=3 specialization — stale for FACTOR=5.
        Stale,
    }

    /// Which compiles the seeded plan fails, persistently.
    #[derive(Clone, Copy)]
    enum Fail {
        /// Every specialized (`-D FACTOR=…`) compile.
        AnySpecialized,
        /// The FACTOR=5 compile only (FACTOR=3 can be held).
        Exact,
        /// The define-free compile.
        Generic,
    }

    /// Which binary serves when `refresh()` returns.
    #[derive(Debug, PartialEq)]
    enum Served {
        Exact,
        Generic,
        Stale,
    }

    struct Expect {
        served: Served,
        at_return: Tier,
        /// After `wait_promotions()`.
        settled: Tier,
        fallback: Option<FallbackKind>,
        promoted: u64,
        promotion_failed: u64,
    }

    /// (name, mode, failing compiles, held, exact variant already cached,
    /// expectation — `None`: nothing servable, the refresh fails).
    type Row = (
        &'static str,
        RefreshMode,
        &'static [Fail],
        Held,
        bool,
        Option<Expect>,
    );

    const fn expect(
        served: Served,
        at_return: Tier,
        settled: Tier,
        fallback: Option<FallbackKind>,
        promoted: u64,
        promotion_failed: u64,
    ) -> Option<Expect> {
        Some(Expect {
            served,
            at_return,
            settled,
            fallback,
            promoted,
            promotion_failed,
        })
    }

    /// Every rung of the ladder in both modes, each row one refresh to
    /// FACTOR=5 under a seeded fault plan: which binary serves, what the
    /// tier says, and that each event is booked exactly once.
    #[test]
    fn select_ladder_every_rung_in_both_modes() {
        use Tier::{Failed, Promoting, Specialized};
        let generic = Some(FallbackKind::Generic);
        #[rustfmt::skip]
        let rows: [Row; 10] = [
            ("exact/blocking", Blocking, &[], Held::Nothing, false,
             expect(Served::Exact, Specialized, Specialized, None, 0, 0)),
            ("exact/tiered", Tiered, &[], Held::Stale, true,
             expect(Served::Exact, Specialized, Specialized, None, 0, 0)),
            ("held-valid/blocking", Blocking, &[Fail::AnySpecialized], Held::Generic, false,
             expect(Served::Generic, Failed, Failed, generic, 0, 0)),
            ("held-valid/tiered", Tiered, &[Fail::AnySpecialized], Held::Generic, false,
             expect(Served::Generic, Promoting, Failed, generic, 0, 1)),
            ("generic/blocking", Blocking, &[Fail::AnySpecialized], Held::Nothing, false,
             expect(Served::Generic, Failed, Failed, generic, 0, 0)),
            ("generic/tiered", Tiered, &[], Held::Stale, false,
             expect(Served::Generic, Promoting, Specialized, None, 1, 0)),
            ("last-known-good/blocking", Blocking, &[Fail::Exact, Fail::Generic], Held::Stale, false,
             expect(Served::Stale, Failed, Failed, Some(LastKnownGood), 0, 0)),
            ("last-known-good/tiered", Tiered, &[Fail::Generic], Held::Stale, false,
             expect(Served::Stale, Failed, Specialized, Some(LastKnownGood), 1, 0)),
            ("nothing/blocking", Blocking, &[Fail::AnySpecialized, Fail::Generic], Held::Nothing,
             false, None),
            ("nothing/tiered", Tiered, &[Fail::Generic], Held::Nothing, false, None),
        ];
        let device = DeviceConfig::tesla_c1060;
        let keys = Compiler::new(device());
        let want = Defines::new().def("FACTOR", 5);
        for (name, mode, fails, held, cached, expected) in rows {
            let mut plan = FaultPlan::new(24);
            for fail in fails {
                let target = match fail {
                    Fail::AnySpecialized => Target::Define("FACTOR".into()),
                    Fail::Exact => Target::Define("FACTOR=5".into()),
                    Fail::Generic => Target::Key(keys.cache_key(SCALE_SRC, &Defines::new()).lo64()),
                };
                plan = plan.rule(FaultRule::new(FaultKind::CompileError, target).persistent());
            }
            let c = Arc::new(Compiler::new(device()).with_fault_plan(Arc::new(plan)));
            let (mut p, factor, _, _) = scale_pipeline(c.clone());
            p.set_label(name);
            let m = ResId(4);
            // Blocking set-up refresh at FACTOR=3: degrades onto the
            // generic under `AnySpecialized`, else holds FACTOR=3.
            if !matches!(held, Held::Nothing) {
                p.refresh().unwrap();
                let on_generic = p.kernel_binary(ResId(5)).defines.is_empty();
                assert_eq!(on_generic, matches!(held, Held::Generic), "{name}: set-up");
            }
            if cached {
                c.compile(SCALE_SRC, &want).unwrap();
            }
            let counter = |p: &crate::Pipeline, base: &str| {
                ks_trace::registry().counter_value(&p.metric_name(base))
            };
            let books = |p: &crate::Pipeline| {
                (
                    p.degradations().len(),
                    counter(p, ks_trace::names::PF_FALLBACK_GENERIC),
                    counter(p, ks_trace::names::PF_FALLBACK_LAST_GOOD),
                    p.promotion_stats(),
                )
            };
            let before = books(&p);

            p.set_refresh_mode(mode);
            p.set_int(factor, 5);
            let refreshed = p.refresh();
            let Some(e) = expected else {
                assert!(matches!(refreshed, Err(PfError::Compile(_))), "{name}");
                assert_eq!(books(&p), before, "{name}: a failed refresh books nothing");
                continue;
            };
            refreshed.unwrap_or_else(|err| panic!("{name}: {err}"));
            let module = p.module_at(m.0).unwrap();
            let bin = module.binary().unwrap();
            let served = if bin.defines == want {
                Served::Exact
            } else if bin.valid_for(&want) {
                Served::Generic
            } else {
                Served::Stale
            };
            assert_eq!(served, e.served, "{name}");
            assert_eq!(
                module.tier, e.at_return,
                "{name}: tier when refresh returns"
            );
            assert_eq!(
                module.pending.is_some(),
                mode == Tiered && !cached,
                "{name}: a ticket is pending iff the exact variant was spawned"
            );
            p.wait_promotions();
            assert_eq!(p.module_tier(m), Some(e.settled), "{name}: settled tier");

            let after = books(&p);
            let moved = |kind| u64::from(e.fallback == Some(kind));
            assert_eq!(
                after.0 - before.0,
                usize::from(e.fallback.is_some()),
                "{name}"
            );
            assert_eq!(after.1 - before.1, moved(FallbackKind::Generic), "{name}");
            assert_eq!(after.2 - before.2, moved(LastKnownGood), "{name}");
            assert_eq!(after.3.promoted - before.3.promoted, e.promoted, "{name}");
            assert_eq!(
                after.3.failed - before.3.failed,
                e.promotion_failed,
                "{name}"
            );
            assert_eq!((after.3.superseded, after.3.pending), (0, 0), "{name}");
            if let Some(kind) = e.fallback {
                let d = p.degradations().last().unwrap();
                assert_eq!((d.module, d.fallback), (m.0, kind), "{name}");
                assert!(d.error.contains("injected fault"), "{name}: {}", d.error);
                // The record names the variant whose compile failed.
                let blamed = match (kind, mode) {
                    (LastKnownGood, Tiered) => Defines::new(),
                    _ => want.clone(),
                };
                assert_eq!(d.key, c.cache_key(SCALE_SRC, &blamed), "{name}");
                assert_eq!(d.defines, blamed.command_line(), "{name}");
            }
        }
    }
}
