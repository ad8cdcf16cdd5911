//! ks-verify: translation validation for the specialization pipeline.
//!
//! This crate checks two things the rest of the workspace can only assert
//! by testing:
//!
//! 1. **Pass-by-pass translation validation** — after each ks-opt pass and
//!    each ks-codegen HIR transform, the function must still mean the same
//!    thing. For a codegen stage, both versions are evaluated symbolically
//!    into canonical value-graph summaries (`summary::FnSummary`) along
//!    every explored path and compared (`diff::compare`); the first
//!    divergence comes back as a typed `VerifyDiff`. An optimizer pass
//!    step is checked block by block (`blockwise`, [`check_opt_step`]):
//!    each block pair runs once from one symbolic entry state, with entry
//!    facts derived from single definitions of *before* that dominate the
//!    block, and must agree on effects, exit and the registers live out of
//!    *after*; by induction over any execution that proves the step. A
//!    step with a block that does not match falls back to the path check
//!    of the whole function, whose verdicts stand
//!    ([`VerifyReport::block_fallbacks`] counts them).
//! 2. **Specialization equivalence** — a kernel compiled with `-D`
//!    defines (SK) must match the runtime-evaluated kernel (RE) once the
//!    RE summary is evaluated *under those bindings*: defines that replace
//!    parameter reads become parameter bindings, defines that replace
//!    `blockDim.x` reads become `ntid` bindings (`bindings`).
//!
//! Both sides of a comparison are summarized into one hash-consed
//! expression arena, so summary equality is plain `ExprId` equality; a
//! function followed through a sequence of transforms keeps one arena
//! per environment for the whole sequence (`SnapshotChain`) and is
//! summarized once per snapshot, not twice per comparison. Through the
//! optimizer, [`OptChain`] keeps each block's run from one step to the
//! next ([`optimize_checked`] drives it). Findings carry
//! `KSV` diagnostic codes in the same shape as ks-ir's `KSI` verifier errors and
//! the analyzer's `KSA` lints:
//!
//! * `KSV001` — an optimization/codegen stage changed observable behavior;
//! * `KSV002` — the specialized kernel diverges from the generic kernel
//!   under the given defines;
//! * `KSV003` — module shapes differ (function missing after a stage);
//! * `KSV101` — *warning*: the path check's budgets stopped evaluation
//!   before a verdict (inconclusive, not a miscompile).

mod bindings;
mod blockwise;
mod diff;
mod expr;
pub mod mutate;
mod pipeline;
mod summary;

pub use pipeline::{codegen_checked, optimize_checked};
pub use summary::Limits;

use bindings::derive_bindings;
use diff::Outcome;
use expr::Arena;
use ks_ir::{Function, Module};
use ks_trace::Json;
use std::fmt;
use summary::{Env, FnSummary, Summarizer};

/// One verification finding.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    /// Diagnostic code: `KSV001`/`KSV002`/`KSV003` (errors), `KSV101`
    /// (warning).
    pub code: &'static str,
    /// What was being checked ("pass constfold", "spec RB=4,THREADS=64").
    pub context: String,
    /// Environment label the divergence was observed under.
    pub env: String,
    pub function: String,
    pub message: String,
}

impl Finding {
    /// What a comparison's outcome reports, if anything: `diff_code` for
    /// a divergence, `KSV101` when the budgets stopped it.
    fn of(
        outcome: Outcome,
        diff_code: &'static str,
        context: &str,
        env: &str,
        function: &str,
    ) -> Option<Finding> {
        let (code, message) = match outcome {
            Outcome::Equal => return None,
            Outcome::Inconclusive(msg) => ("KSV101", msg),
            Outcome::Diff(d) => (diff_code, format!("{:?}: {}", d.kind, d.detail)),
        };
        Some(Finding {
            code,
            context: context.to_string(),
            env: env.to_string(),
            function: function.to_string(),
            message,
        })
    }

    /// Errors deny compilation; warnings are informational.
    pub fn is_error(&self) -> bool {
        self.code.starts_with("KSV0")
    }

    /// Single-line JSON export (JSONL-friendly), rendered by
    /// [`ks_trace::Json`].
    pub fn to_json(&self) -> String {
        Json::obj(vec![
            ("code", Json::str(self.code)),
            (
                "severity",
                Json::str(if self.is_error() { "error" } else { "warning" }),
            ),
            ("context", Json::str(&self.context)),
            ("env", Json::str(&self.env)),
            ("function", Json::str(&self.function)),
            ("message", Json::str(&self.message)),
        ])
        .render()
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}]: {}: {} [{}]: {}",
            if self.is_error() { "error" } else { "warning" },
            self.code,
            self.context,
            self.function,
            self.env,
            self.message
        )
    }
}

/// Every code a [`Finding`] carries, errors first.
pub const CODES: [&str; 4] = ["KSV001", "KSV002", "KSV003", "KSV101"];

/// Version of the validator's verdicts: bumped whenever the same input
/// can come back with different findings, so a compile cache keyed on it
/// never serves a list an older validator wrote.
pub const VALIDATOR_VERSION: u32 = 2;

/// Aggregate result of a verification run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct VerifyReport {
    /// Number of comparisons performed. A codegen stage or a
    /// specialization check counts one per (function, environment). An
    /// optimizer pass step counts one per (function, step) for the block
    /// check, plus one per environment of the path check when it fell
    /// back to it.
    pub checks: usize,
    /// Optimizer pass steps whose block check did not match and went to
    /// the whole-function path check.
    pub block_fallbacks: usize,
    pub findings: Vec<Finding>,
}

impl VerifyReport {
    pub fn error_count(&self) -> usize {
        self.findings.iter().filter(|f| f.is_error()).count()
    }

    pub fn warning_count(&self) -> usize {
        self.findings.len() - self.error_count()
    }

    pub fn is_clean(&self) -> bool {
        self.error_count() == 0
    }

    pub fn merge(&mut self, other: VerifyReport) {
        self.checks += other.checks;
        self.block_fallbacks += other.block_fallbacks;
        self.findings.extend(other.findings);
    }
}

/// Default environment set for pass-by-pass translation validation: one
/// fully symbolic evaluation plus two concrete thread samples (which drive
/// concrete loop bounds through guards the symbolic run truncates).
pub fn default_envs() -> Vec<Env> {
    vec![
        Env::symbolic(),
        Env::sample([0, 0, 0], [0, 0, 0]),
        Env::sample([3, 1, 0], [2, 1, 0]),
    ]
}

/// Environment set for specialization checks. Thread samples are clamped
/// to the block shape the defines fix, so samples stay in-range.
fn spec_envs(ntid: [Option<i64>; 3]) -> Vec<Env> {
    let clamp = |v: i64, axis: usize| match ntid[axis] {
        Some(n) if n > 0 => v.min(n - 1),
        _ => v,
    };
    let mut envs = vec![Env::symbolic()];
    for (tid, ctaid) in [
        ([0, 0, 0], [0, 0, 0]),
        ([1, 0, 0], [0, 0, 0]),
        ([clamp(13, 0), clamp(3, 1), 0], [2, 1, 0]),
    ] {
        let t = [clamp(tid[0], 0), clamp(tid[1], 1), clamp(tid[2], 2)];
        let e = Env::sample(t, ctaid);
        if !envs.contains(&e) {
            envs.push(e);
        }
    }
    envs
}

/// One function followed through a sequence of transforms: every
/// snapshot is summarized once per environment, compared with the
/// snapshot before it, and carried forward as the next comparison's
/// "pre" — N transforms cost N+1 summaries per environment, not 2N.
///
/// Each environment keeps one `Arena` for the whole chain. That cannot
/// change a verdict: canonical forms and `ExprId` equality depend only on
/// which expressions are equal, not on what else the arena holds;
/// [`Limits`] bound paths, steps and forks, never arena size; and an
/// inconclusive message renders no expression.
struct SnapshotChain<'e> {
    envs: &'e [Env],
    limits: Limits,
    function: String,
    /// Per environment: its arena and the latest snapshot's summary.
    latest: Vec<(Arena, FnSummary)>,
}

impl<'e> SnapshotChain<'e> {
    /// Start a chain at `f` (module `ctx` names its consts and textures).
    fn new(f: &Function, ctx: &Module, envs: &'e [Env], limits: Limits) -> Self {
        let latest = envs
            .iter()
            .map(|env| {
                let mut arena = Arena::new();
                let first = Summarizer::new(&mut arena, limits).summarize(f, ctx, env);
                (arena, first)
            })
            .collect();
        SnapshotChain {
            envs,
            limits,
            function: f.name.clone(),
            latest,
        }
    }

    /// Name of the function this chain follows.
    fn function(&self) -> &str {
        &self.function
    }

    /// Compare `f`, the function after the transform `context` names,
    /// with the previous snapshot under every environment; `f` becomes
    /// the previous snapshot.
    fn step(&mut self, f: &Function, ctx: &Module, context: &str) -> VerifyReport {
        let mut report = VerifyReport::default();
        for (env, (arena, pre)) in self.envs.iter().zip(&mut self.latest) {
            report.checks += 1;
            let post = Summarizer::new(arena, self.limits).summarize(f, ctx, env);
            // One diff per (function, env) is enough: later envs often
            // repeat the same first divergence.
            let outcome = diff::compare(arena, pre, &post);
            let finding = Finding::of(outcome, "KSV001", context, &env.label, &self.function);
            report.findings.extend(finding);
            *pre = post;
        }
        report
    }
}

/// A module followed through a sequence of whole-module transforms (the
/// codegen stages): one `SnapshotChain` per function.
pub struct ModuleChain<'e> {
    envs: &'e [Env],
    limits: Limits,
    /// `None` until the first snapshot arrives.
    functions: Option<Vec<SnapshotChain<'e>>>,
}

impl<'e> ModuleChain<'e> {
    pub fn new(envs: &'e [Env], limits: Limits) -> Self {
        ModuleChain {
            envs,
            limits,
            functions: None,
        }
    }

    /// Take the next snapshot. The first one only starts the chains;
    /// every later one compares each function of the snapshot before it
    /// with its namesake in `m` (`context` names the transform between).
    pub fn step(&mut self, m: &Module, context: &str) -> VerifyReport {
        let mut report = VerifyReport::default();
        let Some(chains) = &mut self.functions else {
            let start = |f| SnapshotChain::new(f, m, self.envs, self.limits);
            self.functions = Some(m.functions.iter().map(start).collect());
            return report;
        };
        chains.retain_mut(|chain| match m.function(chain.function()) {
            Some(f) => {
                report.merge(chain.step(f, m, context));
                true
            }
            None => {
                report.findings.push(Finding {
                    code: "KSV003",
                    context: context.to_string(),
                    env: String::new(),
                    function: chain.function().to_string(),
                    message: "function missing after transform".into(),
                });
                false
            }
        });
        report
    }
}

/// Compare one function before/after a transform under `envs`: the
/// two-snapshot `SnapshotChain`.
pub fn check_function_pair(
    pre_f: &Function,
    pre_m: &Module,
    post_f: &Function,
    post_m: &Module,
    envs: &[Env],
    limits: Limits,
    context: &str,
) -> VerifyReport {
    SnapshotChain::new(pre_f, pre_m, envs, limits).step(post_f, post_m, context)
}

/// Check one optimizer pass step of one function: the block check
/// (`blockwise`), and when a block does not match, the whole-function
/// path check under [`default_envs`] with its own verdicts. A finding can
/// only come from that fallback.
pub fn check_opt_step(
    before: &Function,
    after: &Function,
    ctx: &Module,
    limits: Limits,
    context: &str,
) -> VerifyReport {
    opt_step(
        before,
        after,
        ctx,
        limits,
        context,
        &mut blockwise::Memo::default(),
    )
}

fn opt_step(
    before: &Function,
    after: &Function,
    ctx: &Module,
    limits: Limits,
    context: &str,
    memo: &mut blockwise::Memo,
) -> VerifyReport {
    let mut report = VerifyReport {
        checks: 1,
        ..VerifyReport::default()
    };
    if !blockwise::blocks_match(before, after, ctx, memo) {
        report.block_fallbacks = 1;
        let envs = default_envs();
        report.merge(check_function_pair(
            before, ctx, after, ctx, &envs, limits, context,
        ));
    }
    report
}

/// One function followed through the optimizer's pass steps, each
/// checked by [`check_opt_step`] against the snapshot before it.
/// Each block's run is kept from one step to the next, so a block a step
/// leaves alone is evaluated once on the step's *after* side, not twice.
pub struct OptChain {
    latest: Function,
    limits: Limits,
    memo: blockwise::Memo,
}

impl OptChain {
    /// Start at `f`; `limits` bound the path check of a fallback.
    pub fn new(f: &Function, limits: Limits) -> Self {
        OptChain {
            latest: f.clone(),
            limits,
            memo: blockwise::Memo::default(),
        }
    }

    /// Check `f`, the function after the pass `context` names, against
    /// the previous snapshot; `f` becomes the previous snapshot.
    pub fn step(&mut self, f: &Function, ctx: &Module, context: &str) -> VerifyReport {
        let report = opt_step(&self.latest, f, ctx, self.limits, context, &mut self.memo);
        // A pass rewrites a few blocks: copy those, into the buffers
        // already held.
        let latest = &mut self.latest;
        let same_frame = latest.blocks.len() == f.blocks.len()
            && (
                &latest.name,
                &latest.params,
                &latest.shared,
                latest.local_bytes,
            ) == (&f.name, &f.params, &f.shared, f.local_bytes);
        if same_frame {
            for (held, b) in latest.blocks.iter_mut().zip(&f.blocks) {
                if held != b {
                    held.id = b.id;
                    held.insts.clone_from(&b.insts);
                    held.term = b.term.clone();
                }
            }
            latest.vreg_types.clone_from(&f.vreg_types);
        } else {
            latest.clone_from(f);
        }
        report
    }
}

/// Compare whole modules before/after a transform: the two-snapshot
/// [`ModuleChain`].
pub fn check_modules(
    pre: &Module,
    post: &Module,
    envs: &[Env],
    limits: Limits,
    context: &str,
) -> VerifyReport {
    let mut chain = ModuleChain::new(envs, limits);
    chain.step(pre, context);
    chain.step(post, context)
}

/// Check RE→SK specialization equivalence: the SK module (compiled with
/// `defines`) must match the RE module evaluated under the bindings those
/// defines imply (derived from `source`'s `#ifndef` fallback idiom).
pub fn check_specialization(
    re: &Module,
    sk: &Module,
    source: &str,
    defines: &[(String, String)],
    limits: Limits,
) -> VerifyReport {
    let derived = derive_bindings(source, defines);
    let label: Vec<String> = defines
        .iter()
        .map(|(k, v)| {
            if v.is_empty() {
                k.clone()
            } else {
                format!("{k}={v}")
            }
        })
        .collect();
    let context = format!("spec {}", label.join(","));
    let mut report = VerifyReport::default();
    for sf in &sk.functions {
        let Some(rf) = re.functions.iter().find(|f| f.name == sf.name) else {
            report.findings.push(Finding {
                code: "KSV003",
                context: context.clone(),
                env: String::new(),
                function: sf.name.clone(),
                message: "specialized function has no generic counterpart".into(),
            });
            continue;
        };
        for env in spec_envs(derived.ntid) {
            report.checks += 1;
            // Both sides get the derived bindings: the RE side needs them
            // to collapse parameter/blockDim reads; on the SK side the
            // bound names are already constants, so they are inert (and
            // correct for partially specialized kernels).
            let mut bound = env.clone();
            derived.apply(&mut bound);
            let mut arena = Arena::new();
            let mut s = Summarizer::new(&mut arena, limits);
            let re_sum = s.summarize(rf, re, &bound);
            let sk_sum = s.summarize(sf, sk, &bound);
            let outcome = diff::compare(&arena, &re_sum, &sk_sum);
            let finding = Finding::of(outcome, "KSV002", &context, &bound.label, &sf.name);
            report.findings.extend(finding);
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_finding_round_trips_through_its_json_line() {
        let nasty = "quote\" backslash\\ newline\n tab\t one\u{1}";
        let f = Finding {
            code: "KSV101",
            context: format!("pass {nasty}"),
            env: format!("env {nasty}"),
            function: format!("fn {nasty}"),
            message: format!("message {nasty}"),
        };
        let line = f.to_json();
        assert!(!line.contains(['\n', '\t', '\u{1}']), "{line}");
        let Ok(Json::Obj(fields)) = Json::parse(&line) else {
            panic!("not a JSON object: {line}");
        };
        let got: Vec<(&str, &str)> = fields
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str().expect("a string field")))
            .collect();
        assert_eq!(
            got,
            [
                ("code", f.code),
                ("severity", "warning"),
                ("context", f.context.as_str()),
                ("env", f.env.as_str()),
                ("function", f.function.as_str()),
                ("message", f.message.as_str()),
            ]
        );
    }
}
