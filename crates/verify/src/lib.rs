//! ks-verify: translation validation for the specialization pipeline.
//!
//! This crate checks two things the rest of the workspace can only assert
//! by testing:
//!
//! 1. **Pass-by-pass translation validation** — after each ks-opt pass and
//!    each ks-codegen HIR transform, the function must still mean the same
//!    thing. Both versions are evaluated symbolically into canonical
//!    value-graph summaries ([`summary::FnSummary`]) and compared
//!    ([`diff::compare`]); the first divergence comes back as a typed
//!    [`VerifyDiff`].
//! 2. **Specialization equivalence** — a kernel compiled with `-D`
//!    defines (SK) must match the runtime-evaluated kernel (RE) once the
//!    RE summary is evaluated *under those bindings*: defines that replace
//!    parameter reads become parameter bindings, defines that replace
//!    `blockDim.x` reads become `ntid` bindings ([`bindings`]).
//!
//! Both sides of a comparison are summarized into one hash-consed
//! expression arena, so summary equality is plain `ExprId` equality; a
//! function followed through a sequence of transforms keeps one arena
//! per environment for the whole sequence ([`SnapshotChain`]) and is
//! summarized once per snapshot, not twice per comparison. Findings carry
//! `KSV` diagnostic codes in the same shape as ks-ir's `KSI` verifier errors and
//! the analyzer's `KSA` lints:
//!
//! * `KSV001` — an optimization/codegen stage changed observable behavior;
//! * `KSV002` — the specialized kernel diverges from the generic kernel
//!   under the given defines;
//! * `KSV003` — module shapes differ (function missing after a stage);
//! * `KSV101` — *warning*: budgets stopped evaluation before a verdict
//!   (inconclusive, not a miscompile).

pub mod bindings;
pub mod diff;
pub mod expr;
pub mod mutate;
pub mod pipeline;
pub mod summary;

pub use bindings::{derive_bindings, Binding, DerivedBindings};
pub use diff::{DiffKind, Outcome, VerifyDiff};
pub use expr::Arena;
pub use pipeline::{build_optimized, validate_pipeline};
pub use summary::{Env, FnSummary, Limits, Summarizer, Val};

use ks_ir::{Function, Module};
use std::fmt;

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
    /// Errors deny compilation; warnings are informational.
    pub fn is_error(&self) -> bool {
        self.code.starts_with("KSV0")
    }

    /// Single-line JSON export (JSONL-friendly, mirrors ks-ir's
    /// `VerifyError::to_json`).
    pub fn to_json(&self) -> String {
        fn esc(s: &str) -> String {
            s.chars()
                .flat_map(|c| match c {
                    '"' => "\\\"".chars().collect::<Vec<_>>(),
                    '\\' => "\\\\".chars().collect(),
                    '\n' => "\\n".chars().collect(),
                    c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
                    c => vec![c],
                })
                .collect()
        }
        format!(
            "{{\"code\":\"{}\",\"severity\":\"{}\",\"context\":\"{}\",\"env\":\"{}\",\"function\":\"{}\",\"message\":\"{}\"}}",
            self.code,
            if self.is_error() { "error" } else { "warning" },
            esc(&self.context),
            esc(&self.env),
            esc(&self.function),
            esc(&self.message)
        )
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

/// Aggregate result of a verification run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct VerifyReport {
    /// Number of (function × env) comparisons performed.
    pub checks: usize,
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
pub fn spec_envs(ntid: [Option<i64>; 3]) -> Vec<Env> {
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
/// Each environment keeps one [`Arena`] for the whole chain. That cannot
/// change a verdict: canonical forms and `ExprId` equality depend only on
/// which expressions are equal, not on what else the arena holds;
/// [`Limits`] bound paths, steps and forks, never arena size; and an
/// inconclusive message renders no expression.
pub struct SnapshotChain<'e> {
    envs: &'e [Env],
    limits: Limits,
    function: String,
    /// Per environment: its arena and the latest snapshot's summary.
    latest: Vec<(Arena, FnSummary)>,
}

impl<'e> SnapshotChain<'e> {
    /// Start a chain at `f` (module `ctx` names its consts and textures).
    pub fn new(f: &Function, ctx: &Module, envs: &'e [Env], limits: Limits) -> Self {
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
    pub fn function(&self) -> &str {
        &self.function
    }

    /// Compare `f`, the function after the transform `context` names,
    /// with the previous snapshot under every environment; `f` becomes
    /// the previous snapshot.
    pub fn step(&mut self, f: &Function, ctx: &Module, context: &str) -> VerifyReport {
        let mut report = VerifyReport::default();
        for (env, (arena, pre)) in self.envs.iter().zip(&mut self.latest) {
            report.checks += 1;
            let post = Summarizer::new(arena, self.limits).summarize(f, ctx, env);
            let finding = |code, message| Finding {
                code,
                context: context.to_string(),
                env: env.label.clone(),
                function: self.function.clone(),
                message,
            };
            match diff::compare(arena, pre, &post) {
                Outcome::Equal => {}
                Outcome::Inconclusive(msg) => report.findings.push(finding("KSV101", msg)),
                // One diff per (function, env) is enough: later envs often
                // repeat the same first divergence.
                Outcome::Diff(d) => report
                    .findings
                    .push(finding("KSV001", format!("{:?}: {}", d.kind, d.detail))),
            }
            *pre = post;
        }
        report
    }
}

/// A module followed through a sequence of whole-module transforms (the
/// codegen stages): one [`SnapshotChain`] per function.
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

    /// Hand over the chain of `f`, which must be the function as the
    /// latest snapshot held it — to follow it through per-function
    /// transforms (the optimizer passes). Starts one if no snapshot held
    /// a function of that name.
    pub fn detach(&mut self, f: &Function, ctx: &Module) -> SnapshotChain<'e> {
        let held = self.functions.as_mut().and_then(|chains| {
            let i = chains.iter().position(|c| c.function() == f.name)?;
            Some(chains.swap_remove(i))
        });
        held.unwrap_or_else(|| SnapshotChain::new(f, ctx, self.envs, self.limits))
    }
}

/// Compare one function before/after a transform under `envs`: the
/// two-snapshot [`SnapshotChain`].
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
            match diff::compare(&arena, &re_sum, &sk_sum) {
                Outcome::Equal => {}
                Outcome::Inconclusive(msg) => report.findings.push(Finding {
                    code: "KSV101",
                    context: context.clone(),
                    env: bound.label.clone(),
                    function: sf.name.clone(),
                    message: msg,
                }),
                Outcome::Diff(d) => report.findings.push(Finding {
                    code: "KSV002",
                    context: context.clone(),
                    env: bound.label.clone(),
                    function: sf.name.clone(),
                    message: format!("{:?}: {}", d.kind, d.detail),
                }),
            }
        }
    }
    report
}
