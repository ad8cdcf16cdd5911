//! Per-phase compile timing (§4.3 overhead accounting, broken down).
//!
//! Every [`Binary`](crate::Binary) carries the wall-clock cost of each
//! pipeline phase, so consumers — GPU-PF refresh logs, the bench sweep
//! drivers — can attribute compile overhead instead of only reporting a
//! single total.

use std::time::Duration;

/// Wall-clock timing of each compilation phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompileMetrics {
    /// Lexing + preprocessing (`-D` substitution, `#if` evaluation).
    pub preproc: Duration,
    /// Parsing to an AST.
    pub parse: Duration,
    /// Semantic analysis producing the typed HIR.
    pub sema: Duration,
    /// AST→IR lowering (incl. unrolling and guard elimination).
    pub lower: Duration,
    /// IR optimization passes (incl. per-pass verification when the
    /// sanitizer is on).
    pub opt: Duration,
    /// IR verification + static-analysis suite.
    pub analysis: Duration,
    /// Translation validation (symbolic summaries + comparison), zero
    /// unless the compiler carries a `ValidationConfig`.
    pub verify: Duration,
    /// Register allocation across all kernels.
    pub regalloc: Duration,
    /// End-to-end wall clock (equals `Binary::compile_time`): the phases
    /// above plus the glue between them. No PTX printing: a binary's
    /// listing is printed on its first read, off this clock.
    pub total: Duration,
}

impl CompileMetrics {
    /// The phases in pipeline order: [`CompileMetrics::phase_times`], the
    /// `ks_core.compile.phase_us.*` histograms and the summary read it.
    pub(crate) const PHASES: [&'static str; 8] = [
        "preproc", "parse", "sema", "lower", "opt", "analysis", "verify", "regalloc",
    ];

    /// Each phase's time, in [`CompileMetrics::PHASES`] order.
    pub(crate) fn phase_times(&self) -> [Duration; 8] {
        [
            self.preproc,
            self.parse,
            self.sema,
            self.lower,
            self.opt,
            self.analysis,
            self.verify,
            self.regalloc,
        ]
    }

    /// One-line breakdown for logs, e.g.
    /// `preproc 12.3µs · parse 40.1µs · … · total 139.0µs`.
    pub fn summary(&self) -> String {
        Self::PHASES
            .into_iter()
            .zip(self.phase_times())
            .chain([("total", self.total)])
            .map(|(name, d)| format!("{name} {d:.1?}"))
            .collect::<Vec<_>>()
            .join(" · ")
    }
}

impl std::fmt::Display for CompileMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.summary())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_names_every_phase() {
        let m = CompileMetrics {
            preproc: Duration::from_micros(12),
            total: Duration::from_micros(139),
            ..Default::default()
        };
        let s = m.summary();
        for phase in [
            "preproc", "parse", "sema", "lower", "opt", "analysis", "verify", "regalloc", "total",
        ] {
            assert!(s.contains(phase), "missing {phase} in {s}");
        }
        assert_eq!(m.to_string(), s);
    }
}
