//! The diagnostics framework: stable lint codes, severities, per-lint
//! configuration, and rendered reports.

use ks_ir::BlockId;
use std::fmt;
use std::hash::{Hash, Hasher};

/// Stable lint codes. Numbers are append-only: a code is never reused or
/// renumbered once shipped, so `allow`/`deny` configs stay meaningful.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LintCode {
    /// Shared-memory data race: a word written and accessed by another
    /// warp in the same barrier interval.
    SharedRace,
    /// `__syncthreads()` reachable under thread-dependent control flow.
    BarrierDivergence,
    /// Statically provable out-of-bounds access to a shared / local /
    /// constant array.
    OutOfBounds,
    /// Shared-memory access pattern with a high bank-conflict degree.
    BankConflict,
    /// Global-memory access pattern that coalesces poorly on the target
    /// compute capability.
    Uncoalesced,
}

impl LintCode {
    pub const ALL: [LintCode; 5] = [
        LintCode::SharedRace,
        LintCode::BarrierDivergence,
        LintCode::OutOfBounds,
        LintCode::BankConflict,
        LintCode::Uncoalesced,
    ];

    /// The stable `KSA0xx` code string.
    pub fn code(self) -> &'static str {
        match self {
            LintCode::SharedRace => "KSA001",
            LintCode::BarrierDivergence => "KSA002",
            LintCode::OutOfBounds => "KSA003",
            LintCode::BankConflict => "KSA004",
            LintCode::Uncoalesced => "KSA005",
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            LintCode::SharedRace => "shared-memory race",
            LintCode::BarrierDivergence => "divergent barrier",
            LintCode::OutOfBounds => "out-of-bounds access",
            LintCode::BankConflict => "shared-memory bank conflicts",
            LintCode::Uncoalesced => "uncoalesced global access",
        }
    }

    /// Correctness lints deny by default; performance lints warn.
    pub(crate) fn default_severity(self) -> Severity {
        match self {
            LintCode::SharedRace | LintCode::BarrierDivergence | LintCode::OutOfBounds => {
                Severity::Deny
            }
            LintCode::BankConflict | LintCode::Uncoalesced => Severity::Warn,
        }
    }

    pub fn parse(s: &str) -> Option<LintCode> {
        LintCode::ALL
            .iter()
            .copied()
            .find(|c| c.code().eq_ignore_ascii_case(s))
    }
}

impl fmt::Display for LintCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.code())
    }
}

/// What a reported lint does to the surrounding compilation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Severity {
    /// Suppressed entirely.
    Allow,
    /// Reported, compilation proceeds.
    Warn,
    /// Reported, compilation fails.
    Deny,
}

impl Severity {
    pub fn parse(s: &str) -> Option<Severity> {
        match s {
            "allow" => Some(Severity::Allow),
            "warn" => Some(Severity::Warn),
            "deny" => Some(Severity::Deny),
            _ => None,
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Allow => write!(f, "allow"),
            Severity::Warn => write!(f, "warning"),
            Severity::Deny => write!(f, "error"),
        }
    }
}

/// A value assumed for a kernel parameter during analysis — the analysis
/// analogue of passing the argument at launch. Pointer parameters take an
/// `Int` with the device address.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ParamValue {
    Int(i64),
    F32(f32),
}

impl Hash for ParamValue {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            ParamValue::Int(v) => {
                0u8.hash(state);
                v.hash(state);
            }
            ParamValue::F32(v) => {
                1u8.hash(state);
                v.to_bits().hash(state);
            }
        }
    }
}

/// Configuration for one analysis run.
///
/// The launch geometry and parameter assumptions play the role that real
/// launch arguments play at run time: with a specialized kernel they make
/// every address and trip count concrete, which is exactly the
/// RE-vs-SK *analyzability* contrast the dissertation's specialization
/// argument extends to (§3.2 — what the compiler can prove, not just what
/// it can optimize).
#[derive(Debug, Clone, PartialEq)]
pub struct AnalysisConfig {
    /// Thread block shape to analyze under; `None` disables the abstract
    /// executor (only flow-insensitive checks run).
    pub block_dim: Option<(u32, u32, u32)>,
    pub grid_dim: (u32, u32, u32),
    /// Which block of the grid the abstract executor simulates.
    pub block_idx: (u32, u32, u32),
    /// Dynamic shared memory bytes appended at launch.
    pub dynamic_shared: u32,
    /// Assumed values for (remaining run-time) kernel parameters, by name.
    pub param_assumptions: Vec<(String, ParamValue)>,
    /// Abstract-executor budget in dynamic instructions per function.
    pub max_steps: u64,
    /// Per-lint severity overrides (defaults from
    /// [`LintCode::default_severity`]).
    pub levels: Vec<(LintCode, Severity)>,
    /// KSA004 fires when the mean extra bank-conflict degree per shared
    /// access reaches this value (1.0 = every access fully serialized
    /// twice; the shipped kernels sit well under the default).
    pub bank_conflict_threshold: f64,
    /// KSA005 fires when measured transactions exceed this multiple of
    /// the ideal (fully coalesced) transaction count.
    pub coalescing_slack: f64,
}

impl Default for AnalysisConfig {
    fn default() -> AnalysisConfig {
        AnalysisConfig {
            block_dim: None,
            grid_dim: (1, 1, 1),
            block_idx: (0, 0, 0),
            dynamic_shared: 0,
            param_assumptions: Vec::new(),
            max_steps: 4_000_000,
            levels: Vec::new(),
            bank_conflict_threshold: 1.0,
            coalescing_slack: 2.0,
        }
    }
}

impl AnalysisConfig {
    /// Effective severity of a lint under this config.
    pub(crate) fn severity(&self, code: LintCode) -> Severity {
        self.levels
            .iter()
            .rev()
            .find(|(c, _)| *c == code)
            .map(|(_, s)| *s)
            .unwrap_or_else(|| code.default_severity())
    }

    pub fn assume(mut self, name: &str, v: ParamValue) -> AnalysisConfig {
        self.param_assumptions.push((name.to_string(), v));
        self
    }

    pub(crate) fn assumed(&self, name: &str) -> Option<ParamValue> {
        self.param_assumptions
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Feed every field that affects analysis results into a hasher, so
    /// compile caches keyed on options stay correct.
    pub fn hash_into<H: Hasher>(&self, state: &mut H) {
        self.block_dim.hash(state);
        self.grid_dim.hash(state);
        self.block_idx.hash(state);
        self.dynamic_shared.hash(state);
        for (n, v) in &self.param_assumptions {
            n.hash(state);
            v.hash(state);
        }
        self.max_steps.hash(state);
        for (c, s) in &self.levels {
            c.hash(state);
            s.hash(state);
        }
        self.bank_conflict_threshold.to_bits().hash(state);
        self.coalescing_slack.to_bits().hash(state);
    }
}

/// One reported finding.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    pub code: LintCode,
    pub severity: Severity,
    pub function: String,
    pub block: Option<BlockId>,
    /// Instruction index within the block, when attributable.
    pub inst: Option<usize>,
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]: {}", self.severity, self.code, self.function)?;
        if let Some(b) = self.block {
            write!(f, "/{b}")?;
            if let Some(i) = self.inst {
                write!(f, "#{i}")?;
            }
        }
        write!(f, ": {}", self.message)
    }
}

/// Predicted memory behaviour of one function under the analyzed launch
/// geometry — the static mirror of the simulator's measured `ExecStats`,
/// cross-validated against it in tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemPrediction {
    /// Global load/store instructions executed (per analyzed block).
    pub global_loads: u64,
    pub global_stores: u64,
    /// Memory transactions after per-CC coalescing.
    pub global_transactions: u64,
    /// Shared-memory access instructions executed.
    pub shared_accesses: u64,
    /// Extra issue slots lost to bank-conflict replays (degree − 1 summed).
    pub bank_conflict_extra: u64,
    /// Accesses whose addresses the analysis could not resolve and
    /// therefore excluded from the totals above.
    pub unresolved_accesses: u64,
}

/// The result of analyzing one function or module.
#[derive(Debug, Clone, Default)]
pub struct AnalysisReport {
    pub diagnostics: Vec<Diagnostic>,
    /// Why precise analyses stopped short, when they did (the RE side of
    /// the analyzability contrast: unspecialized values make these
    /// questions undecidable at compile time).
    pub inconclusive: Vec<String>,
    /// Per-function memory predictions (empty when the executor didn't
    /// run to completion for that function).
    pub mem: Vec<(String, MemPrediction)>,
    /// Barrier intervals the abstract executor observed, per function.
    pub intervals: Vec<(String, u64)>,
    /// Shared/local/constant accesses proven in-bounds.
    pub proven_bounds: u64,
}

impl AnalysisReport {
    pub fn merge(&mut self, other: AnalysisReport) {
        self.diagnostics.extend(other.diagnostics);
        self.inconclusive.extend(other.inconclusive);
        self.mem.extend(other.mem);
        self.intervals.extend(other.intervals);
        self.proven_bounds += other.proven_bounds;
    }

    pub fn has_denials(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Deny)
    }

    pub fn warnings(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warn)
    }

    pub fn mem_for(&self, function: &str) -> Option<&MemPrediction> {
        self.mem.iter().find(|(n, _)| n == function).map(|(_, m)| m)
    }

    /// Human-readable multi-line rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.to_string());
            out.push('\n');
        }
        for n in &self.inconclusive {
            out.push_str(&format!("note: {n}\n"));
        }
        for (f, m) in &self.mem {
            out.push_str(&format!(
                "mem[{f}]: {} global transactions ({} ld, {} st), \
                 {} shared accesses, {} bank-conflict replays{}\n",
                m.global_transactions,
                m.global_loads,
                m.global_stores,
                m.shared_accesses,
                m.bank_conflict_extra,
                if m.unresolved_accesses > 0 {
                    format!(", {} unresolved", m.unresolved_accesses)
                } else {
                    String::new()
                },
            ));
        }
        if self.diagnostics.is_empty() {
            out.push_str("no diagnostics\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_and_parse() {
        assert_eq!(LintCode::SharedRace.code(), "KSA001");
        assert_eq!(LintCode::Uncoalesced.code(), "KSA005");
        for c in LintCode::ALL {
            assert_eq!(LintCode::parse(c.code()), Some(c));
        }
        assert_eq!(LintCode::parse("KSA999"), None);
    }

    #[test]
    fn severity_overrides_apply_last_wins() {
        let cfg = AnalysisConfig {
            levels: vec![
                (LintCode::BankConflict, Severity::Deny),
                (LintCode::BankConflict, Severity::Allow),
            ],
            ..Default::default()
        };
        assert_eq!(cfg.severity(LintCode::BankConflict), Severity::Allow);
        assert_eq!(cfg.severity(LintCode::SharedRace), Severity::Deny);
        assert_eq!(cfg.severity(LintCode::Uncoalesced), Severity::Warn);
    }

    #[test]
    fn report_denials_and_render() {
        let mut r = AnalysisReport::default();
        assert!(!r.has_denials());
        r.diagnostics.push(Diagnostic {
            code: LintCode::SharedRace,
            severity: Severity::Deny,
            function: "k".into(),
            block: Some(BlockId(2)),
            inst: Some(7),
            message: "write/write conflict".into(),
        });
        assert!(r.has_denials());
        let text = r.render();
        assert!(text.contains("KSA001"), "{text}");
        assert!(text.contains("BB2#7"), "{text}");
    }

    #[test]
    fn config_hash_distinguishes_assumptions() {
        use std::collections::hash_map::DefaultHasher;
        let h = |c: &AnalysisConfig| {
            let mut s = DefaultHasher::new();
            c.hash_into(&mut s);
            std::hash::Hasher::finish(&s)
        };
        let a = AnalysisConfig::default();
        let b = AnalysisConfig::default().assume("n", ParamValue::Int(64));
        assert_ne!(h(&a), h(&b));
    }
}
