//! `ks-analysis` — static analysis and sanitizer suite for `ks-ir` kernels.
//!
//! Five analyses run over compiled modules, unified behind stable
//! `KSA0xx` lint codes (see [`LintCode`]):
//!
//! | code   | lint                     | default  |
//! |--------|--------------------------|----------|
//! | KSA001 | shared-memory race       | deny     |
//! | KSA002 | divergent barrier        | deny     |
//! | KSA003 | out-of-bounds access     | deny     |
//! | KSA004 | shared bank conflicts    | warn     |
//! | KSA005 | uncoalesced global access| warn     |
//!
//! The precise engine (`exec`) runs one thread block through
//! `ks_sim::simt`, the SIMT control core the simulator's executor runs on
//! (the same `LaunchPlan`, reconvergence stack, scheduling and barriers),
//! with abstract lanes over a concrete/symbolic value domain whose
//! concrete arithmetic is [`ks_ir::eval`]. Specialization is what makes it
//! decisive: a kernel whose parameters were compiled in (SK) — or are
//! supplied as analysis assumptions — has concrete branch predicates and
//! addresses, so races, bounds, and per-instruction transaction counts
//! are computed exactly, with the memory numbers cross-validated against
//! the simulator's measured `ExecStats`. The run-time-evaluated (RE)
//! build of the same kernel stops at the first data-dependent branch with
//! an explanation — the dissertation's performance contrast restated as
//! an *analyzability* contrast.
//!
//! When no launch geometry is available the suite falls back to the
//! flow-insensitive barrier-divergence checker (`barrier`), which
//! taints thread-varying values and flags barriers control-dependent on
//! them.

mod barrier;
mod bounds;
mod diag;
mod exec;
mod memlint;
mod race;

pub use diag::{
    AnalysisConfig, AnalysisReport, Diagnostic, LintCode, MemPrediction, ParamValue, Severity,
};

use ks_ir::{BlockId, Function, Module};
use ks_sim::device::DeviceConfig;

/// Shared-memory declaration containing a byte address, for messages.
fn shared_name(f: &Function, addr: u64) -> String {
    f.shared
        .iter()
        .find(|d| addr >= d.offset as u64 && addr < (d.offset + d.size_bytes) as u64)
        .map(|d| format!("`{}`", d.name))
        .unwrap_or_else(|| "the shared window".into())
}

fn push(
    report: &mut AnalysisReport,
    cfg: &AnalysisConfig,
    code: LintCode,
    function: &str,
    site: Option<(u32, usize)>,
    message: String,
) {
    let severity = cfg.severity(code);
    if severity == Severity::Allow {
        return;
    }
    report.diagnostics.push(Diagnostic {
        code,
        severity,
        function: function.to_string(),
        block: site.map(|(b, _)| BlockId(b)),
        inst: site.map(|(_, i)| i),
        message,
    });
}

/// Analyze one function of a module.
fn analyze_function(
    m: &Module,
    f: &Function,
    dev: &DeviceConfig,
    cfg: &AnalysisConfig,
) -> AnalysisReport {
    let mut report = AnalysisReport::default();
    let mut executor_was_conclusive = false;

    if cfg.block_dim.is_some() {
        let out = exec::exec_function(m, f, dev, cfg);
        executor_was_conclusive = out.inconclusive.is_none();
        for r in &out.races {
            push(
                &mut report,
                cfg,
                LintCode::SharedRace,
                &f.name,
                Some(r.site),
                format!(
                    "{} race on word {:#x} of {} (conflicting access at BB{}#{})",
                    r.kind,
                    r.word_addr,
                    shared_name(f, r.word_addr),
                    r.other_site.0,
                    r.other_site.1
                ),
            );
        }
        for b in &out.bounds {
            push(
                &mut report,
                cfg,
                LintCode::OutOfBounds,
                &f.name,
                Some(b.site),
                b.message.clone(),
            );
        }
        for (site, msg) in &out.divergent_barriers {
            push(
                &mut report,
                cfg,
                LintCode::BarrierDivergence,
                &f.name,
                *site,
                msg.clone(),
            );
        }
        for mf in &out.mem_findings {
            let code = match mf.kind {
                memlint::AccessKind::SharedLoad | memlint::AccessKind::SharedStore => {
                    LintCode::BankConflict
                }
                _ => LintCode::Uncoalesced,
            };
            push(
                &mut report,
                cfg,
                code,
                &f.name,
                Some(mf.site),
                mf.message.clone(),
            );
        }
        if let Some(why) = &out.inconclusive {
            report.inconclusive.push(format!("{}: {}", f.name, why));
        }
        if let Some(p) = out.prediction {
            report.mem.push((f.name.clone(), p));
        }
        report.intervals.push((f.name.clone(), out.intervals));
        report.proven_bounds += out.proven_bounds;
    }

    // The static divergence checker is the fallback for whatever the
    // executor could not settle precisely; when the executor completed,
    // its exact observation of every barrier supersedes the
    // conservative taint answer.
    if !executor_was_conclusive {
        for d in barrier::check_barrier_divergence(f) {
            // Don't double-report a barrier the executor already flagged.
            let dup = report.diagnostics.iter().any(|x| {
                x.code == LintCode::BarrierDivergence
                    && x.block == Some(BlockId(d.site.0))
                    && x.inst == Some(d.site.1)
            });
            if !dup {
                push(
                    &mut report,
                    cfg,
                    LintCode::BarrierDivergence,
                    &f.name,
                    Some(d.site),
                    d.message,
                );
            }
        }
    }
    report
}

/// Analyze every function of a module.
pub fn analyze_module(m: &Module, dev: &DeviceConfig, cfg: &AnalysisConfig) -> AnalysisReport {
    let mut report = AnalysisReport::default();
    for f in &m.functions {
        report.merge(analyze_function(m, f, dev, cfg));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use ks_ir::{Address, BasicBlock, Inst, Operand, SpecialReg, Terminator, Ty};

    /// tid-guarded barrier: flagged with or without launch geometry.
    fn divergent_fixture() -> Module {
        let mut f = Function {
            name: "k".into(),
            params: vec![],
            blocks: vec![],
            vreg_types: vec![],
            shared: vec![],
            local_bytes: 0,
        };
        let tid = f.new_vreg(Ty::S32);
        let p = f.new_vreg(Ty::Pred);
        f.blocks.push(BasicBlock {
            id: BlockId(0),
            insts: vec![
                Inst::Special {
                    dst: tid,
                    reg: SpecialReg::TidX,
                },
                Inst::Setp {
                    cmp: ks_ir::CmpOp::Lt,
                    ty: Ty::S32,
                    dst: p,
                    a: tid.into(),
                    b: Operand::ImmI(7),
                },
            ],
            term: Terminator::CondBr {
                pred: p,
                negate: false,
                then_t: BlockId(1),
                else_t: BlockId(2),
            },
        });
        f.blocks.push(BasicBlock {
            id: BlockId(1),
            insts: vec![Inst::Bar],
            term: Terminator::Br { target: BlockId(2) },
        });
        f.blocks.push(BasicBlock {
            id: BlockId(2),
            insts: vec![],
            term: Terminator::Ret,
        });
        Module {
            functions: vec![f],
            consts: vec![],
            textures: vec![],
        }
    }

    #[test]
    fn divergent_barrier_found_statically_and_dynamically() {
        let m = divergent_fixture();
        let dev = DeviceConfig::tesla_c2070();
        // Static only (no geometry).
        let r = analyze_module(&m, &dev, &AnalysisConfig::default());
        assert_eq!(r.diagnostics.len(), 1);
        assert_eq!(r.diagnostics[0].code, LintCode::BarrierDivergence);
        assert!(r.has_denials());
        // With geometry: the executor observes it directly.
        let cfg = AnalysisConfig {
            block_dim: Some((32, 1, 1)),
            ..Default::default()
        };
        let r = analyze_module(&m, &dev, &cfg);
        assert_eq!(
            r.diagnostics
                .iter()
                .filter(|d| d.code == LintCode::BarrierDivergence)
                .count(),
            1,
            "{}",
            r.render()
        );
    }

    #[test]
    fn severity_overrides_silence_and_escalate() {
        let m = divergent_fixture();
        let dev = DeviceConfig::tesla_c2070();
        let allow = AnalysisConfig {
            levels: vec![(LintCode::BarrierDivergence, Severity::Allow)],
            ..Default::default()
        };
        assert!(analyze_module(&m, &dev, &allow).diagnostics.is_empty());
        let warn = AnalysisConfig {
            levels: vec![(LintCode::BarrierDivergence, Severity::Warn)],
            ..Default::default()
        };
        let r = analyze_module(&m, &dev, &warn);
        assert_eq!(r.diagnostics.len(), 1);
        assert!(!r.has_denials());
    }

    #[test]
    fn param_load_of_missing_offset_is_unknown_not_panic() {
        // A param load at an offset no parameter occupies must not panic —
        // the verifier catches it separately; analysis degrades to Unknown.
        let mut f = Function {
            name: "k".into(),
            params: vec![],
            blocks: vec![],
            vreg_types: vec![],
            shared: vec![],
            local_bytes: 0,
        };
        let v = f.new_vreg(Ty::S32);
        f.blocks.push(BasicBlock {
            id: BlockId(0),
            insts: vec![Inst::Ld {
                space: ks_ir::Space::Param,
                ty: Ty::S32,
                dst: v,
                addr: Address::abs(4),
            }],
            term: Terminator::Ret,
        });
        let m = Module {
            functions: vec![f],
            consts: vec![],
            textures: vec![],
        };
        let cfg = AnalysisConfig {
            block_dim: Some((32, 1, 1)),
            ..Default::default()
        };
        let r = analyze_module(&m, &DeviceConfig::tesla_c2070(), &cfg);
        assert!(r.diagnostics.is_empty());
    }
}
