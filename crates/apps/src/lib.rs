//! # ks-apps — the dissertation's three case-study applications
//!
//! Each application is implemented twice-plus:
//!
//! * a **GPU implementation** written in the `ks-lang` CUDA-C dialect with
//!   specialization toggles (`#ifndef PARAM / #define PARAM runtimeArg`),
//!   runnable as either a run-time-evaluated (RE) or specialized (SK)
//!   kernel on the simulated Tesla C1060 / C2070;
//! * a **multi-threaded CPU reference** used both as the performance
//!   baseline the dissertation compares against and as the correctness
//!   oracle;
//! * for PIV, an additional **FPGA analytic baseline** standing in for
//!   Bennis's FPGA implementation (Table 6.11).
//!
//! Input data the paper took from clinical recordings / lab cameras /
//! CT scanners is synthesized in [`synth`] with the same geometry
//! (see DESIGN.md for the substitution rationale).

pub mod backproj;
pub mod piv;
pub mod synth;
pub mod template_match;

use ks_sim::LaunchReport;

/// Aggregate result of running one GPU configuration of an application.
#[derive(Debug, Clone)]
pub struct GpuRunResult {
    /// Total simulated kernel time (ms) across all launches.
    pub sim_ms: f64,
    /// Per-launch reports (occupancy, registers, stats).
    pub reports: Vec<LaunchReport>,
    /// Wall-clock compile time spent (cache misses only), in ms.
    pub compile_ms: f64,
}

impl GpuRunResult {
    pub fn regs_per_thread(&self) -> u32 {
        self.reports
            .iter()
            .map(|r| r.regs_per_thread)
            .max()
            .unwrap_or(0)
    }

    pub fn occupancy(&self) -> f64 {
        self.reports
            .first()
            .map(|r| r.occupancy.occupancy)
            .unwrap_or(0.0)
    }

    pub fn active_warps(&self) -> u32 {
        self.reports
            .first()
            .map(|r| r.occupancy.active_warps)
            .unwrap_or(0)
    }

    pub fn dyn_insts(&self) -> u64 {
        self.reports.iter().map(|r| r.stats.dyn_insts).sum()
    }
}

/// Whether kernels are compiled run-time evaluated or specialized.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Variant {
    /// Run-time evaluated: no problem/implementation parameters fixed at
    /// compile time (beyond what the source hard-codes).
    Re,
    /// Specialized kernel: problem + implementation parameters provided as
    /// `-D` defines at (simulated) run time.
    Sk,
}

impl std::fmt::Display for Variant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Variant::Re => write!(f, "RE"),
            Variant::Sk => write!(f, "SK"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ks_sim::{ExecStats, LaunchReport};

    fn report(ms: f64, regs: u32, warps: u32) -> LaunchReport {
        LaunchReport {
            kernel: "k".into(),
            device: "d".into(),
            time_ms: ms,
            cycles: 0,
            occupancy: ks_sim::Occupancy {
                blocks_per_sm: 1,
                warps_per_block: warps,
                active_warps: warps,
                occupancy: warps as f64 / 32.0,
                limiter: ks_sim::Limiter::Blocks,
            },
            regs_per_thread: regs,
            pred_regs: 0,
            shared_per_block: 0,
            local_bytes_per_thread: 0,
            static_insts: 0,
            stats: ExecStats {
                dyn_insts: 100,
                ..Default::default()
            },
            bound: ks_sim::Bound::Compute,
            host_plan_us: 0.0,
            host_sample_us: 0.0,
            host_functional_us: 0.0,
        }
    }

    #[test]
    fn run_result_aggregates_reports() {
        let r = GpuRunResult {
            sim_ms: 3.0,
            reports: vec![report(1.0, 12, 8), report(2.0, 20, 8)],
            compile_ms: 0.5,
        };
        assert_eq!(r.regs_per_thread(), 20, "max over launches");
        assert_eq!(r.active_warps(), 8, "first launch");
        assert_eq!(r.dyn_insts(), 200);
        assert!((r.occupancy() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn variant_display() {
        assert_eq!(Variant::Re.to_string(), "RE");
        assert_eq!(Variant::Sk.to_string(), "SK");
        assert_ne!(Variant::Re, Variant::Sk);
    }
}
