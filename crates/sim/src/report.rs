//! Human-readable rendering of launch reports — the per-kernel profile the
//! GPU-PF log excerpts of Appendix G print between pipeline iterations.

use crate::launch::LaunchReport;
use std::fmt::Write;

/// Multi-line textual summary of one launch.
pub fn summarize(r: &LaunchReport) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "kernel {} on {}", r.kernel, r.device);
    let _ = writeln!(
        s,
        "  time {:.6} ms  ({} cycles, {:?}-bound)",
        r.time_ms, r.cycles, r.bound
    );
    let _ = writeln!(
        s,
        "  regs/thread {}  preds {}  shared {} B  local {} B  static insts {}",
        r.regs_per_thread,
        r.pred_regs,
        r.shared_per_block,
        r.local_bytes_per_thread,
        r.static_insts
    );
    let o = &r.occupancy;
    let _ = writeln!(
        s,
        "  occupancy {:.2} ({} warps, {} blocks/SM, limited by {:?})",
        o.occupancy, o.active_warps, o.blocks_per_sm, o.limiter
    );
    let st = &r.stats;
    let _ = writeln!(
        s,
        "  dyn insts {}  (alu {} mul {} div/sqrt {} branch {} bar {})",
        st.dyn_insts, st.alu, st.mul, st.div_sqrt, st.branches, st.barriers
    );
    let _ = writeln!(
        s,
        "  mem: {} ld / {} st, {} transactions, {} B DRAM; shared {} (+{} conflicts); local {}; const {}; param {}",
        st.global_loads,
        st.global_stores,
        st.global_transactions,
        st.global_bytes,
        st.shared_accesses,
        st.bank_conflict_extra,
        st.local_accesses,
        st.const_loads,
        st.param_loads
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::ExecStats;
    use crate::occupancy::{Limiter, Occupancy};
    use crate::Bound;

    #[test]
    fn summary_contains_key_fields() {
        let r = LaunchReport {
            kernel: "numerator".into(),
            device: "Tesla C1060".into(),
            time_ms: 1.25,
            cycles: 1_620_000,
            occupancy: Occupancy {
                blocks_per_sm: 4,
                warps_per_block: 4,
                active_warps: 16,
                occupancy: 0.5,
                limiter: Limiter::Registers,
            },
            regs_per_thread: 21,
            pred_regs: 2,
            shared_per_block: 1024,
            local_bytes_per_thread: 0,
            static_insts: 230,
            stats: ExecStats {
                dyn_insts: 12345,
                global_loads: 10,
                ..Default::default()
            },
            bound: Bound::Compute,
            host_plan_us: 0.0,
            host_sample_us: 0.0,
            host_functional_us: 0.0,
        };
        let s = summarize(&r);
        assert!(s.contains("numerator"));
        assert!(s.contains("Tesla C1060"));
        assert!(s.contains("regs/thread 21"));
        assert!(s.contains("occupancy 0.50"));
        assert!(s.contains("Registers"));
        assert!(s.contains("12345"));
    }
}
