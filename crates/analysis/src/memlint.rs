//! Coalescing and bank-conflict prediction.
//!
//! Per memory-instruction site, accumulate exactly the quantities the
//! simulator measures — transactions via `ks_sim::mem::coalesce_transactions`
//! and conflict degree via `ks_sim::mem::bank_conflict_degree` — so the
//! static prediction and the simulator's `ExecStats` agree bit-for-bit on
//! kernels whose addresses the analysis resolves (cross-validated in the
//! test suite).

#![allow(clippy::single_range_in_vec_init)] // [0..32] is a slice of ranges, like ks_sim::mem

use crate::diag::MemPrediction;
use crate::race::Site;
use ks_ir::fxhash::FxHashMap;
use ks_sim::device::DeviceConfig;
use ks_sim::mem::{bank_conflict_degree, coalesce_transactions};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    GlobalLoad,
    GlobalStore,
    SharedLoad,
    SharedStore,
}

#[derive(Debug, Clone, Copy, Default)]
struct SiteStats {
    kind: Option<AccessKind>,
    /// Executions of this instruction with fully resolved addresses.
    count: u64,
    /// Global: measured transactions. Shared: summed conflict degree − 1.
    cost: u64,
    /// Global only: transactions a perfectly coalesced access of the same
    /// active-lane count would need.
    ideal: u64,
}

/// A performance finding at one memory instruction.
#[derive(Debug, Clone, PartialEq)]
pub struct MemFinding {
    pub site: Site,
    pub kind: AccessKind,
    pub message: String,
}

pub struct MemLint {
    dev: DeviceConfig,
    sites: FxHashMap<Site, SiteStats>,
    pub prediction: MemPrediction,
}

impl MemLint {
    pub fn new(dev: &DeviceConfig) -> MemLint {
        MemLint {
            dev: dev.clone(),
            sites: FxHashMap::default(),
            prediction: MemPrediction::default(),
        }
    }

    /// Transactions needed if the same active lanes accessed consecutive
    /// words starting at a segment boundary.
    fn ideal_transactions(&self, mask: u32) -> u64 {
        let groups: &[std::ops::Range<usize>] = if self.dev.half_warp_coalescing {
            &[0..16, 16..32]
        } else {
            &[0..32]
        };
        let mut total = 0u64;
        for g in groups {
            let lanes = g.clone().filter(|l| mask & (1 << l) != 0).count() as u64;
            if lanes > 0 {
                total += (lanes * 4).div_ceil(self.dev.mem_segment).max(1);
            }
        }
        total
    }

    /// Record a global access with fully resolved per-lane addresses.
    pub fn global(&mut self, kind: AccessKind, addrs: &[u64; 32], mask: u32, site: Site) {
        let t = coalesce_transactions(&self.dev, addrs, mask) as u64;
        self.prediction.global_transactions += t;
        match kind {
            AccessKind::GlobalStore => self.prediction.global_stores += 1,
            _ => self.prediction.global_loads += 1,
        }
        let ideal = self.ideal_transactions(mask);
        let s = self.sites.entry(site).or_default();
        s.kind = Some(kind);
        s.count += 1;
        s.cost += t;
        s.ideal += ideal;
    }

    /// Record a shared access with fully resolved per-lane addresses.
    pub fn shared(&mut self, kind: AccessKind, addrs: &[u64; 32], mask: u32, site: Site) {
        let d = bank_conflict_degree(&self.dev, addrs, mask) as u64;
        self.prediction.shared_accesses += 1;
        self.prediction.bank_conflict_extra += d - 1;
        let s = self.sites.entry(site).or_default();
        s.kind = Some(kind);
        s.count += 1;
        s.cost += d - 1;
    }

    /// Record an access the analysis could not resolve (excluded from the
    /// prediction; counting keeps the exclusion visible).
    pub fn unresolved(&mut self) {
        self.prediction.unresolved_accesses += 1;
    }

    /// Mirror the simulator: a global load/store instruction executed with
    /// no active lanes still counts as an access with zero transactions.
    pub fn finish(&self, bank_conflict_threshold: f64, coalescing_slack: f64) -> Vec<MemFinding> {
        let mut out: Vec<MemFinding> = Vec::new();
        let mut sites: Vec<(&Site, &SiteStats)> = self.sites.iter().collect();
        sites.sort_by_key(|(s, _)| **s);
        for (site, s) in sites {
            let Some(kind) = s.kind else { continue };
            match kind {
                AccessKind::SharedLoad | AccessKind::SharedStore => {
                    let mean_extra = s.cost as f64 / s.count as f64;
                    if mean_extra >= bank_conflict_threshold {
                        out.push(MemFinding {
                            site: *site,
                            kind,
                            message: format!(
                                "shared access replays {:.1}x on {} ({} banks): \
                                 {} extra conflict cycles over {} accesses",
                                mean_extra + 1.0,
                                self.dev.name,
                                self.dev.shared_banks,
                                s.cost,
                                s.count
                            ),
                        });
                    }
                }
                AccessKind::GlobalLoad | AccessKind::GlobalStore => {
                    let measured = s.cost as f64;
                    let ideal = s.ideal as f64;
                    // Require both a relative blow-up and at least one
                    // extra transaction per execution on average, so a
                    // single boundary-crossing access doesn't fire.
                    if measured > coalescing_slack * ideal && s.cost >= s.ideal + s.count {
                        out.push(MemFinding {
                            site: *site,
                            kind,
                            message: format!(
                                "uncoalesced on {} ({}-byte segments): {} transactions \
                                 where {} would suffice over {} accesses",
                                self.dev.name, self.dev.mem_segment, s.cost, s.ideal, s.count
                            ),
                        });
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(base: u64, stride: u64) -> [u64; 32] {
        let mut a = [0u64; 32];
        for (i, v) in a.iter_mut().enumerate() {
            *v = base + i as u64 * stride;
        }
        a
    }

    #[test]
    fn coalesced_access_stays_quiet() {
        let dev = DeviceConfig::tesla_c2070();
        let mut m = MemLint::new(&dev);
        for _ in 0..16 {
            m.global(AccessKind::GlobalLoad, &seq(0x1_0000, 4), u32::MAX, (0, 0));
        }
        assert!(m.finish(1.0, 2.0).is_empty());
        assert_eq!(m.prediction.global_transactions, 16);
        assert_eq!(m.prediction.global_loads, 16);
    }

    #[test]
    fn strided_access_flagged() {
        let dev = DeviceConfig::tesla_c2070();
        let mut m = MemLint::new(&dev);
        for _ in 0..16 {
            m.global(
                AccessKind::GlobalLoad,
                &seq(0x1_0000, 128),
                u32::MAX,
                (2, 5),
            );
        }
        let f = m.finish(1.0, 2.0);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].site, (2, 5));
        assert!(f[0].message.contains("uncoalesced"));
    }

    #[test]
    fn bank_conflicts_flagged() {
        let dev = DeviceConfig::tesla_c1060();
        let mut m = MemLint::new(&dev);
        // Stride of 16 words on 16 banks: 16-way conflict per half-warp.
        m.shared(AccessKind::SharedLoad, &seq(0, 64), u32::MAX, (1, 1));
        let f = m.finish(1.0, 2.0);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("replays"), "{}", f[0].message);
        assert_eq!(m.prediction.bank_conflict_extra, 15);
    }

    #[test]
    fn conflict_free_shared_stays_quiet() {
        let dev = DeviceConfig::tesla_c2070();
        let mut m = MemLint::new(&dev);
        m.shared(AccessKind::SharedLoad, &seq(0, 4), u32::MAX, (1, 1));
        assert!(m.finish(1.0, 2.0).is_empty());
        assert_eq!(m.prediction.shared_accesses, 1);
        assert_eq!(m.prediction.bank_conflict_extra, 0);
    }
}
