//! Shared-memory race findings.
//!
//! The per-word tracking is `ks_sim::racecheck::ShmemTracker`, the one a
//! `racecheck` launch runs: for every 4-byte shared-memory word, which
//! warps read and wrote it since the last block-wide barrier. A conflict
//! is reported only when *different warps* touch a word (with at least one
//! writer) inside one barrier interval, or when two lanes of the same
//! instruction write different values to the same word. Same-warp
//! cross-instruction accesses are ordered by lockstep execution and are
//! deliberately not flagged — warp-synchronous idioms like the tail of a
//! shared-memory reduction (`if (t < 16) red[t] += red[t + 16];`) are
//! correct programs.

/// Where a diagnostic points: (block index, instruction index).
pub type Site = (u32, usize);

/// A detected race, reported once per (kind, site) pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RaceFinding {
    /// `"write/write"`, `"read/write"`, or `"intra-warp write/write"`.
    pub kind: &'static str,
    pub word_addr: u64,
    pub site: Site,
    pub other_site: Site,
}

/// The races of one abstract execution, each (kind, site) pair once to
/// keep the output finite.
#[derive(Default)]
pub struct RaceLog {
    findings: Vec<RaceFinding>,
}

impl RaceLog {
    pub fn report(&mut self, kind: &'static str, word_addr: u64, site: Site, other_site: Site) {
        if self
            .findings
            .iter()
            .any(|r| (r.kind, r.site) == (kind, site))
        {
            return;
        }
        self.findings.push(RaceFinding {
            kind,
            word_addr,
            site,
            other_site,
        });
    }

    pub fn findings(&self) -> &[RaceFinding] {
        &self.findings
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplicate_sites_reported_once() {
        let mut log = RaceLog::default();
        for _ in 0..10 {
            log.report("write/write", 0x40, (1, 0), (1, 0));
        }
        log.report("read/write", 0x40, (1, 0), (2, 0));
        assert_eq!(log.findings().len(), 2);
    }
}
