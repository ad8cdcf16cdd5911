//! Dynamic shared-memory race checking (a `cuda-memcheck --tool racecheck`
//! analogue). When [`crate::LaunchOptions::racecheck`] is set, the
//! interpreter records, for every 4-byte shared-memory word, the set of
//! warps that read and wrote it since the last `__syncthreads()`. Accesses
//! within one warp are ordered by SIMT lockstep, so only *cross-warp*
//! combinations are hazards; a barrier clears the sets. The static
//! racecheck of `ks-analysis` runs this same tracker over its abstract
//! lanes, so a kernel it proves clean also runs clean here; the pc of each
//! word's last read and last write lets it point at both accesses.

use std::collections::HashMap;

/// A hazard between unsynchronized warps on one shared-memory word.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RaceHazard {
    /// "write/write" or "read/write".
    pub kind: &'static str,
    /// Byte address of the conflicting word in the shared window.
    pub word_addr: u64,
    /// The warp performing the access that exposed the hazard.
    pub(crate) warp: u32,
    /// A warp that touched the word earlier in the same barrier interval.
    pub(crate) other_warp: u32,
    /// Pc of the word's last access of the conflicting sort: its last
    /// write, or for a write after reads, its last read.
    pub other_pc: u32,
}

impl std::fmt::Display for RaceHazard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "shared-memory {} race on word {:#x}: warp {} conflicts with warp {} \
             (no __syncthreads() between the accesses)",
            self.kind, self.word_addr, self.warp, self.other_warp
        )
    }
}

#[derive(Default, Clone, Copy)]
struct WordState {
    /// Bitmask of warps that wrote the word this barrier interval.
    writers: u64,
    /// Bitmask of warps that read it.
    readers: u64,
    write_pc: u32,
    read_pc: u32,
}

/// Per-block tracker of shared-memory access sets between barriers.
#[derive(Default)]
pub struct ShmemTracker {
    words: HashMap<u64, WordState>,
}

impl ShmemTracker {
    pub fn new() -> ShmemTracker {
        ShmemTracker::default()
    }

    /// A hazard of `kind` if a warp other than `warp` is in `mask`.
    fn hazard(
        kind: &'static str,
        mask: u64,
        warp: u32,
        word_addr: u64,
        other_pc: u32,
    ) -> Option<RaceHazard> {
        let others = mask & !(1u64 << (warp % 64));
        (others != 0).then(|| RaceHazard {
            kind,
            word_addr,
            warp,
            other_warp: others.trailing_zeros(),
            other_pc,
        })
    }

    /// Record a 4-byte read of the word at `word_addr` by `warp` at `pc`:
    /// a hazard if another warp wrote it.
    pub fn read(&mut self, warp: u32, word_addr: u64, pc: u32) -> Option<RaceHazard> {
        let s = self.words.entry(word_addr / 4).or_default();
        let hazard = Self::hazard("read/write", s.writers, warp, word_addr, s.write_pc);
        s.readers |= 1 << (warp % 64);
        s.read_pc = pc;
        hazard
    }

    /// Record a 4-byte write to the word at `word_addr` by `warp` at `pc`:
    /// a write/write hazard if another warp wrote it, then a read/write
    /// one if another warp read it.
    pub fn write(
        &mut self,
        warp: u32,
        word_addr: u64,
        pc: u32,
    ) -> impl Iterator<Item = RaceHazard> {
        let s = self.words.entry(word_addr / 4).or_default();
        let hazards = [
            Self::hazard("write/write", s.writers, warp, word_addr, s.write_pc),
            Self::hazard("read/write", s.readers, warp, word_addr, s.read_pc),
        ];
        s.writers |= 1 << (warp % 64);
        s.write_pc = pc;
        hazards.into_iter().flatten()
    }

    /// A block-wide barrier orders everything that came before it.
    pub fn barrier(&mut self) {
        self.words.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_warp_accesses_never_race() {
        let mut t = ShmemTracker::new();
        assert!(t.write(0, 0x10, 0).next().is_none());
        assert!(t.write(0, 0x10, 1).next().is_none());
        assert!(t.read(0, 0x10, 2).is_none());
        assert!(t.write(0, 0x10, 3).next().is_none());
    }

    #[test]
    fn cross_warp_write_write_races() {
        let mut t = ShmemTracker::new();
        assert!(t.write(0, 0x10, 3).next().is_none());
        let h = t.write(1, 0x10, 5).next().expect("race");
        assert_eq!(h.kind, "write/write");
        assert_eq!((h.warp, h.other_warp, h.other_pc), (1, 0, 3));
    }

    #[test]
    fn cross_warp_read_after_write_races_and_barrier_clears() {
        let mut t = ShmemTracker::new();
        assert!(t.write(0, 0x20, 0).next().is_none());
        let h = t.read(1, 0x20, 1).expect("race");
        assert_eq!((h.kind, h.other_pc), ("read/write", 0));
        t.barrier();
        assert!(t.read(1, 0x20, 2).is_none());
        // Read-then-write from another warp is also a hazard, and only
        // that one: the word has no other writer.
        let mut hazards = t.write(0, 0x20, 3);
        let h = hazards.next().expect("race");
        assert_eq!((h.kind, h.other_warp, h.other_pc), ("read/write", 1, 2));
        assert!(hazards.next().is_none());
    }

    #[test]
    fn distinct_words_do_not_interact() {
        let mut t = ShmemTracker::new();
        assert!(t.write(0, 0x0, 0).next().is_none());
        assert!(t.write(1, 0x4, 0).next().is_none());
        assert!(t.read(2, 0x8, 0).is_none());
    }
}
