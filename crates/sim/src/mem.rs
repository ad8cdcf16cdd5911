//! Device memory: the global-memory heap, constant bank, and the
//! transaction models (coalescing, shared-memory bank conflicts).

// Half-warp vs full-warp grouping is expressed as a slice of ranges even
// when a device has a single group; uniformity beats the lint here.
#![allow(clippy::single_range_in_vec_init, clippy::needless_range_loop)]

use crate::device::DeviceConfig;

/// Base device address of the first allocation. Non-zero so that null /
/// tiny pointers trap instead of silently reading allocation zero.
pub const GLOBAL_BASE: u64 = 0x1_0000;

/// Errors surfaced by simulated memory.
#[derive(Debug, Clone, PartialEq)]
pub enum MemError {
    OutOfBounds {
        addr: u64,
        len: u64,
        space: &'static str,
    },
    OutOfMemory {
        requested: u64,
        available: u64,
    },
    Misaligned {
        addr: u64,
        align: u64,
    },
}

impl std::fmt::Display for MemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MemError::OutOfBounds { addr, len, space } => {
                write!(f, "out-of-bounds {space} access at {addr:#x} (+{len})")
            }
            MemError::OutOfMemory {
                requested,
                available,
            } => {
                write!(
                    f,
                    "device OOM: requested {requested} bytes, {available} free"
                )
            }
            MemError::Misaligned { addr, align } => {
                write!(f, "misaligned access at {addr:#x} (requires {align})")
            }
        }
    }
}

impl std::error::Error for MemError {}

/// The device's global memory: a flat byte heap with a bump allocator.
#[derive(Debug, Clone)]
pub struct GlobalMem {
    data: Vec<u8>,
    next: u64,
}

impl GlobalMem {
    /// Create a heap with the given capacity in bytes.
    pub fn new(capacity: u64) -> GlobalMem {
        GlobalMem {
            data: vec![0u8; capacity as usize],
            next: 0,
        }
    }

    /// Allocate `bytes` (256-byte aligned, like cudaMalloc). Returns the
    /// device address.
    pub fn alloc(&mut self, bytes: u64) -> Result<u64, MemError> {
        let aligned = self.next.div_ceil(256) * 256;
        if aligned + bytes > self.data.len() as u64 {
            return Err(MemError::OutOfMemory {
                requested: bytes,
                available: self.data.len() as u64 - aligned.min(self.data.len() as u64),
            });
        }
        self.next = aligned + bytes;
        Ok(GLOBAL_BASE + aligned)
    }

    /// Reset the allocator (frees everything).
    pub fn reset(&mut self) {
        self.next = 0;
        self.data.fill(0);
    }

    pub fn capacity(&self) -> u64 {
        self.data.len() as u64
    }

    fn offset(&self, addr: u64, len: u64, align: u64) -> Result<usize, MemError> {
        if addr < GLOBAL_BASE || addr + len > GLOBAL_BASE + self.data.len() as u64 {
            return Err(MemError::OutOfBounds {
                addr,
                len,
                space: "global",
            });
        }
        if !addr.is_multiple_of(align) {
            return Err(MemError::Misaligned { addr, align });
        }
        Ok((addr - GLOBAL_BASE) as usize)
    }

    pub fn read_u32(&self, addr: u64) -> Result<u32, MemError> {
        let o = self.offset(addr, 4, 4)?;
        Ok(u32::from_le_bytes(self.data[o..o + 4].try_into().unwrap()))
    }

    pub fn write_u32(&mut self, addr: u64, v: u32) -> Result<(), MemError> {
        let o = self.offset(addr, 4, 4)?;
        self.data[o..o + 4].copy_from_slice(&v.to_le_bytes());
        Ok(())
    }

    /// Host→device copy.
    pub fn write_bytes(&mut self, addr: u64, bytes: &[u8]) -> Result<(), MemError> {
        let o = self.offset(addr, bytes.len() as u64, 1)?;
        self.data[o..o + bytes.len()].copy_from_slice(bytes);
        Ok(())
    }

    /// Device→host copy.
    pub fn read_bytes(&self, addr: u64, len: u64) -> Result<&[u8], MemError> {
        let o = self.offset(addr, len, 1)?;
        Ok(&self.data[o..o + len as usize])
    }

    /// Typed f32 convenience copies.
    pub fn write_f32_slice(&mut self, addr: u64, vals: &[f32]) -> Result<(), MemError> {
        let bytes: Vec<u8> = vals.iter().flat_map(|v| v.to_le_bytes()).collect();
        self.write_bytes(addr, &bytes)
    }

    pub fn read_f32_slice(&self, addr: u64, count: usize) -> Result<Vec<f32>, MemError> {
        let b = self.read_bytes(addr, count as u64 * 4)?;
        Ok(b.chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }

    pub fn write_i32_slice(&mut self, addr: u64, vals: &[i32]) -> Result<(), MemError> {
        let bytes: Vec<u8> = vals.iter().flat_map(|v| v.to_le_bytes()).collect();
        self.write_bytes(addr, &bytes)
    }

    pub fn read_i32_slice(&self, addr: u64, count: usize) -> Result<Vec<i32>, MemError> {
        let b = self.read_bytes(addr, count as u64 * 4)?;
        Ok(b.chunks_exact(4)
            .map(|c| i32::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }

    /// Raw interior access for the interpreter hot path.
    pub(crate) fn raw_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }
}

/// Lane ranges evaluated together: half-warps or the whole warp.
fn lane_groups(halves: bool) -> &'static [std::ops::Range<usize>] {
    if halves {
        &[0..16, 16..32]
    } else {
        &[0..32]
    }
}

/// `x / d` for a divisor fixed over a lane loop. Segment sizes and bank
/// counts are powers of two on every real device, and a 64-bit divide
/// per lane would dominate the transaction models.
#[inline(always)]
fn div_by(d: u64) -> impl Fn(u64) -> u64 {
    let shift = d.is_power_of_two().then(|| d.trailing_zeros());
    move |x| match shift {
        Some(s) => x >> s,
        None => x / d,
    }
}

/// `x % d`, as [`div_by`].
#[inline(always)]
fn rem_by(d: u64) -> impl Fn(u64) -> u64 {
    let pow2 = d.is_power_of_two();
    move |x| if pow2 { x & (d - 1) } else { x % d }
}

/// The memory line (`mem_segment`-sized) an address falls in.
#[inline(always)]
pub(crate) fn line_of(dev: &DeviceConfig) -> impl Fn(u64) -> u64 {
    div_by(dev.mem_segment)
}

/// Count the global-memory transactions a warp access generates.
///
/// `addrs` are the per-lane byte addresses; `mask` selects active lanes.
/// CC 1.x coalesces per half-warp into `mem_segment`-byte segments;
/// CC 2.x uses 128-byte cache lines across the whole warp.
pub fn coalesce_transactions(dev: &DeviceConfig, addrs: &[u64; 32], mask: u32) -> u32 {
    let line = line_of(dev);
    let mut total = 0u32;
    for g in lane_groups(dev.half_warp_coalescing) {
        // Distinct segments of this group, in first-touch order.
        let mut segs = [0u64; 32];
        let mut n = 0;
        for lane in g.clone() {
            if mask & (1 << lane) != 0 {
                let seg = line(addrs[lane]);
                if !segs[..n].contains(&seg) {
                    segs[n] = seg;
                    n += 1;
                }
            }
        }
        total += n as u32;
    }
    total
}

/// Shared-memory conflict degree: the maximum number of *distinct words*
/// mapping to the same bank within a conflict group (half-warp on CC 1.x,
/// full warp on CC 2.x). Broadcasts (same word) don't conflict. Returns ≥1
/// whenever any lane is active.
pub fn bank_conflict_degree(dev: &DeviceConfig, addrs: &[u64; 32], mask: u32) -> u32 {
    let bank_of = rem_by(dev.shared_banks as u64);
    // With at most 64 banks a bit mask tells which were touched: a word
    // in an untouched bank is neither a broadcast nor a conflict, which
    // spares the (common) conflict-free access every scan.
    let track_touched = dev.shared_banks <= 64;
    let mut worst = 1u32;
    for g in lane_groups(dev.cc_major == 1) {
        // Distinct words of this group and their banks. A bank's word
        // count is complete when its last distinct word arrives, so the
        // running maximum of "earlier words in my bank + 1" is the degree.
        let mut words = [0u64; 32];
        let mut banks = [0u64; 32];
        let mut n = 0;
        let mut touched = 0u64;
        'lanes: for lane in g.clone() {
            if mask & (1 << lane) != 0 {
                let word = addrs[lane] / 4;
                let bank = bank_of(word);
                let mut scan = n;
                if track_touched {
                    if touched & (1 << bank) == 0 {
                        scan = 0;
                    }
                    touched |= 1 << bank;
                }
                let mut in_bank = 0;
                for j in 0..scan {
                    if banks[j] == bank {
                        if words[j] == word {
                            continue 'lanes; // broadcast
                        }
                        in_bank += 1;
                    }
                }
                worst = worst.max(in_bank + 1);
                words[n] = word;
                banks[n] = bank;
                n += 1;
            }
        }
    }
    worst
}

/// An insert-only set of memory-line numbers (the per-block "this line
/// was already fetched" model): open addressing, cleared per block
/// without giving its capacity back.
#[derive(Debug, Default)]
pub(crate) struct LineSet {
    /// Power-of-two table; `None` is an empty slot.
    slots: Vec<Option<u64>>,
    len: usize,
}

impl LineSet {
    /// Add `line`; true when it was not yet present (`HashSet::insert`).
    pub(crate) fn insert(&mut self, line: u64) -> bool {
        if self.len * 2 >= self.slots.len() {
            self.grow();
        }
        let fresh = Self::place(&mut self.slots, line);
        self.len += fresh as usize;
        fresh
    }

    pub(crate) fn clear(&mut self) {
        self.slots.fill(None);
        self.len = 0;
    }

    fn place(slots: &mut [Option<u64>], line: u64) -> bool {
        let mask = slots.len() - 1;
        // Fibonacci hashing: consecutive lines spread over the table.
        let mut i = (line.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & mask;
        loop {
            match slots[i] {
                None => {
                    slots[i] = Some(line);
                    return true;
                }
                Some(l) if l == line => return false,
                Some(_) => i = (i + 1) & mask,
            }
        }
    }

    fn grow(&mut self) {
        let mut bigger = vec![None; (self.slots.len() * 2).max(64)];
        for line in self.slots.iter().flatten() {
            Self::place(&mut bigger, *line);
        }
        self.slots = bigger;
    }
}

/// The allocating definitions the fixed-array versions above replaced,
/// kept as the reference the property tests compare against.
#[cfg(test)]
mod reference {
    use super::DeviceConfig;

    pub fn coalesce_transactions(dev: &DeviceConfig, addrs: &[u64; 32], mask: u32) -> u32 {
        let mut total = 0u32;
        let groups: &[std::ops::Range<usize>] = if dev.half_warp_coalescing {
            &[0..16, 16..32]
        } else {
            &[0..32]
        };
        for g in groups {
            let mut segs: Vec<u64> = Vec::with_capacity(8);
            for lane in g.clone() {
                if mask & (1 << lane) != 0 {
                    let seg = addrs[lane] / dev.mem_segment;
                    if !segs.contains(&seg) {
                        segs.push(seg);
                    }
                }
            }
            total += segs.len() as u32;
        }
        total
    }

    pub fn bank_conflict_degree(dev: &DeviceConfig, addrs: &[u64; 32], mask: u32) -> u32 {
        let groups: &[std::ops::Range<usize>] = if dev.cc_major == 1 {
            &[0..16, 16..32]
        } else {
            &[0..32]
        };
        let mut worst = 0u32;
        for g in groups {
            let mut per_bank: Vec<Vec<u64>> = vec![Vec::new(); dev.shared_banks as usize];
            let mut any = false;
            for lane in g.clone() {
                if mask & (1 << lane) != 0 {
                    any = true;
                    let word = addrs[lane] / 4;
                    let bank = (word % dev.shared_banks as u64) as usize;
                    if !per_bank[bank].contains(&word) {
                        per_bank[bank].push(word);
                    }
                }
            }
            if any {
                let m = per_bank
                    .iter()
                    .map(|v| v.len() as u32)
                    .max()
                    .unwrap_or(1)
                    .max(1);
                worst = worst.max(m);
            }
        }
        worst.max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn alloc_and_roundtrip() {
        let mut g = GlobalMem::new(1 << 20);
        let a = g.alloc(1024).unwrap();
        assert_eq!(a % 256, 0);
        assert!(a >= GLOBAL_BASE);
        g.write_f32_slice(a, &[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(g.read_f32_slice(a, 3).unwrap(), vec![1.0, 2.0, 3.0]);
        let b = g.alloc(64).unwrap();
        assert!(b >= a + 1024);
    }

    #[test]
    fn bounds_and_alignment_checked() {
        let mut g = GlobalMem::new(4096);
        assert!(matches!(g.read_u32(0), Err(MemError::OutOfBounds { .. })));
        let a = g.alloc(16).unwrap();
        assert!(matches!(
            g.read_u32(a + 2),
            Err(MemError::Misaligned { .. })
        ));
        assert!(g.write_u32(a + 12, 7).is_ok());
        assert!(matches!(
            g.read_bytes(a, 1 << 30),
            Err(MemError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn oom_reported() {
        let mut g = GlobalMem::new(1024);
        assert!(matches!(g.alloc(4096), Err(MemError::OutOfMemory { .. })));
    }

    fn seq_addrs(base: u64, stride: u64) -> [u64; 32] {
        let mut a = [0u64; 32];
        for (i, v) in a.iter_mut().enumerate() {
            *v = base + i as u64 * stride;
        }
        a
    }

    #[test]
    fn coalesced_sequential_access() {
        let c2070 = DeviceConfig::tesla_c2070();
        // 32 consecutive floats starting 128-aligned = exactly one line.
        let t = coalesce_transactions(&c2070, &seq_addrs(0x1000, 4), u32::MAX);
        assert_eq!(t, 1);
        let c1060 = DeviceConfig::tesla_c1060();
        // Per half-warp: 16 floats = 64 bytes = 1 segment each.
        let t = coalesce_transactions(&c1060, &seq_addrs(0x1000, 4), u32::MAX);
        assert_eq!(t, 2);
    }

    #[test]
    fn strided_access_explodes_transactions() {
        let d = DeviceConfig::tesla_c2070();
        // Stride of 128 bytes: every lane hits its own line.
        let t = coalesce_transactions(&d, &seq_addrs(0, 128), u32::MAX);
        assert_eq!(t, 32);
    }

    #[test]
    fn masked_lanes_dont_count() {
        let d = DeviceConfig::tesla_c2070();
        let t = coalesce_transactions(&d, &seq_addrs(0, 128), 0b1111);
        assert_eq!(t, 4);
        assert_eq!(coalesce_transactions(&d, &seq_addrs(0, 128), 0), 0);
    }

    #[test]
    fn bank_conflicts() {
        let c1060 = DeviceConfig::tesla_c1060();
        // Sequential words: no conflicts.
        assert_eq!(bank_conflict_degree(&c1060, &seq_addrs(0, 4), u32::MAX), 1);
        // Stride of 16 words on 16 banks: every lane in a half-warp hits
        // bank 0 → 16-way conflict.
        assert_eq!(
            bank_conflict_degree(&c1060, &seq_addrs(0, 64), u32::MAX),
            16
        );
        // Broadcast: all lanes read the same word → no conflict.
        assert_eq!(bank_conflict_degree(&c1060, &[0x40; 32], u32::MAX), 1);
        // Fermi: 32 banks, stride 16 words → 16 distinct words per bank
        // pair... stride 32 words hits bank 0 for all 32 lanes.
        let c2070 = DeviceConfig::tesla_c2070();
        assert_eq!(
            bank_conflict_degree(&c2070, &seq_addrs(0, 128), u32::MAX),
            32
        );
        assert_eq!(bank_conflict_degree(&c2070, &seq_addrs(0, 4), u32::MAX), 1);
    }

    /// Addresses that collide often: a few bases, small strides, and the
    /// occasional wild pointer.
    fn lane_addrs() -> impl Strategy<Value = [u64; 32]> {
        let lane = prop_oneof![
            (0u64..4, 0u64..64).prop_map(|(base, i)| base * 0x1000 + i * 4),
            (0u64..2048).prop_map(|i| i * 4),
            (0u64..u64::MAX).prop_map(|a| a),
        ];
        prop::collection::vec(lane, 32).prop_map(|v| {
            let mut a = [0u64; 32];
            a.copy_from_slice(&v);
            a
        })
    }

    fn lane_mask() -> impl Strategy<Value = u32> {
        prop_oneof![
            Just(u32::MAX),
            Just(0u32),
            0u32..=u32::MAX,
            (1u32..32).prop_map(|n| (1u32 << n) - 1),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

        #[test]
        fn transaction_models_match_their_reference(addrs in lane_addrs(), mask in lane_mask()) {
            for dev in DeviceConfig::presets() {
                prop_assert_eq!(
                    coalesce_transactions(&dev, &addrs, mask),
                    reference::coalesce_transactions(&dev, &addrs, mask),
                    "coalescing on {} mask {:#x} {:?}", dev.name, mask, addrs
                );
                prop_assert_eq!(
                    bank_conflict_degree(&dev, &addrs, mask),
                    reference::bank_conflict_degree(&dev, &addrs, mask),
                    "bank conflicts on {} mask {:#x} {:?}", dev.name, mask, addrs
                );
            }
        }

        #[test]
        fn line_set_matches_hash_set(
            lines in prop::collection::vec(prop_oneof![0u64..40, 0u64..=u64::MAX], 0..400),
            clear_at in 0usize..400,
        ) {
            let mut ours = LineSet::default();
            let mut std_set = std::collections::HashSet::new();
            for (i, &l) in lines.iter().enumerate() {
                if i == clear_at {
                    ours.clear();
                    std_set.clear();
                }
                prop_assert_eq!(ours.insert(l), std_set.insert(l), "line {:#x}", l);
            }
        }
    }
}
