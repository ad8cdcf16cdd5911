//! Stable 128-bit fingerprints over explicitly-fed fields, and the
//! 64-bit record payload [`checksum`].
//!
//! [`StableHasher`] is a hand-rolled 128-bit FNV-1a. It deliberately
//! does **not** implement `std::hash::Hasher` and is not fed through
//! `#[derive(Hash)]`: the std `Hash` impls for compound types make no
//! cross-release stability promise, so every caller writes each field
//! through one of the typed methods below instead. Strings and byte
//! slices are length-prefixed, options and enums are tag-prefixed —
//! `("ab", "c")` and `("a", "bc")` can never collide by concatenation.
//!
//! The parameters are the standard FNV-1a 128 constants; tests pin the
//! exact output for fixed inputs so any accidental change to constants
//! or field discipline fails CI before it can corrupt a persisted
//! store.

/// FNV-1a 128-bit offset basis.
const OFFSET_BASIS: u128 = 0x6c62272e07bb014262b821756295c58d;
/// FNV-1a 128-bit prime.
const PRIME: u128 = 0x0000000001000000000000000000013b;

/// A stable 128-bit content fingerprint, safe to persist.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(u128);

impl Fingerprint {
    pub fn from_u128(v: u128) -> Fingerprint {
        Fingerprint(v)
    }

    pub fn as_u128(self) -> u128 {
        self.0
    }

    /// Low 64 bits, for consumers that need a compact `u64` handle
    /// (shard selection, fault-plan key matching, backoff jitter).
    /// Never use this as the on-disk identity — that is the full 128
    /// bits.
    pub fn lo64(self) -> u64 {
        self.0 as u64
    }

    /// 32 lowercase hex characters, most significant first.
    pub fn to_hex(self) -> String {
        format!("{:032x}", self.0)
    }

    /// Parse the `to_hex` form.
    pub fn from_hex(s: &str) -> Option<Fingerprint> {
        if s.len() != 32 {
            return None;
        }
        u128::from_str_radix(s, 16).ok().map(Fingerprint)
    }
}

impl std::fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

impl std::fmt::Debug for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Fingerprint({:032x})", self.0)
    }
}

/// Incremental FNV-1a 128 over typed, length-disciplined field writes.
#[derive(Clone)]
pub struct StableHasher {
    state: u128,
}

impl Default for StableHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl StableHasher {
    pub fn new() -> StableHasher {
        StableHasher {
            state: OFFSET_BASIS,
        }
    }

    /// Raw bytes, no length prefix. Only for fixed-width data; for
    /// variable-length fields use [`StableHasher::bytes`] or
    /// [`StableHasher::str`].
    pub fn raw(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.state ^= b as u128;
            self.state = self.state.wrapping_mul(PRIME);
        }
        self
    }

    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.raw(&[v])
    }

    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.raw(&v.to_le_bytes())
    }

    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.raw(&v.to_le_bytes())
    }

    pub fn u128(&mut self, v: u128) -> &mut Self {
        self.raw(&v.to_le_bytes())
    }

    pub fn i64(&mut self, v: i64) -> &mut Self {
        self.raw(&v.to_le_bytes())
    }

    pub fn usize(&mut self, v: usize) -> &mut Self {
        self.u64(v as u64)
    }

    pub fn bool(&mut self, v: bool) -> &mut Self {
        self.u8(v as u8)
    }

    /// f32 by IEEE-754 bit pattern (NaN payloads included verbatim).
    pub fn f32_bits(&mut self, v: f32) -> &mut Self {
        self.u32(v.to_bits())
    }

    /// Length-prefixed byte slice.
    pub fn bytes(&mut self, v: &[u8]) -> &mut Self {
        self.u64(v.len() as u64);
        self.raw(v)
    }

    /// Length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) -> &mut Self {
        self.bytes(v.as_bytes())
    }

    /// Tag-prefixed option: 0 for None, 1 + payload for Some.
    pub fn opt_str(&mut self, v: Option<&str>) -> &mut Self {
        match v {
            None => self.u8(0),
            Some(s) => {
                self.u8(1);
                self.str(s)
            }
        }
    }

    pub fn finish(&self) -> Fingerprint {
        Fingerprint(self.state)
    }
}

/// FNV-1a 64-bit offset basis.
const OFFSET64: u64 = 0xcbf29ce484222325;
/// FNV-1a 64-bit prime.
const PRIME64: u64 = 0x00000100000001b3;

/// One FNV-1a-64 step over a whole value: `(h ^ x) * PRIME64`. For a
/// fixed `h` it is a bijection in `x` (xor, then a multiply by an odd
/// number mod 2^64), and for a fixed `x` a bijection in `h`.
fn step(h: u64, x: u64) -> u64 {
    (h ^ x).wrapping_mul(PRIME64)
}

/// The record payload checksum (store format 2).
///
/// Four interleaved lanes, lane `i` seeded with `OFFSET64 ^ i`, each take
/// FNV-1a-64 steps over the little-endian 8-byte words of every full
/// 32-byte chunk; the lanes are then folded in order into `h`, followed
/// by the bytes of the ragged tail and the payload length. The lanes'
/// multiplies are independent, so the loop runs at memory speed instead
/// of one dependent multiply per byte.
///
/// Every step is a bijection in its input, so for fixed surrounding
/// bytes the map from any one aligned word (or tail byte) to the result
/// is a bijection: a corruption confined to one word — every single-bit
/// and single-byte flip included — always changes the checksum.
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut lanes = [OFFSET64, OFFSET64 ^ 1, OFFSET64 ^ 2, OFFSET64 ^ 3];
    let mut chunks = bytes.chunks_exact(32);
    for chunk in &mut chunks {
        for (i, lane) in lanes.iter_mut().enumerate() {
            let word: [u8; 8] = chunk[8 * i..8 * i + 8]
                .try_into()
                .expect("a 32-byte chunk holds four words");
            *lane = step(*lane, u64::from_le_bytes(word));
        }
    }
    let mut h = OFFSET64;
    for lane in lanes {
        h = step(h, lane);
    }
    for &b in chunks.remainder() {
        h = step(h, u64::from(b));
    }
    step(h, bytes.len() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pins the hasher to the published FNV-1a 128 parameters: the
    /// empty input hashes to the offset basis, and the constants are
    /// the standard ones. If this test fails, a persisted store
    /// written by the previous build is unreadable — bump
    /// `crate::FORMAT_VERSION` and fix the hasher, or revert.
    #[test]
    fn empty_input_is_the_offset_basis() {
        assert_eq!(
            StableHasher::new().finish().to_hex(),
            "6c62272e07bb014262b821756295c58d"
        );
    }

    /// Published FNV-1a 128 test vectors (raw bytes, no length
    /// prefix).
    #[test]
    fn known_fnv1a128_vectors() {
        let mut h = StableHasher::new();
        h.raw(b"a");
        assert_eq!(h.finish().to_hex(), "d228cb696f1a8caf78912b704e4a8964");
        let mut h = StableHasher::new();
        h.raw(b"foobar");
        assert_eq!(h.finish().to_hex(), "343e1662793c64bf6f0d3597ba446f18");
    }

    /// A deterministic byte pattern of length `n`.
    fn pattern(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 31 + 7) as u8).collect()
    }

    /// Pins the record checksum: if this fails, every record written by
    /// the previous build reads as `ChecksumMismatch` — bump
    /// `crate::FORMAT_VERSION` and re-pin, or revert. The 1 000-byte
    /// pattern covers 31 full chunks and an 8-byte tail.
    #[test]
    fn known_record_checksum_vectors() {
        assert_eq!(checksum(b""), 0xf1fc_e322_bc1d_af2f);
        assert_eq!(checksum(b"a"), 0x4fa7_fe05_a782_fac7);
        assert_eq!(checksum(b"foobar"), 0x1214_45d5_d4ab_fdda);
        assert_eq!(checksum(&pattern(1000)), 0x6852_07a5_fa45_a827);
    }

    /// 4 KiB + 13 bytes: 128 full chunks and a ragged tail.
    const FLIP_LEN: usize = 4096 + 13;

    #[test]
    fn every_single_bit_flip_changes_the_checksum() {
        let mut data = pattern(FLIP_LEN);
        let base = checksum(&data);
        for pos in 0..data.len() {
            for bit in 0..8 {
                data[pos] ^= 1 << bit;
                assert_ne!(checksum(&data), base, "flip of bit {bit} at byte {pos}");
                data[pos] ^= 1 << bit;
            }
        }
    }

    /// Any one aligned word of a full chunk replaced by each of 64 seeded
    /// values, and any one tail byte by each other value, changes the
    /// checksum.
    #[test]
    fn changing_any_one_word_changes_the_checksum() {
        let mut data = pattern(FLIP_LEN);
        let base = checksum(&data);
        let mut seed = 0x9e37_79b9_7f4a_7c15u64;
        let full = data.len() / 32 * 32;
        for at in (0..full).step_by(8) {
            let orig: [u8; 8] = data[at..at + 8].try_into().unwrap();
            for _ in 0..64 {
                // splitmix64
                seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = seed;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                let value = (z ^ (z >> 31)).to_le_bytes();
                if value == orig {
                    continue;
                }
                data[at..at + 8].copy_from_slice(&value);
                assert_ne!(checksum(&data), base, "word at byte {at} := {value:02x?}");
            }
            data[at..at + 8].copy_from_slice(&orig);
        }
        for at in full..data.len() {
            let orig = data[at];
            for value in (0..=u8::MAX).filter(|&v| v != orig) {
                data[at] = value;
                assert_ne!(checksum(&data), base, "tail byte {at} := {value:#04x}");
            }
            data[at] = orig;
        }
    }

    /// Length discipline: adjacent variable-length fields cannot
    /// collide by shifting bytes across the boundary.
    #[test]
    fn length_prefix_prevents_concatenation_collisions() {
        let mut a = StableHasher::new();
        a.str("ab").str("c");
        let mut b = StableHasher::new();
        b.str("a").str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn option_tagging_distinguishes_none_from_empty() {
        let mut a = StableHasher::new();
        a.opt_str(None);
        let mut b = StableHasher::new();
        b.opt_str(Some(""));
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn fingerprint_hex_roundtrip() {
        let mut h = StableHasher::new();
        h.str("roundtrip").u64(42);
        let fp = h.finish();
        assert_eq!(Fingerprint::from_hex(&fp.to_hex()), Some(fp));
        assert_eq!(fp.to_hex().len(), 32);
        assert_eq!(Fingerprint::from_hex("xyz"), None);
    }

    #[test]
    fn lo64_matches_low_bits() {
        let fp = Fingerprint::from_u128(0xAAAA_BBBB_CCCC_DDDD_1111_2222_3333_4444);
        assert_eq!(fp.lo64(), 0x1111_2222_3333_4444);
    }
}
