//! The one fast hasher for the toolchain's internal maps.
//!
//! The construction is rustc-hash 2.x's: each word is added to the state,
//! which is then multiplied by an odd constant; a byte slice goes in 8
//! bytes at a time followed by one tail word tagged with the slice's
//! length; `finish` rotates the well-mixed high bits down to where
//! hashbrown takes its bucket index. It is deterministic (no per-process
//! seed) and not DoS-resistant: use it only for maps keyed by values the
//! compiler makes itself (registers, expression nodes, local ids,
//! immediates), never for keys that come from outside the program. No
//! output may depend on the iteration order of such a map.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

const K: u64 = 0xf135_7aea_2e62_a9c5;

/// A multiply-add hasher over 64-bit words; see the module docs.
#[derive(Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

/// `HashMap` with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;
/// `HashSet` with [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = self.hash.wrapping_add(word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().expect("chunks_exact(8)")));
        }
        // At most 7 tail bytes fill the low 56 bits; the top byte holds
        // the slice's length, so a zero byte appended changes the word.
        let mut tail = [0u8; 8];
        tail[..words.remainder().len()].copy_from_slice(words.remainder());
        tail[7] = bytes.len() as u8;
        self.add(u64::from_le_bytes(tail));
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.add(i as u64);
        self.add((i >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn bytes_hash(b: &[u8]) -> u64 {
        let mut h = FxHasher::default();
        h.write(b);
        h.finish()
    }

    #[test]
    fn one_changed_byte_or_an_appended_zero_changes_the_hash() {
        for len in 0..=24usize {
            let base: Vec<u8> = (0..len as u8).map(|i| i.wrapping_mul(37) ^ 0x5a).collect();
            let h = bytes_hash(&base);
            for i in 0..len {
                for delta in [1u8, 0x80, 0xff] {
                    let mut b = base.clone();
                    b[i] ^= delta;
                    assert_ne!(bytes_hash(&b), h, "len {len}, byte {i}, xor {delta:#x}");
                }
            }
            let mut longer = base.clone();
            longer.push(0);
            assert_ne!(bytes_hash(&longer), h, "len {len} + a zero byte");
        }
        // All-zero slices differ by length alone.
        for len in 0..24usize {
            assert_ne!(
                bytes_hash(&vec![0; len]),
                bytes_hash(&vec![0; len + 1]),
                "{len}"
            );
        }
    }

    #[test]
    fn equal_inputs_hash_equal_in_fresh_hashers() {
        let fresh = || BuildHasherDefault::<FxHasher>::default();
        for key in [(0u32, "a"), (7, ""), (u32::MAX, "kernel_body")] {
            assert_eq!(fresh().hash_one(key), fresh().hash_one(key));
        }
    }

    /// Pinned values: the hash of one value written as a `u32`, a `u64`
    /// and a byte slice is fixed, not seeded per process or per build.
    #[test]
    fn word_and_slice_hashes_are_stable() {
        let one = |f: &dyn Fn(&mut FxHasher)| {
            let mut h = FxHasher::default();
            f(&mut h);
            h.finish()
        };
        let v = 0x0123_4567_89ab_cdefu64;
        assert_eq!(one(&|h| h.write_u32(v as u32)), 0x208e_98ff_adc6_6c42);
        assert_eq!(one(&|h| h.write_u64(v)), 0x2c8e_98ff_aeb7_f9df);
        assert_eq!(one(&|h| h.write(&v.to_le_bytes())), 0x2784_5d4b_5eb4_98e7);
        let mut h = FxHasher::default();
        (v as u32).hash(&mut h);
        assert_eq!(h.finish(), one(&|h| h.write_u32(v as u32)));
    }
}
