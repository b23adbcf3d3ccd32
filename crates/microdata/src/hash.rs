//! A fast, non-cryptographic hasher for internal hash maps.
//!
//! Group-by and dictionary lookups hash short fixed-width keys (interned
//! `u32` codes, `i64` values) millions of times, where SipHash's HashDoS
//! resistance costs real throughput. This module implements the same
//! multiply-xor scheme popularized by `rustc-hash` ("FxHash"): it folds each
//! input word into the state with a rotate, xor, and multiplication by a
//! constant derived from the golden ratio.
//!
//! All maps built on [`FxBuildHasher`] are private to this workspace and never
//! keyed by attacker-controlled data, so the weaker collision resistance is
//! acceptable.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// 64-bit golden-ratio constant used to mix each word into the state.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Multiply-xor hasher compatible with `std::hash::Hasher`.
#[derive(Debug, Default, Clone)]
pub struct FxHasher {
    state: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Consume full 8-byte words, then the tail.
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
            self.add_to_hash(word);
        }
        let tail = chunks.remainder();
        if !tail.is_empty() {
            let mut word = 0u64;
            for (i, b) in tail.iter().enumerate() {
                word |= u64::from(*b) << (8 * i);
            }
            // Mix in the tail length so "ab" and "ab\0" differ.
            self.add_to_hash(word ^ ((tail.len() as u64) << 56));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add_to_hash(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add_to_hash(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add_to_hash(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_i64(&mut self, n: i64) {
        self.add_to_hash(n as u64);
    }
}

/// `BuildHasher` producing [`FxHasher`] instances.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_of<T: Hash + ?Sized>(value: &T) -> u64 {
        let mut hasher = FxHasher::default();
        value.hash(&mut hasher);
        hasher.finish()
    }

    #[test]
    fn equal_inputs_hash_equal() {
        assert_eq!(hash_of(&42u64), hash_of(&42u64));
        assert_eq!(hash_of(&"hello"), hash_of(&"hello"));
        assert_eq!(hash_of(&vec![1u32, 2, 3]), hash_of(&vec![1u32, 2, 3]));
    }

    #[test]
    fn different_inputs_hash_differently() {
        // Not guaranteed in general, but these simple cases must not collide.
        assert_ne!(hash_of(&1u64), hash_of(&2u64));
        assert_ne!(hash_of(&"ab"), hash_of(&"ba"));
        assert_ne!(hash_of(&"ab"), hash_of(&"ab\0"));
        assert_ne!(hash_of(&[1u32, 2][..]), hash_of(&[2u32, 1][..]));
    }

    #[test]
    fn tail_bytes_participate() {
        // Byte strings shorter than a word must still disperse.
        let a = hash_of(&b"abc".as_slice());
        let b = hash_of(&b"abd".as_slice());
        assert_ne!(a, b);
    }

    #[test]
    fn map_smoke_test() {
        let mut map: FxHashMap<Vec<u32>, usize> = FxHashMap::default();
        for i in 0..1000u32 {
            map.insert(vec![i, i * 2], i as usize);
        }
        assert_eq!(map.len(), 1000);
        assert_eq!(map.get(&vec![10, 20]), Some(&10));
    }

    #[test]
    fn distribution_is_not_degenerate() {
        // Hash 4096 consecutive integers and check bucket spread over 64
        // buckets: no bucket should hold more than 4x the expected share.
        let mut buckets = [0usize; 64];
        for i in 0..4096u64 {
            buckets[(hash_of(&i) % 64) as usize] += 1;
        }
        let expected = 4096 / 64;
        for (i, &count) in buckets.iter().enumerate() {
            assert!(
                count < expected * 4,
                "bucket {i} got {count} of expected {expected}"
            );
        }
    }
}
