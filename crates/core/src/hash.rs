//! A fast, deterministic integer hasher for the simulator's hot paths.
//!
//! `std`'s default `HashMap` hasher is SipHash-1-3: DoS-resistant, but it
//! processes a 64-bit key in several rounds and its random per-process seed
//! makes iteration order vary run to run. The FTL mapping table, resident
//! table, and device read cache hash *trusted* integer keys (LPNs, PPNs)
//! millions of times per replay, so they use this FxHash-style
//! multiply-xor hasher instead: one rotate, one xor, and one multiply per
//! word, with a fixed seed so behaviour is identical across runs — the
//! determinism the replay harness asserts byte-for-byte.
//!
//! Not collision-resistant against adversarial keys; never use it on
//! untrusted input.

#![expect(
    clippy::disallowed_types,
    reason = "this module defines the deterministic Fx aliases"
)]

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// The multiplier from the Firefox/rustc "Fx" hash: a 64-bit odd constant
/// derived from π with good avalanche behaviour under multiply.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// A `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

/// Multiply-xor hasher; see the module docs.
#[derive(Clone, Copy, Debug, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add_to_hash(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add_to_hash(u64::from(n));
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
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
    fn write_u128(&mut self, n: u128) {
        self.add_to_hash(n as u64);
        self.add_to_hash((n >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hash_one(write: impl FnOnce(&mut FxHasher)) -> u64 {
        let mut h = FxHasher::default();
        write(&mut h);
        h.finish()
    }

    #[test]
    fn deterministic_across_instances() {
        let a = hash_one(|h| h.write_u64(0xdead_beef));
        let b = hash_one(|h| h.write_u64(0xdead_beef));
        assert_eq!(a, b);
        assert_ne!(a, hash_one(|h| h.write_u64(0xdead_bef0)));
    }

    #[test]
    fn byte_stream_matches_padded_words() {
        // `write` must consume partial trailing chunks without panicking
        // and distinguish different lengths of the same prefix.
        let a = hash_one(|h| h.write(b"abcdefghi"));
        let b = hash_one(|h| h.write(b"abcdefgh"));
        assert_ne!(a, b);
    }

    #[test]
    fn map_and_set_roundtrip() {
        let mut map: FxHashMap<u64, &str> = FxHashMap::default();
        map.insert(1, "one");
        map.insert(u64::MAX, "max");
        assert_eq!(map.get(&1), Some(&"one"));
        assert_eq!(map.get(&u64::MAX), Some(&"max"));
        let mut set: FxHashSet<u64> = FxHashSet::default();
        assert!(set.insert(42));
        assert!(!set.insert(42));
    }

    #[test]
    fn nearby_integers_spread() {
        // Sequential LPNs are the common case; they must not collapse into
        // the same few buckets.
        let hashes: FxHashSet<u64> = (0..1024u64).map(|n| hash_one(|h| h.write_u64(n))).collect();
        assert_eq!(hashes.len(), 1024);
    }
}
