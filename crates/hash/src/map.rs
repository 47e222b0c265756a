//! A fast `HashMap` configuration for `u64` keys.
//!
//! The default `std` hasher (SipHash 1-3) is DoS-resistant but slow for
//! integer keys; every exact-statistics pass and candidate table in this
//! workspace keys on `u64` item identifiers, so we use the bijective
//! [`fingerprint64`] finalizer as the hasher —
//! the same approach as `rustc-hash`, implemented locally to keep the
//! dependency set closed.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

use crate::mix::fingerprint64;

/// Hasher state: mixes every written word through `fingerprint64`.
#[derive(Default, Clone)]
pub struct FpHasher {
    state: u64,
}

impl Hasher for FpHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Generic path (rare for our integer keys): fold 8-byte chunks.
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.state = fingerprint64(self.state ^ x);
    }

    #[inline]
    fn write_u32(&mut self, x: u32) {
        self.write_u64(x as u64);
    }

    #[inline]
    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }
}

/// `BuildHasher` for [`FpHasher`].
pub type FpBuildHasher = BuildHasherDefault<FpHasher>;

/// `HashMap` keyed by integers with the fast fingerprint hasher.
pub type FpHashMap<K, V> = HashMap<K, V, FpBuildHasher>;

/// `HashSet` with the fast fingerprint hasher.
pub type FpHashSet<K> = HashSet<K, FpBuildHasher>;

/// Construct an empty [`FpHashMap`].
pub fn fp_hash_map<K, V>() -> FpHashMap<K, V> {
    FpHashMap::default()
}

/// Construct an empty [`FpHashSet`].
pub fn fp_hash_set<K>() -> FpHashSet<K> {
    FpHashSet::default()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_roundtrip() {
        let mut m: FpHashMap<u64, u64> = fp_hash_map();
        for i in 0..10_000u64 {
            m.insert(i, i * 2);
        }
        assert_eq!(m.len(), 10_000);
        for i in 0..10_000u64 {
            assert_eq!(m.get(&i), Some(&(i * 2)));
        }
    }

    #[test]
    fn set_distinguishes_keys() {
        let mut s: FpHashSet<u64> = fp_hash_set();
        assert!(s.insert(1));
        assert!(s.insert(2));
        assert!(!s.insert(1));
        assert_eq!(s.len(), 2);
    }
}
