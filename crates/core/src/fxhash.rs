//! Minimal FxHash-style hasher for the stability-check memo table.
//!
//! The memo key is a small fixed-width `(u32, u64)` pair on the hottest
//! path of the search algorithms; SipHash (std's default) costs more than
//! the table lookup it protects, and this workspace has no crates.io
//! access for `rustc-hash`. This is the same multiply-rotate-xor scheme
//! rustc uses: not DoS-resistant, which is fine for a process-private
//! cache keyed by internal indices.

use std::hash::{BuildHasherDefault, Hasher};

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Multiply-rotate-xor hasher over machine words.
#[derive(Default)]
pub(crate) struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `BuildHasher` for [`FxHasher`]-backed maps.
pub(crate) type FxBuildHasher = BuildHasherDefault<FxHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    #[expect(clippy::disallowed_types, reason = "D001: tests the map's hasher")]
    use std::collections::HashMap;

    #[test]
    fn deterministic_and_key_sensitive() {
        #[expect(clippy::disallowed_types, reason = "D001: tests the map's hasher")]
        let mut map: HashMap<(u32, u64), u64, FxBuildHasher> = HashMap::default();
        for i in 0..100u32 {
            map.insert((i, u64::from(i) << 3), u64::from(i));
        }
        assert_eq!(map.len(), 100);
        for i in 0..100u32 {
            assert_eq!(map.get(&(i, u64::from(i) << 3)), Some(&u64::from(i)));
            assert_eq!(map.get(&(i, u64::from(i) << 3 | 1)), None);
        }
    }
}
