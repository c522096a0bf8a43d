//! A fixed, word-at-a-time hasher for the generator's own keys (the
//! multiply-rotate scheme of rustc's `FxHasher`). The keys are small
//! structured values built from the specification, so SipHash's
//! flooding resistance buys nothing and costs most of a map probe. No
//! output depends on map iteration order.

use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` hashed with [`FxHasher`].
pub(crate) type FxMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FxHasher>>;
/// A `HashSet` hashed with [`FxHasher`].
pub(crate) type FxSet<K> = std::collections::HashSet<K, BuildHasherDefault<FxHasher>>;

const K: u64 = 0x517c_c1b7_2722_0a95;

/// Folds each word in as `hash = (hash.rotl(5) ^ word) * K`.
#[derive(Default)]
pub(crate) struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().unwrap()));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut w = [0u8; 8];
            w[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(w));
        }
    }
    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(i.into());
    }
    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(i.into());
    }
    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(i.into());
    }
    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }
    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}
