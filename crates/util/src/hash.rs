//! A fixed multiplicative hasher for maps keyed by sequential ids.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A [`Hasher`] for integer keys: each word written is folded in with
/// one rotate, xor and multiply, with no per-process seed, so a map's
/// layout is the same in every run. Meant for maps keyed by sequential
/// ids that nothing iterates in hash order; it does not defend against
/// chosen keys.
#[derive(Clone, Copy, Debug, Default)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u64(u64::from(b)));
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
}

/// A [`HashMap`] hashed by [`IdHasher`].
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    /// The hash of a word is fixed across runs, and sequential ids land
    /// in distinct low bits, which pick a key's bucket.
    #[test]
    fn hashes_are_fixed_and_spread_sequential_ids() {
        let hash = |id: u64| {
            let mut h = IdHasher::default();
            h.write_u64(id);
            h.finish()
        };
        assert_eq!(hash(1), 0x9e37_79b9_7f4a_7c15);
        let mut low: Vec<u64> = (0..1024).map(|id| hash(id) % 1024).collect();
        low.sort_unstable();
        low.dedup();
        assert_eq!(low.len(), 1024);
        let mut map = IdMap::default();
        map.extend((0..100u64).map(|id| (id, id * 2)));
        assert_eq!(map.remove(&42), Some(84));
        assert_eq!(map.len(), 99);
    }
}
