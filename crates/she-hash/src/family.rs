//! Families of independent hash functions.
//!
//! Every multi-hash sketch (Bloom filter, Count-Min, MinHash) needs `k`
//! functions that behave independently. We derive them from [`Bob32`] with
//! distinct seeds, matching the paper's use of differently-seeded BOBHash.

use crate::{Bob32, HashKey};

/// `k` independent seeded hash functions with range-reduction helpers.
#[derive(Debug, Clone)]
pub struct HashFamily {
    /// One lookup3 seed per function — kept as the flat array
    /// [`Bob32::hash_seeds`] walks, and the only copy.
    seeds: Vec<u32>,
}

impl HashFamily {
    /// Create a family of `k` hash functions derived from `seed`.
    ///
    /// Seeds are spread with a golden-ratio stride so families built from
    /// adjacent seeds do not share members.
    pub fn new(k: usize, seed: u32) -> Self {
        assert!(k > 0, "a hash family needs at least one function");
        let seeds = (0..k)
            .map(|i| seed.wrapping_add((i as u32).wrapping_mul(0x9E37_79B9)).wrapping_add(1))
            .collect();
        Self { seeds }
    }

    /// Number of functions in the family.
    #[inline]
    pub fn k(&self) -> usize {
        self.seeds.len()
    }

    /// The `i`-th function applied to `key`, as a raw 32-bit value.
    #[inline]
    pub fn hash<K: HashKey + ?Sized>(&self, i: usize, key: &K) -> u32 {
        key.with_bytes(|b| Bob32::new(self.seeds[i]).hash(b))
    }

    /// Functions `first..first + out.len()` applied to `key`, as raw
    /// 32-bit values, in one lane-wise pass ([`Bob32::hash_seeds`]) —
    /// `out[j]` equals `self.hash(first + j, key)`.
    #[inline]
    pub fn hash_range<K: HashKey + ?Sized>(&self, first: usize, key: &K, out: &mut [u32]) {
        let seeds = &self.seeds[first..first + out.len()];
        key.with_bytes(|b| Bob32::hash_seeds(seeds, b, out));
    }

    /// The `i`-th function applied to `key`, as a raw 64-bit value.
    #[inline]
    pub fn hash64<K: HashKey + ?Sized>(&self, i: usize, key: &K) -> u64 {
        key.with_bytes(|b| Bob32::new(self.seeds[i]).hash64(b))
    }

    /// The `i`-th function reduced to an index in `[0, n)`.
    #[inline]
    pub fn index<K: HashKey + ?Sized>(&self, i: usize, key: &K, n: usize) -> usize {
        (self.hash(i, key) as usize) % n
    }

    /// All `k` indices for `key` in `[0, n)`, pushed into `out`.
    ///
    /// Reuses the caller's buffer so hot insertion paths do not allocate.
    #[inline]
    pub fn indices_into<K: HashKey + ?Sized>(&self, key: &K, n: usize, out: &mut Vec<usize>) {
        out.clear();
        key.with_bytes(|b| {
            for &seed in &self.seeds {
                out.push((Bob32::new(seed).hash(b) as usize) % n);
            }
        });
    }

    /// All `k` indices for `key` in `[0, n)` as a fresh vector.
    pub fn indices<K: HashKey + ?Sized>(&self, key: &K, n: usize) -> Vec<usize> {
        let mut v = Vec::with_capacity(self.k());
        self.indices_into(key, n, &mut v);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn family_members_are_distinct() {
        let f = HashFamily::new(8, 0);
        let vals: Vec<u32> = (0..8).map(|i| f.hash(i, &123u64)).collect();
        let uniq: std::collections::HashSet<_> = vals.iter().collect();
        assert_eq!(uniq.len(), 8);
    }

    #[test]
    fn families_from_adjacent_seeds_differ() {
        let a = HashFamily::new(4, 10);
        let b = HashFamily::new(4, 11);
        assert_ne!(
            (0..4).map(|i| a.hash(i, &7u32)).collect::<Vec<_>>(),
            (0..4).map(|i| b.hash(i, &7u32)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn indices_in_range_and_stable() {
        let f = HashFamily::new(6, 3);
        let idx = f.indices(&"flow-1", 97);
        assert_eq!(idx.len(), 6);
        assert!(idx.iter().all(|&i| i < 97));
        assert_eq!(idx, f.indices(&"flow-1", 97));
        let mut buf = Vec::new();
        f.indices_into(&"flow-1", 97, &mut buf);
        assert_eq!(buf, idx);
    }

    #[test]
    fn hash_range_matches_per_function_hash() {
        let f = HashFamily::new(67, 9);
        let long = "a key longer than one lookup3 block";
        let mut out = vec![0u32; 67];
        f.hash_range(0, &123u64, &mut out);
        assert_eq!(out, (0..67).map(|i| f.hash(i, &123u64)).collect::<Vec<_>>());
        f.hash_range(0, long, &mut out);
        assert_eq!(out, (0..67).map(|i| f.hash(i, long)).collect::<Vec<_>>());
        f.hash_range(60, "flow-1", &mut out[..7]);
        assert_eq!(out[..7], (60..67).map(|i| f.hash(i, "flow-1")).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic]
    fn zero_k_panics() {
        let _ = HashFamily::new(0, 0);
    }

    #[test]
    fn pairwise_collision_rate_is_sane() {
        // Two members of the family should rarely agree modulo a big range.
        let f = HashFamily::new(2, 5);
        let n = 1 << 16;
        let mut coll = 0;
        for key in 0..20_000u64 {
            if f.index(0, &key, n) == f.index(1, &key, n) {
                coll += 1;
            }
        }
        // Expected ~ 20000/65536 ≈ 0.3 collisions per 1000; allow slack.
        assert!(coll < 20, "too many cross-member collisions: {coll}");
    }
}
