//! Jenkins lookup3 (`hashlittle`), the "BOBHash" the SHE paper uses.
//!
//! Implemented from Bob Jenkins' public-domain description
//! (<http://burtleburtle.net/bob/hash/doobs.html>). The byte-at-a-time tail
//! handling below is equivalent to the original's aligned fast paths; we only
//! need the value, not the last nanosecond, and this form is endianness-safe.

/// Seedable lookup3 hasher producing 32-bit values.
///
/// Two `Bob32` instances with different seeds behave as independent hash
/// functions, which is how the multi-hash sketches derive their families.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bob32 {
    seed: u32,
}

#[inline(always)]
fn rot(x: u32, k: u32) -> u32 {
    x.rotate_left(k)
}

#[inline(always)]
fn mix(a: &mut u32, b: &mut u32, c: &mut u32) {
    *a = a.wrapping_sub(*c);
    *a ^= rot(*c, 4);
    *c = c.wrapping_add(*b);
    *b = b.wrapping_sub(*a);
    *b ^= rot(*a, 6);
    *a = a.wrapping_add(*c);
    *c = c.wrapping_sub(*b);
    *c ^= rot(*b, 8);
    *b = b.wrapping_add(*a);
    *a = a.wrapping_sub(*c);
    *a ^= rot(*c, 16);
    *c = c.wrapping_add(*b);
    *b = b.wrapping_sub(*a);
    *b ^= rot(*a, 19);
    *a = a.wrapping_add(*c);
    *c = c.wrapping_sub(*b);
    *c ^= rot(*b, 4);
    *b = b.wrapping_add(*a);
}

#[inline(always)]
fn final_mix(a: &mut u32, b: &mut u32, c: &mut u32) {
    *c ^= *b;
    *c = c.wrapping_sub(rot(*b, 14));
    *a ^= *c;
    *a = a.wrapping_sub(rot(*c, 11));
    *b ^= *a;
    *b = b.wrapping_sub(rot(*a, 25));
    *c ^= *b;
    *c = c.wrapping_sub(rot(*b, 16));
    *a ^= *c;
    *a = a.wrapping_sub(rot(*c, 4));
    *b ^= *a;
    *b = b.wrapping_sub(rot(*a, 14));
    *c ^= *b;
    *c = c.wrapping_sub(rot(*b, 24));
}

#[inline(always)]
fn load_word(chunk: &[u8]) -> u32 {
    // Little-endian load with zero padding for short tails.
    let mut w = 0u32;
    for (i, &byte) in chunk.iter().enumerate().take(4) {
        w |= (byte as u32) << (8 * i);
    }
    w
}

/// The three zero-padded words of a 1..=12-byte tail. lookup3 adds only
/// the words the tail reaches; adding a zero word is the same sum.
#[inline(always)]
fn tail_words(tail: &[u8]) -> [u32; 3] {
    debug_assert!((1..=12).contains(&tail.len()));
    [
        load_word(tail),
        if tail.len() > 4 { load_word(&tail[4..]) } else { 0 },
        if tail.len() > 8 { load_word(&tail[8..]) } else { 0 },
    ]
}

/// lookup3's last block: add the tail words and run `final_mix`. For a
/// key of 1..=12 bytes this is the whole hash (`a = b = c = initval`),
/// which is what lets [`Bob32::hash_seeds`] run it lane-wise over seeds.
#[inline(always)]
fn finish(mut a: u32, mut b: u32, mut c: u32, w: [u32; 3]) -> u32 {
    a = a.wrapping_add(w[0]);
    b = b.wrapping_add(w[1]);
    c = c.wrapping_add(w[2]);
    final_mix(&mut a, &mut b, &mut c);
    c
}

/// lookup3's `initval` mixing: the starting value of `a`, `b` and `c`.
#[inline(always)]
fn init(seed: u32, len: usize) -> u32 {
    0xdead_beef_u32.wrapping_add(len as u32).wrapping_add(seed)
}

impl Bob32 {
    /// Create a hasher with the given seed (the lookup3 `initval`).
    #[inline]
    pub const fn new(seed: u32) -> Self {
        Self { seed }
    }

    /// The seed this hasher was constructed with.
    #[inline]
    pub const fn seed(&self) -> u32 {
        self.seed
    }

    /// Hash a byte string to 32 bits (lookup3 `hashlittle`).
    pub fn hash(&self, key: &[u8]) -> u32 {
        let mut a = init(self.seed, key.len());
        let mut b = a;
        let mut c = a;

        let mut rest = key;
        while rest.len() > 12 {
            a = a.wrapping_add(load_word(&rest[0..4]));
            b = b.wrapping_add(load_word(&rest[4..8]));
            c = c.wrapping_add(load_word(&rest[8..12]));
            mix(&mut a, &mut b, &mut c);
            rest = &rest[12..];
        }

        if rest.is_empty() {
            // lookup3 returns c untouched for zero-length tails.
            return c;
        }
        finish(a, b, c, tail_words(rest))
    }

    /// `out[i] = Bob32::new(seeds[i]).hash(key)` for every `i` — the
    /// row-wise form the all-rows sketches (MinHash) hash with.
    ///
    /// For a key of 1..=12 bytes (every integer key) the key words are
    /// loaded once and each seed costs one `final_mix` in a flat
    /// `seeds → out` loop with no cross-iteration dependency, which the
    /// compiler vectorises in release builds. Longer (and empty) keys
    /// take the per-seed loop.
    pub fn hash_seeds(seeds: &[u32], key: &[u8], out: &mut [u32]) {
        assert_eq!(seeds.len(), out.len(), "one output lane per seed");
        if (1..=12).contains(&key.len()) {
            let w = tail_words(key);
            for (o, &seed) in out.iter_mut().zip(seeds) {
                let v = init(seed, key.len());
                *o = finish(v, v, v, w);
            }
        } else {
            for (o, &seed) in out.iter_mut().zip(seeds) {
                *o = Bob32::new(seed).hash(key);
            }
        }
    }

    /// Hash to 64 bits by running the 32-bit core with two related seeds.
    ///
    /// This mirrors lookup3's `hashlittle2`, which produces two 32-bit
    /// results; concatenating them yields a 64-bit value good enough for
    /// rank extraction and range reduction.
    pub fn hash64(&self, key: &[u8]) -> u64 {
        let lo = self.hash(key) as u64;
        let hi = Bob32::new(self.seed ^ 0x9E37_79B9).hash(key) as u64;
        (hi << 32) | lo
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let h = Bob32::new(7);
        assert_eq!(h.hash(b"hello world"), h.hash(b"hello world"));
        assert_eq!(h.hash64(b"hello world"), h.hash64(b"hello world"));
    }

    #[test]
    fn seed_changes_output() {
        let a = Bob32::new(1).hash(b"key");
        let b = Bob32::new(2).hash(b"key");
        assert_ne!(a, b);
    }

    #[test]
    fn key_changes_output() {
        let h = Bob32::new(42);
        assert_ne!(h.hash(b"key0"), h.hash(b"key1"));
        assert_ne!(h.hash(b""), h.hash(b"\0"));
    }

    #[test]
    fn all_tail_lengths_distinct() {
        // Exercise every tail length 0..=12 plus a multi-block key and make
        // sure prefixes don't collide (they shouldn't, for a decent hash).
        let h = Bob32::new(0);
        let key = b"abcdefghijklmnopqrstuvwxyz";
        let mut seen = std::collections::HashSet::new();
        for len in 0..=key.len() {
            assert!(seen.insert(h.hash(&key[..len])), "collision at len {len}");
        }
    }

    #[test]
    fn hash_seeds_matches_hash_for_every_length_and_seed() {
        // Lengths 0..=26 cover the empty key, every short-key tail, the
        // 12/13 boundary and two full blocks plus a tail; 128 golden-ratio
        // seeds are the family a 128-row MinHash derives.
        let key = b"abcdefghijklmnopqrstuvwxyz";
        let seeds: Vec<u32> =
            (0..128u32).map(|i| i.wrapping_mul(0x9E37_79B9).wrapping_add(1)).collect();
        let mut out = vec![0u32; seeds.len()];
        for len in 0..=key.len() {
            Bob32::hash_seeds(&seeds, &key[..len], &mut out);
            for (i, &seed) in seeds.iter().enumerate() {
                assert_eq!(out[i], Bob32::new(seed).hash(&key[..len]), "len {len} seed #{i}");
            }
        }
        // Lane counts that are not a multiple of any vector width.
        for n in [0usize, 1, 3, 5, 67] {
            Bob32::hash_seeds(&seeds[..n], &7u64.to_le_bytes(), &mut out[..n]);
            for i in 0..n {
                assert_eq!(out[i], Bob32::new(seeds[i]).hash(&7u64.to_le_bytes()));
            }
        }
    }

    #[test]
    fn matches_lookup3_reference_vectors() {
        // Values from lookup3.c's self-test driver: hashlittle("", 0) and
        // hashlittle("Four score and seven years ago", initval 0 / 1).
        assert_eq!(Bob32::new(0).hash(b""), 0xdead_beef);
        assert_eq!(Bob32::new(0xdead_beef).hash(b""), 0xbd5b_7dde);
        assert_eq!(Bob32::new(0).hash(b"Four score and seven years ago"), 0x1777_0551);
        assert_eq!(Bob32::new(1).hash(b"Four score and seven years ago"), 0xcd62_8161);
    }

    #[test]
    fn avalanche_is_reasonable() {
        // Flipping one input bit should flip roughly half the output bits.
        let h = Bob32::new(123);
        let base = h.hash(&0xdead_beef_u32.to_le_bytes());
        let mut total = 0u32;
        for bit in 0..32 {
            let flipped = 0xdead_beef_u32 ^ (1 << bit);
            total += (base ^ h.hash(&flipped.to_le_bytes())).count_ones();
        }
        let avg = total as f64 / 32.0;
        assert!((10.0..22.0).contains(&avg), "avalanche average {avg}");
    }

    #[test]
    fn distribution_over_small_range() {
        let h = Bob32::new(99);
        let mut buckets = [0u32; 16];
        for i in 0..50_000u32 {
            buckets[(h.hash(&i.to_le_bytes()) % 16) as usize] += 1;
        }
        for &b in &buckets {
            assert!((2_500..3_800).contains(&b), "bucket {b}");
        }
    }
}
