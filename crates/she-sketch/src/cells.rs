//! Packed cell storage.
//!
//! All sketches in this workspace store their state in a [`PackedArray`]:
//! `m` cells of `bits` bits each, packed into `u64` words. This mirrors the
//! paper's memory accounting (a 1 KB Bloom filter really is 8192 bits) and
//! gives SHE's group cleaning a natural word-aligned reset path.

/// A dense array of `m` fixed-width cells (1..=64 bits each).
///
/// Cells may straddle word boundaries; `get`/`set` handle the split. For the
/// common power-of-two widths cells never straddle, and the compiler folds
/// the straddle branch away after inlining.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedArray {
    words: Vec<u64>,
    m: usize,
    bits: u32,
}

impl PackedArray {
    /// Create an array of `m` zeroed cells of `bits` bits each.
    pub fn new(m: usize, bits: u32) -> Self {
        assert!((1..=64).contains(&bits), "cell width must be 1..=64 bits");
        assert!(m > 0, "cell array must be non-empty");
        let total_bits = m.checked_mul(bits as usize).expect("cell array size overflows");
        let words = vec![0u64; total_bits.div_ceil(64)];
        Self { words, m, bits }
    }

    /// Number of cells.
    #[inline]
    pub fn len(&self) -> usize {
        self.m
    }

    /// True when the array holds no cells (never, by construction).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.m == 0
    }

    /// Bits per cell.
    #[inline]
    pub fn cell_bits(&self) -> u32 {
        self.bits
    }

    /// Total memory footprint of the cell payload in bits.
    #[inline]
    pub fn memory_bits(&self) -> usize {
        self.m * self.bits as usize
    }

    /// The largest value a cell can hold.
    #[inline]
    pub fn max_value(&self) -> u64 {
        mask_of(self.bits)
    }

    /// Read cell `i`.
    #[inline]
    pub fn get(&self, i: usize) -> u64 {
        self.get_as(i, self.bits)
    }

    /// Write cell `i`.
    #[inline]
    pub fn set(&mut self, i: usize, v: u64) {
        self.set_as(i, self.bits, v);
    }

    /// Replace cell `i` with `f` of its value, given the array's cell
    /// width `bits`. A caller that knows the width at compile time (a
    /// 1-bit filter, a 25-bit MinHash register) gets constant shifts and
    /// masks once this inlines; [`PackedArray::get`] and
    /// [`PackedArray::set`] read the width from the array.
    #[inline(always)]
    pub fn update(&mut self, i: usize, bits: u32, f: impl FnOnce(u64) -> u64) {
        let v = f(self.get_as(i, bits));
        self.set_as(i, bits, v);
    }

    /// Read cell `i`, given the array's cell width `bits` — the read
    /// [`PackedArray::update`] makes: a caller that knows the width at
    /// compile time (a 1-bit filter) gets a constant shift and mask once
    /// this inlines.
    #[inline(always)]
    pub fn get_as(&self, i: usize, bits: u32) -> u64 {
        debug_assert_eq!(bits, self.bits, "cell width");
        assert!(i < self.m, "cell index {i} out of bounds ({})", self.m);
        let bit = i * bits as usize;
        #[expect(clippy::cast_possible_truncation, reason = "a bit offset below 64")]
        let (w, off) = (bit / 64, (bit % 64) as u32);
        let mask = mask_of(bits);
        if off + bits <= 64 {
            (self.words[w] >> off) & mask
        } else {
            let lo = self.words[w] >> off;
            let hi = self.words[w + 1] << (64 - off);
            (lo | hi) & mask
        }
    }

    /// [`PackedArray::set`] for cells of `bits` bits, this array's width.
    #[inline(always)]
    fn set_as(&mut self, i: usize, bits: u32, v: u64) {
        debug_assert_eq!(bits, self.bits, "cell width");
        assert!(i < self.m, "cell index {i} out of bounds ({})", self.m);
        let mask = mask_of(bits);
        debug_assert!(v <= mask, "value {v} does not fit in {bits} bits");
        let v = v & mask;
        let bit = i * bits as usize;
        #[expect(clippy::cast_possible_truncation, reason = "a bit offset below 64")]
        let (w, off) = (bit / 64, (bit % 64) as u32);
        self.words[w] = (self.words[w] & !(mask << off)) | (v << off);
        if off + bits > 64 {
            let lo_bits = 64 - off;
            let hi_mask = mask >> lo_bits;
            self.words[w + 1] = (self.words[w + 1] & !hi_mask) | (v >> lo_bits);
        }
    }

    /// The words holding cells `[start, start + count)`, each with the
    /// mask of the bits those cells occupy in it (none for an empty
    /// range). Cells are contiguous bits, so this is exact for every
    /// width, straddling ones included.
    fn word_masks(&self, start: usize, count: usize) -> impl Iterator<Item = (usize, u64)> {
        let bits = self.bits as usize;
        let (lo, hi) = (start * bits, (start + count) * bits);
        let (first, end) = if lo < hi { (lo / 64, hi.div_ceil(64)) } else { (0, 0) };
        // The first word's bits from `lo` up, the last word's below `hi`.
        let (head, tail) = (u64::MAX << (lo % 64), u64::MAX >> (hi.wrapping_neg() % 64));
        (first..end).map(move |w| {
            let head = if w == first { head } else { u64::MAX };
            (w, if w + 1 == end { head & tail } else { head })
        })
    }

    /// Zero the cells in `[start, start + count)`.
    ///
    /// This is SHE's group reset: when a group's time mark flips, every cell
    /// in the group is cleared in one bounded-width memory touch — word by
    /// word, whatever the cell width.
    pub fn clear_range(&mut self, start: usize, count: usize) {
        assert!(start + count <= self.m, "clear range out of bounds");
        for (w, mask) in self.word_masks(start, count) {
            self.words[w] &= !mask;
        }
    }

    /// Zero every cell.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Count cells equal to zero in `[start, start + count)`: a popcount
    /// for 1-bit cells, one `get` per cell otherwise.
    ///
    /// The 1-bit count masks only the head and tail words; the whole words
    /// between them are a plain slice, whose popcount the compiler
    /// vectorises (a mask per word keeps it from doing so).
    pub fn count_zeros_in(&self, start: usize, count: usize) -> usize {
        assert!(start + count <= self.m, "count range out of bounds");
        if self.bits != 1 {
            return (start..start + count).filter(|&i| self.get(i) == 0).count();
        }
        if count == 0 {
            return 0;
        }
        let end = start + count;
        let (first, last) = (start / 64, (end - 1) / 64);
        // The first word's bits from `start` up, the last word's below `end`.
        let (head, tail) = (u64::MAX << (start % 64), u64::MAX >> (end.wrapping_neg() % 64));
        let ones = if first == last {
            (self.words[first] & head & tail).count_ones()
        } else {
            let middle: u32 = self.words[first + 1..last].iter().map(|w| w.count_ones()).sum();
            (self.words[first] & head).count_ones()
                + middle
                + (self.words[last] & tail).count_ones()
        };
        count - ones as usize
    }

    /// Count cells equal to zero in the whole array.
    pub fn count_zeros(&self) -> usize {
        self.count_zeros_in(0, self.m)
    }

    /// Iterate over all cell values.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        (0..self.m).map(move |i| self.get(i))
    }

    /// The raw backing words (snapshot support).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Overwrite the backing words from a snapshot of the same geometry.
    pub fn copy_from_words(&mut self, words: &[u64]) {
        assert_eq!(words.len(), self.words.len(), "snapshot geometry mismatch");
        self.words.copy_from_slice(words);
    }
}

/// The largest value a cell of `bits` bits can hold.
#[inline(always)]
fn mask_of(bits: u32) -> u64 {
    u64::MAX >> (64 - bits)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_various_widths() {
        for bits in [1u32, 3, 5, 8, 13, 24, 32, 63, 64] {
            let m = 100;
            let mut a = PackedArray::new(m, bits);
            let mask = a.max_value();
            for i in 0..m {
                let v = (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i as u64 + 1)) & mask;
                a.set(i, v);
            }
            for i in 0..m {
                let v = (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i as u64 + 1)) & mask;
                assert_eq!(a.get(i), v, "bits={bits} i={i}");
                assert_eq!(a.get_as(i, bits), v, "bits={bits} i={i}: width-taking read");
            }
        }
    }

    #[test]
    fn update_is_get_then_set() {
        // The widths SHE passes as constants (1, 25) and a runtime one,
        // straddling cells included.
        for bits in [1u32, 5, 25, 33, 64] {
            let (mut a, mut b) = (PackedArray::new(100, bits), PackedArray::new(100, bits));
            let mask = a.max_value();
            for round in 1..4u64 {
                for i in 0..100 {
                    let v = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i as u64 + round);
                    a.update(i, bits, |old| (old ^ v) & mask);
                    b.set(i, (b.get(i) ^ v) & mask);
                }
                assert_eq!(a, b, "bits={bits} round {round}");
            }
        }
    }

    #[test]
    fn count_zeros_in_is_the_per_cell_count() {
        // Four words of cells at width 1 (aligned and ragged ranges, head
        // and tail in one word or two), and the per-cell widths 3 and 25.
        for bits in [1u32, 3, 25] {
            let m = 4 * 64 / bits as usize + 3;
            let mut a = PackedArray::new(m, bits);
            for i in 0..m {
                let v = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i as u64 + 7) >> 61;
                a.set(i, if v < 3 { 0 } else { v & a.max_value() });
            }
            for start in 0..=m {
                for count in 0..=m - start {
                    let want = (start..start + count).filter(|&i| a.get(i) == 0).count();
                    assert_eq!(a.count_zeros_in(start, count), want, "bits={bits} {start}+{count}");
                }
            }
        }
    }

    #[test]
    fn neighbors_are_independent() {
        // Writing one cell must not disturb its neighbors, including across
        // word boundaries (5-bit cells straddle every 64/5 cells).
        let mut a = PackedArray::new(64, 5);
        for i in 0..64 {
            a.set(i, 0b10101);
        }
        a.set(12, 0);
        for i in 0..64 {
            assert_eq!(a.get(i), if i == 12 { 0 } else { 0b10101 });
        }
    }

    #[test]
    fn clear_range_is_exact() {
        let mut a = PackedArray::new(256, 3);
        for i in 0..256 {
            a.set(i, 0b111);
        }
        a.clear_range(64, 64);
        for i in 0..256 {
            let expect = if (64..128).contains(&i) { 0 } else { 0b111 };
            assert_eq!(a.get(i), expect, "i={i}");
        }
        assert_eq!(a.count_zeros(), 64);
        assert_eq!(a.count_zeros_in(64, 64), 64);
        assert_eq!(a.count_zeros_in(0, 64), 0);
    }

    #[test]
    fn memory_accounting() {
        let a = PackedArray::new(8192, 1);
        assert_eq!(a.memory_bits(), 8192);
        let b = PackedArray::new(100, 5);
        assert_eq!(b.memory_bits(), 500);
        assert_eq!(b.cell_bits(), 5);
        assert_eq!(b.len(), 100);
        assert!(!b.is_empty());
    }

    #[test]
    #[should_panic]
    fn oob_get_panics() {
        let a = PackedArray::new(10, 4);
        let _ = a.get(10);
    }

    #[test]
    fn max_value_widths() {
        assert_eq!(PackedArray::new(1, 1).max_value(), 1);
        assert_eq!(PackedArray::new(1, 5).max_value(), 31);
        assert_eq!(PackedArray::new(1, 64).max_value(), u64::MAX);
    }

    #[test]
    fn full_width_straddle_roundtrip() {
        // 33-bit cells force straddles with large values.
        let mut a = PackedArray::new(77, 33);
        let mask = a.max_value();
        for i in 0..77 {
            a.set(i, (u64::MAX - i as u64) & mask);
        }
        for i in 0..77 {
            assert_eq!(a.get(i), (u64::MAX - i as u64) & mask);
        }
    }
}
