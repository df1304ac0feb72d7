//! Checked integer conversions and fixed-slice readers for the serving
//! path. The serving crates deny `clippy::cast_possible_truncation` and
//! `clippy::unwrap_used` at their crate roots — these helpers are the
//! blessed replacements: every conversion either cannot fail by
//! construction or returns the failure to the caller.

/// Widen a `usize` to `u64`. On every supported target `usize` is at
/// most 64 bits, so this is lossless; spelled as a helper (not `as`) so
/// linted code never needs a cast.
pub fn u64_of(n: usize) -> u64 {
    u64::try_from(n).unwrap_or(u64::MAX)
}

/// Narrow a `u64` to `usize`, saturating at `usize::MAX`. Callers that
/// need a hard failure on overflow should use `usize::try_from`
/// directly; this is for sizes already validated against a bound (e.g.
/// a frame length checked against `MAX_FRAME`).
pub fn usize_of(n: u64) -> usize {
    usize::try_from(n).unwrap_or(usize::MAX)
}

/// Copy the first `N` bytes of `src` into an array, or `None` when
/// `src` is too short. Replaces the `slice.try_into().unwrap()` idiom:
/// the length check is the return value, not a panic.
pub fn array_at<const N: usize>(src: &[u8]) -> Option<[u8; N]> {
    let mut out = [0u8; N];
    out.copy_from_slice(src.get(..N)?);
    Some(out)
}

/// Decode a little-endian `u64` sequence. `bytes.len()` need not be a
/// multiple of 8; a trailing partial chunk is ignored (callers validate
/// lengths before decoding — this keeps the decode itself panic-free).
pub fn le_u64s(bytes: &[u8]) -> Vec<u64> {
    bytes
        .chunks_exact(8)
        .map(|c| {
            let mut w = [0u8; 8];
            w.copy_from_slice(c);
            u64::from_le_bytes(w)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn widening_and_narrowing() {
        assert_eq!(u64_of(42usize), 42u64);
        assert_eq!(usize_of(42u64), 42usize);
        assert_eq!(usize_of(u64::MAX), usize::MAX); // saturates on 64-bit
    }

    #[test]
    fn array_at_checks_length() {
        assert_eq!(array_at::<4>(&[1, 2, 3, 4, 5]), Some([1, 2, 3, 4]));
        assert_eq!(array_at::<4>(&[1, 2, 3]), None);
        assert_eq!(array_at::<0>(&[]), Some([]));
    }

    #[test]
    fn le_u64s_round_trips() {
        let mut bytes = Vec::new();
        for v in [0u64, 1, u64::MAX, 0x0102_0304_0506_0708] {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        assert_eq!(le_u64s(&bytes), [0, 1, u64::MAX, 0x0102_0304_0506_0708]);
        bytes.push(0xFF); // trailing partial chunk ignored
        assert_eq!(le_u64s(&bytes).len(), 4);
    }
}
