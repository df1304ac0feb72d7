//! Sliding heavy hitters: the application layer the paper's introduction
//! motivates (financial trackers, intrusion detection, QoS).
//!
//! A [`SlidingTopK`] is a small candidate set with no sketch of its own:
//! the caller passes the estimator (a SHE-CM frozen read, say) to every
//! call. An offered key enters the set when it competes with the current
//! top-k, and compaction re-scores every candidate with the estimator.
//! Because it answers *sliding-window* frequencies, candidates age out on
//! their own — a key that stops arriving sees its estimate collapse after
//! one window and is dropped at the next compaction.

use std::collections::HashMap;

/// Top-k frequent keys over a sliding window, ranked by a caller-supplied
/// estimator.
#[derive(Debug)]
pub struct SlidingTopK {
    k: usize,
    /// Key → last refreshed window-frequency estimate.
    candidates: HashMap<u64, u64>,
    /// Compaction threshold (candidates are re-scored and pruned when the
    /// map grows past this).
    cap: usize,
}

impl SlidingTopK {
    /// Track the `k` heaviest keys.
    pub fn new(k: usize) -> Self {
        assert!(k >= 1);
        Self { k, candidates: HashMap::new(), cap: (4 * k).max(16) }
    }

    /// Offer the key just inserted, scored by `est`.
    pub fn offer(&mut self, key: u64, mut est: impl FnMut(u64) -> u64) {
        let score = est(key);
        // A key competes once its estimate beats the weakest candidate's
        // (or the set is not full yet).
        let full = self.candidates.len() >= self.cap;
        if !full || score > self.candidates.values().copied().min().unwrap_or(0) {
            self.candidates.insert(key, score);
        }
        if self.candidates.len() > self.cap {
            self.compact(est);
        }
    }

    /// Re-score every candidate with `est` and keep the strongest `2k`
    /// (estimates decay as the window slides, so this is where expired
    /// heavy hitters fall out). Returns the survivors heaviest first, ties
    /// by key.
    fn compact(&mut self, mut est: impl FnMut(u64) -> u64) -> Vec<(u64, u64)> {
        let mut scored: Vec<(u64, u64)> =
            self.candidates.keys().map(|&key| (key, est(key))).collect();
        scored.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        scored.truncate(2 * self.k);
        self.candidates = scored.iter().copied().collect();
        scored
    }

    /// The current top-k as `(key, estimate)`, heaviest first, every
    /// estimate re-read through `est` so the answer reflects the window as
    /// of now.
    pub fn top(&mut self, est: impl FnMut(u64) -> u64) -> Vec<(u64, u64)> {
        let mut out = self.compact(est);
        out.truncate(self.k);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SheCountMin;

    fn sketch(window: u64, bytes: usize, seed: u32) -> SheCountMin {
        SheCountMin::builder().window(window).memory_bytes(bytes).seed(seed).build()
    }

    /// Insert into the sketch, then offer at its frozen estimate: the read
    /// path's order.
    fn insert(tk: &mut SlidingTopK, cm: &mut SheCountMin, key: u64) {
        cm.insert(&key);
        tk.offer(key, |k| cm.query_frozen(&k));
    }

    #[test]
    fn finds_the_heavy_keys() {
        let window = 1u64 << 13;
        let (mut tk, mut cm) = (SlidingTopK::new(3), sketch(window, 1 << 20, 1));
        // Keys 1, 2, 3 take 40%, 15%, 5% of traffic; the rest is distinct.
        // More than 2× apart, so the unscaled estimates cannot swap them.
        for i in 0..3 * window {
            let key = match i % 20 {
                0..=7 => 1,
                8..=10 => 2,
                11 => 3,
                _ => 1_000_000 + i,
            };
            insert(&mut tk, &mut cm, key);
        }
        let top = tk.top(|k| cm.query_frozen(&k));
        assert_eq!(top.iter().map(|e| e.0).collect::<Vec<_>>(), [1, 2, 3]);
        // Every row carries the estimator's own answer: a mature SHE-CM
        // counter never undercounts the window and spans less than two.
        let truth = [2 * window / 5, 3 * window / 20, window / 20];
        for (&(key, est), t) in top.iter().zip(truth) {
            assert_eq!(est, cm.query_frozen(&key));
            assert!(est >= t && est < 2 * t, "estimate {est} vs {t}");
        }
    }

    #[test]
    fn expired_heavy_hitter_falls_out() {
        let window = 1u64 << 12;
        let (mut tk, mut cm) = (SlidingTopK::new(2), sketch(window, 1 << 20, 2));
        // Phase 1: key 7 dominates.
        for i in 0..window {
            insert(&mut tk, &mut cm, if i % 2 == 0 { 7 } else { 1_000_000 + i });
        }
        assert_eq!(tk.top(|k| cm.query_frozen(&k))[0].0, 7);
        // Phase 2: key 7 vanishes; key 9 dominates for several windows.
        for i in 0..6 * window {
            insert(&mut tk, &mut cm, if i % 2 == 0 { 9 } else { 2_000_000 + i });
        }
        let top = tk.top(|k| cm.query_frozen(&k));
        assert_eq!(top[0].0, 9);
        assert!(
            top.iter().all(|&(k, est)| k != 7 || est < window / 10),
            "expired heavy hitter still ranked: {top:?}"
        );
    }

    #[test]
    fn candidate_set_stays_bounded() {
        let (mut tk, mut cm) = (SlidingTopK::new(5), sketch(1 << 10, 1 << 18, 3));
        for i in 0..50_000u64 {
            insert(&mut tk, &mut cm, she_hash::mix64(i)); // all distinct
        }
        assert!(tk.candidates.len() <= tk.cap + 1);
        assert!(tk.top(|k| cm.query_frozen(&k)).len() <= 5);
    }
}
