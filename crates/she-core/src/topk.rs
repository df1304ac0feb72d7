//! Sliding heavy hitters: the application layer the paper's introduction
//! motivates (financial trackers, intrusion detection, QoS).
//!
//! A [`SlidingTopK`] is a small candidate set with no sketch of its own:
//! the caller passes the estimator (a SHE-CM frozen read, say) to every
//! call. An offered key enters the set while the set is below its cap, or
//! once its estimate beats the weakest candidate's; compaction re-scores
//! every candidate with the estimator and keeps the strongest `2k`.
//! Because it answers *sliding-window* frequencies, candidates age out on
//! their own — a key that stops arriving sees its estimate collapse after
//! one window and is dropped at the next compaction.

use std::collections::HashMap;

/// Top-k frequent keys over a sliding window, ranked by a caller-supplied
/// estimator.
#[derive(Debug)]
pub struct SlidingTopK {
    k: usize,
    /// `(key, last refreshed window-frequency estimate)`, one per key, in
    /// no particular order between compactions.
    candidates: Vec<(u64, u64)>,
    /// The smallest estimate in `candidates` (0 while it is empty).
    min: u64,
    /// Compaction threshold (candidates are re-scored and pruned when the
    /// set grows past this).
    cap: usize,
    /// The estimates read during the current [`SlidingTopK::offer`] run,
    /// by key; kept between runs only for its allocation.
    memo: HashMap<u64, u64>,
}

impl SlidingTopK {
    /// Track the `k` heaviest keys.
    pub fn new(k: usize) -> Self {
        assert!(k >= 1);
        let cap = (4 * k).max(16);
        Self { k, candidates: Vec::with_capacity(cap + 1), min: 0, cap, memo: HashMap::new() }
    }

    /// Offer a run of keys just inserted, in order, scored by `est`.
    ///
    /// Each key is accepted — its estimate stored, the candidate added if
    /// new — while the set holds fewer than `cap` keys, or when its
    /// estimate beats the weakest candidate's; a key accepted into a full
    /// set triggers a compaction. `est` must answer the same for a key
    /// throughout the run (its sketch is not written while the run is
    /// offered), so it is asked about each key at most once per run,
    /// compactions included.
    pub fn offer(&mut self, keys: &[u64], mut est: impl FnMut(u64) -> u64) {
        let mut memo = std::mem::take(&mut self.memo);
        memo.clear();
        {
            let mut score_of = |key: u64| *memo.entry(key).or_insert_with(|| est(key));
            for &key in keys {
                let score = score_of(key);
                if self.candidates.len() < self.cap || score > self.min {
                    self.set(key, score);
                }
                if self.candidates.len() > self.cap {
                    self.compact(&mut score_of);
                }
            }
        }
        self.memo = memo;
    }

    /// Store `score` as `key`'s estimate, keeping `min` exact: it is only
    /// re-read from the set when the entry holding it rises.
    fn set(&mut self, key: u64, score: u64) {
        match self.candidates.iter_mut().find(|c| c.0 == key) {
            Some(c) => {
                let old = std::mem::replace(&mut c.1, score);
                if score < self.min {
                    self.min = score;
                } else if old == self.min && score > old {
                    self.min = self.candidates.iter().map(|c| c.1).min().unwrap_or(0);
                }
            }
            None => {
                self.min = if self.candidates.is_empty() { score } else { self.min.min(score) };
                // audit:allow(growth): at most `cap + 1` candidates — the push past `cap` compacts back to `2k`
                self.candidates.push((key, score));
            }
        }
    }

    /// Re-score every candidate with `est` and keep the strongest `2k`
    /// (estimates decay as the window slides, so this is where expired
    /// heavy hitters fall out), heaviest first, ties by key.
    fn compact(&mut self, mut est: impl FnMut(u64) -> u64) {
        for c in &mut self.candidates {
            c.1 = est(c.0);
        }
        self.candidates.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        self.candidates.truncate(2 * self.k);
        self.min = self.candidates.last().map_or(0, |c| c.1);
    }

    /// The current top-k as `(key, estimate)`, heaviest first, every
    /// estimate re-read through `est` so the answer reflects the window as
    /// of now.
    pub fn top(&mut self, est: impl FnMut(u64) -> u64) -> Vec<(u64, u64)> {
        self.compact(est);
        self.candidates.iter().take(self.k).copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SheCountMin;
    use she_hash::{RandomSource, Xoshiro256};
    use she_streams::Zipf;

    fn sketch(window: u64, bytes: usize, seed: u32) -> SheCountMin {
        SheCountMin::builder().window(window).memory_bytes(bytes).seed(seed).build()
    }

    /// Insert into the sketch, then offer at its frozen estimate: the read
    /// path's order.
    fn insert(tk: &mut SlidingTopK, cm: &mut SheCountMin, key: u64) {
        cm.insert(&key);
        tk.offer(&[key], |k| cm.query_frozen(&k));
    }

    /// The rule `SlidingTopK` keeps, as it was first written: a map of
    /// candidates, the weakest found by a scan on every offer, every
    /// offer and every compaction asking the estimator afresh.
    struct Oracle {
        k: usize,
        cap: usize,
        candidates: HashMap<u64, u64>,
    }

    impl Oracle {
        fn new(k: usize) -> Self {
            Self { k, cap: (4 * k).max(16), candidates: HashMap::new() }
        }

        fn offer(&mut self, key: u64, mut est: impl FnMut(u64) -> u64) {
            let score = est(key);
            let full = self.candidates.len() >= self.cap;
            if !full || score > self.candidates.values().copied().min().unwrap_or(0) {
                self.candidates.insert(key, score);
            }
            if self.candidates.len() > self.cap {
                self.compact(est);
            }
        }

        fn compact(&mut self, mut est: impl FnMut(u64) -> u64) -> Vec<(u64, u64)> {
            let mut scored: Vec<(u64, u64)> =
                self.candidates.keys().map(|&key| (key, est(key))).collect();
            scored.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            scored.truncate(2 * self.k);
            self.candidates = scored.iter().copied().collect();
            scored
        }

        fn top(&mut self, est: impl FnMut(u64) -> u64) -> Vec<(u64, u64)> {
            let mut out = self.compact(est);
            out.truncate(self.k);
            out
        }
    }

    /// Candidates as a sorted `(key, stored estimate)` list.
    fn sorted(pairs: impl IntoIterator<Item = (u64, u64)>) -> Vec<(u64, u64)> {
        let mut v: Vec<_> = pairs.into_iter().collect();
        v.sort_unstable();
        v
    }

    /// The run-wise offer with its memo and kept minimum is the oracle's
    /// rule bit for bit: over a Zipf stream offered in runs of 1–1 024
    /// keys (each run inserted into SHE-CM first, then offered at its
    /// frozen estimates), with `top(n)` asked between runs, both give the
    /// same top and hold the same candidates with the same stored
    /// estimates after every run — and the memo asks the estimator about
    /// each key at most once per run.
    #[test]
    fn run_offer_is_the_map_rule() {
        for (seed, k, skew) in [(1u64, 16usize, 1.1), (2, 3, 0.8), (3, 1, 1.4)] {
            let window = 1u64 << 12;
            let mut cm = sketch(window, 1 << 14, u32::try_from(seed).expect("small seed"));
            let (mut fast, mut oracle) = (SlidingTopK::new(k), Oracle::new(k));
            let zipf = Zipf::new(20_000, skew);
            let mut rng = Xoshiro256::new(0x7095 + seed);
            let mut offered = 0u64;
            while offered < 12 * window {
                let len = 1 + rng.next_below(1024);
                let run: Vec<u64> = (0..len).map(|_| zipf.sample(&mut rng) as u64).collect();
                run.iter().for_each(|key| cm.insert(key));
                offered += run.len() as u64;

                let mut asked = HashMap::new();
                fast.offer(&run, |key| {
                    *asked.entry(key).or_insert(0) += 1;
                    cm.query_frozen(&key)
                });
                assert!(asked.values().all(|&n| n == 1), "seed {seed}: a key estimated twice");
                for &key in &run {
                    oracle.offer(key, |key| cm.query_frozen(&key));
                }
                assert_eq!(
                    sorted(fast.candidates.iter().copied()),
                    sorted(oracle.candidates.iter().map(|(&key, &est)| (key, est))),
                    "seed {seed}: candidates after {offered} keys"
                );
                if rng.next_below(4) == 0 {
                    let n = rng.next_below(k + 1);
                    let (mut got, mut want) = (
                        fast.top(|key| cm.query_frozen(&key)),
                        oracle.top(|key| cm.query_frozen(&key)),
                    );
                    got.truncate(n);
                    want.truncate(n);
                    assert_eq!(got, want, "seed {seed}: top {n} after {offered} keys");
                }
            }
        }
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
