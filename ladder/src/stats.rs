//! Raw-sample statistics. Quantiles come from the sorted samples
//! themselves (nearest rank) — never from a bucketed histogram, whose
//! power-of-two edges are the only values it can ever print.

/// Latency samples in nanoseconds.
#[derive(Debug, Default)]
pub struct Samples(Vec<u64>);

/// What a sample set supports: the median, and the highest percentile
/// that still has at least ten samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: u64,
    pub tail: u64,
    /// The percentile `tail` sits at, in percent.
    pub tail_pct: f64,
}

/// Samples that must lie beyond the reported tail percentile.
const BEYOND_TAIL: usize = 10;

impl Samples {
    pub fn push(&mut self, ns: u64) {
        self.0.push(ns);
    }

    /// `None` until there are enough samples to leave ten beyond a tail.
    pub fn summary(&self) -> Option<Summary> {
        let n = self.0.len();
        if n <= BEYOND_TAIL {
            return None;
        }
        let mut sorted = self.0.clone();
        sorted.sort_unstable();
        let tail_rank = n - BEYOND_TAIL; // 1-based: ten samples lie above it
        Some(Summary {
            n,
            p50: sorted[nearest_rank(n, 0.5) - 1],
            tail: sorted[tail_rank - 1],
            tail_pct: 100.0 * tail_rank as f64 / n as f64,
        })
    }
}

/// 1-based nearest rank of quantile `q` among `n` sorted samples.
fn nearest_rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Median of a non-empty slice (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the exclusive method), so `--self-check` measures spread exactly as
/// the driver does. Needs at least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    [1usize, 2, 3].map(|i| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + delta * (v[j] - v[j - 1])
    })
}

/// Distance between the first and third quartile as a share of the median.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_of_a_known_distribution() {
        // 1..=1000 in scrambled order: p50 is 500, and the highest
        // percentile with ten samples beyond it is p99 = 990.
        let mut s = Samples::default();
        for i in 0..1000u64 {
            s.push((i * 7919) % 1000 + 1);
        }
        let sum = s.summary().expect("enough samples");
        assert_eq!((sum.n, sum.p50, sum.tail), (1000, 500, 990));
        assert!((sum.tail_pct - 99.0).abs() < 1e-12);
    }

    #[test]
    fn raw_samples_are_not_rounded_to_bucket_edges() {
        let mut s = Samples::default();
        for v in [741u64, 750, 760, 770, 780, 790, 800, 810, 820, 830, 840, 850] {
            s.push(v);
        }
        let sum = s.summary().expect("12 samples leave ten beyond rank 2");
        assert_eq!((sum.p50, sum.tail), (790, 750));
    }

    #[test]
    fn too_few_samples_support_no_tail() {
        let mut s = Samples::default();
        (0..10).for_each(|v| s.push(v));
        assert_eq!(s.summary(), None);
    }

    #[test]
    fn median_and_quartiles_match_python() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        assert!((quartile_spread(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[1.0, 2.0, 4.0]), [1.0, 2.0, 4.0]);
    }
}
