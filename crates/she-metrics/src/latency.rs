//! Latency accounting for the serving path: a log-scale histogram,
//! allocation-free on the record path.

use std::time::Duration;

/// A histogram over nanosecond latencies with power-of-two buckets
/// (bucket `i` holds values in `[2^(i-1), 2^i)`), covering 1 ns to ~584
/// years. Recording is a single increment; percentiles come from a scan.
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    buckets: [u64; 64],
    count: u64,
    sum_ns: u128,
    max_ns: u64,
    min_ns: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self { buckets: [0; 64], count: 0, sum_ns: 0, max_ns: 0, min_ns: u64::MAX }
    }

    /// Record one latency in nanoseconds.
    #[inline]
    pub fn record_ns(&mut self, ns: u64) {
        let bucket = (64 - ns.leading_zeros()) as usize; // 0 ns → bucket 0
        self.buckets[bucket.min(63)] += 1;
        self.count += 1;
        self.sum_ns += ns as u128;
        self.max_ns = self.max_ns.max(ns);
        self.min_ns = self.min_ns.min(ns);
    }

    /// Record one latency from a `Duration`.
    #[inline]
    pub fn record(&mut self, d: Duration) {
        self.record_ns(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean latency in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.count as f64
        }
    }

    /// Largest recorded latency in nanoseconds.
    pub fn max_ns(&self) -> u64 {
        self.max_ns
    }

    /// Smallest recorded latency in nanoseconds (0 when empty).
    pub fn min_ns(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min_ns
        }
    }

    /// The latency at quantile `q ∈ [0, 1]`, as the geometric midpoint of
    /// the bucket holding that rank (a ≤√2 relative overshoot — plenty
    /// for serving reports). Returns 0 when empty.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                if i == 0 {
                    return 0;
                }
                let lo = 1u64 << (i - 1);
                let hi = lo.saturating_mul(2);
                return ((lo as f64 * hi as f64).sqrt()) as u64;
            }
        }
        self.max_ns
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum_ns += other.sum_ns;
        self.max_ns = self.max_ns.max(other.max_ns);
        self.min_ns = self.min_ns.min(other.min_ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_ordered_and_bracketed() {
        let mut h = LatencyHistogram::new();
        for ns in [100u64, 200, 400, 800, 1600, 3200, 6400, 12800, 25600, 1_000_000] {
            h.record_ns(ns);
        }
        assert_eq!(h.count(), 10);
        let p50 = h.quantile_ns(0.5);
        let p90 = h.quantile_ns(0.9);
        let p99 = h.quantile_ns(0.99);
        assert!(p50 <= p90 && p90 <= p99, "{p50} {p90} {p99}");
        assert!((100..=3200).contains(&p50), "p50 {p50}");
        assert!(p99 <= h.max_ns() * 2);
        assert_eq!(h.min_ns(), 100);
        assert_eq!(h.max_ns(), 1_000_000);
    }

    #[test]
    fn empty_histogram_is_quiet() {
        let h = LatencyHistogram::new();
        assert_eq!(h.quantile_ns(0.99), 0);
        assert_eq!(h.mean_ns(), 0.0);
        assert_eq!(h.min_ns(), 0);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        a.record_ns(10);
        b.record_ns(1000);
        b.record_ns(2000);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.max_ns(), 2000);
        assert_eq!(a.min_ns(), 10);
    }
}
