//! Experiment runners: feed a workload, track ground truth, measure at
//! checkpoints the way §7.1 describes.

use crate::{CardinalitySketch, FrequencySketch, MemberSketch, SimilaritySketch};
use she_window::{PairTruth, WindowTruth};
use std::time::Instant;

/// Result of one accuracy run.
#[derive(Debug, Clone, PartialEq)]
pub struct AccuracyResult {
    /// Algorithm name.
    pub name: &'static str,
    /// The metric (FPR / RE / ARE depending on the runner).
    pub value: f64,
    /// Per-checkpoint values (the time series behind Fig. 5).
    pub series: Vec<f64>,
    /// Memory footprint in bits at the end of the run.
    pub memory_bits: usize,
}

/// Membership FPR (Fig. 9d protocol): feed `items` keys; at each of
/// `checkpoints` evenly spaced points after warm-up, probe `probes` keys
/// that are *absent from the last `guard` items* (the paper queries items
/// not present in the recent `(1+α)·N` items; pass the largest `(1+α)·N`
/// among the algorithms under test). FPR = positives / probes.
pub fn membership_fpr(
    sketch: &mut dyn MemberSketch,
    keys: &[u64],
    guard: usize,
    checkpoints: usize,
    probes: usize,
) -> AccuracyResult {
    assert!(checkpoints >= 1 && probes >= 1);
    assert!(keys.len() > guard, "stream shorter than the probe guard window");
    let mut truth = WindowTruth::new(guard);
    let warmup = guard.min(keys.len() / 2);
    let stride = (keys.len() - warmup) / checkpoints;
    let mut series = Vec::with_capacity(checkpoints);
    let mut probe_salt = 0xA5A5_0000_0000_0000u64;
    for (i, &k) in keys.iter().enumerate() {
        sketch.insert(k);
        truth.insert(k);
        let since_warm = i + 1 - warmup.min(i + 1);
        if i + 1 > warmup
            && stride > 0
            && since_warm.is_multiple_of(stride)
            && series.len() < checkpoints
        {
            let mut fp = 0usize;
            let mut asked = 0usize;
            let mut cand = probe_salt;
            while asked < probes {
                cand = cand.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let probe = she_hash::mix64(cand);
                if truth.contains(probe) {
                    continue; // must be absent from the guard window
                }
                asked += 1;
                if sketch.query(probe) {
                    fp += 1;
                }
            }
            probe_salt = cand;
            series.push(fp as f64 / probes as f64);
        }
    }
    finish(sketch.name(), series, sketch.memory_bits())
}

/// Cardinality relative error (Figs. 9a/9b protocol): feed keys; at each
/// checkpoint compare the estimate against the exact distinct count of the
/// last `window` items; report the mean RE.
pub fn cardinality_re(
    sketch: &mut dyn CardinalitySketch,
    keys: &[u64],
    window: usize,
    checkpoints: usize,
) -> AccuracyResult {
    assert!(checkpoints >= 1);
    let mut truth = WindowTruth::new(window);
    let warmup = (2 * window).min(keys.len() / 2);
    let stride = ((keys.len() - warmup) / checkpoints).max(1);
    let mut series = Vec::with_capacity(checkpoints);
    for (i, &k) in keys.iter().enumerate() {
        sketch.insert(k);
        truth.insert(k);
        if i + 1 > warmup && (i + 1 - warmup).is_multiple_of(stride) && series.len() < checkpoints {
            let exact = truth.cardinality() as f64;
            let est = sketch.estimate();
            series.push((est - exact).abs() / exact.max(1.0));
        }
    }
    finish(sketch.name(), series, sketch.memory_bits())
}

/// Frequency ARE (Fig. 9c protocol): at each checkpoint, average the
/// relative error over (a sample of) the distinct keys of the exact window.
pub fn frequency_are(
    sketch: &mut dyn FrequencySketch,
    keys: &[u64],
    window: usize,
    checkpoints: usize,
    sample_keys: usize,
) -> AccuracyResult {
    assert!(checkpoints >= 1 && sample_keys >= 1);
    let mut truth = WindowTruth::new(window);
    let warmup = (2 * window).min(keys.len() / 2);
    let stride = ((keys.len() - warmup) / checkpoints).max(1);
    let mut series = Vec::with_capacity(checkpoints);
    for (i, &k) in keys.iter().enumerate() {
        sketch.insert(k);
        truth.insert(k);
        if i + 1 > warmup && (i + 1 - warmup).is_multiple_of(stride) && series.len() < checkpoints {
            let mut sum = 0.0;
            let mut n = 0usize;
            for (key, f) in truth.iter_counts() {
                if n >= sample_keys {
                    break;
                }
                let est = sketch.query(key) as f64;
                sum += (est - f as f64).abs() / f as f64;
                n += 1;
            }
            series.push(sum / n.max(1) as f64);
        }
    }
    finish(sketch.name(), series, sketch.memory_bits())
}

/// Similarity relative error (Fig. 9e protocol): feed aligned pairs; at
/// each checkpoint compare against the exact Jaccard index of the two
/// windows.
pub fn similarity_re(
    sketch: &mut dyn SimilaritySketch,
    pairs: &[(u64, u64)],
    window: usize,
    checkpoints: usize,
) -> AccuracyResult {
    assert!(checkpoints >= 1);
    let mut truth = PairTruth::new(window);
    let warmup = (2 * window).min(pairs.len() / 2);
    let stride = ((pairs.len() - warmup) / checkpoints).max(1);
    let mut series = Vec::with_capacity(checkpoints);
    for (i, &(a, b)) in pairs.iter().enumerate() {
        sketch.insert_pair(a, b);
        truth.insert_a(a);
        truth.insert_b(b);
        if i + 1 > warmup && (i + 1 - warmup).is_multiple_of(stride) && series.len() < checkpoints {
            let exact = truth.jaccard();
            let est = sketch.estimate();
            series.push((est - exact).abs() / exact.max(1e-9));
        }
    }
    finish(sketch.name(), series, sketch.memory_bits())
}

fn finish(name: &'static str, series: Vec<f64>, memory_bits: usize) -> AccuracyResult {
    let value =
        if series.is_empty() { f64::NAN } else { series.iter().sum::<f64>() / series.len() as f64 };
    AccuracyResult { name, value, series, memory_bits }
}

/// Insertion throughput in million items per second (Figs. 10–11
/// protocol): time a pure insertion loop over `keys`, after feeding
/// `warmup` items (the paper feeds "enough items until the performance is
/// stable").
pub fn throughput_mips(mut insert: impl FnMut(u64), keys: &[u64], warmup: usize) -> f64 {
    let warmup = warmup.min(keys.len() / 2);
    for &k in &keys[..warmup] {
        insert(k);
    }
    let timed = &keys[warmup..];
    let start = Instant::now();
    for &k in timed {
        insert(k);
    }
    let secs = start.elapsed().as_secs_f64();
    timed.len() as f64 / secs / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{sized, IdealBitmap};
    use she_streams::{CaidaLike, DistinctStream, KeyStream, RelevantPair};

    const WINDOW: u64 = 1 << 12;

    fn caida(n: usize) -> Vec<u64> {
        CaidaLike::new(20_000, 1.05, 1).take_vec(n)
    }

    #[test]
    fn membership_runner_separates_she_from_starved_swamp() {
        let keys = DistinctStream::new(1).take_vec(6 * WINDOW as usize);
        let guard = 5 * WINDOW as usize;
        let mut she = sized::she_bf(WINDOW, 32 << 10, 7);
        let she_res = membership_fpr(&mut she, &keys, guard, 4, 2_000);
        let mut swamp = sized::swamp(WINDOW, 2 << 10, 7); // starved
        let swamp_res = membership_fpr(&mut swamp, &keys, guard, 4, 2_000);
        assert!(she_res.value < 0.02, "SHE-BF FPR {}", she_res.value);
        assert!(
            swamp_res.value > 10.0 * she_res.value.max(1e-4),
            "SWAMP {} vs SHE {}",
            swamp_res.value,
            she_res.value
        );
        assert_eq!(she_res.series.len(), 4);
    }

    #[test]
    fn cardinality_runner_tracks_truth() {
        let keys = caida(6 * WINDOW as usize);
        let mut bm = sized::she_bm(WINDOW, 4 << 10, 3);
        let res = cardinality_re(&mut bm, &keys, WINDOW as usize, 4);
        assert!(res.value < 0.2, "SHE-BM RE {}", res.value);
        let mut ideal = IdealBitmap::sized(WINDOW, 4 << 10, 3);
        let ideal_res = cardinality_re(&mut ideal, &keys, WINDOW as usize, 4);
        assert!(ideal_res.value < 0.1, "Ideal RE {}", ideal_res.value);
    }

    #[test]
    fn frequency_runner_prefers_she_over_tiny_swamp() {
        let keys = caida(6 * WINDOW as usize);
        let mut cm = sized::she_cm(WINDOW, 256 << 10, 3);
        let res = frequency_are(&mut cm, &keys, WINDOW as usize, 3, 300);
        assert!(res.value < 1.0, "SHE-CM ARE {}", res.value);
    }

    #[test]
    fn similarity_runner_tracks_truth() {
        let mut gen = RelevantPair::new(5_000, 0.6, 2);
        let pairs: Vec<(u64, u64)> = (0..5 * WINDOW as usize).map(|_| gen.next_pair()).collect();
        let mut mh = sized::she_mh(WINDOW, 4 << 10, 5);
        let res = similarity_re(&mut mh, &pairs, WINDOW as usize, 3);
        assert!(res.value < 0.35, "SHE-MH RE {}", res.value);
    }

    #[test]
    fn throughput_runner_returns_positive_mips() {
        let keys = caida(200_000);
        let mut bm = sized::she_bm(WINDOW, 8 << 10, 1);
        let mips = throughput_mips(|k| bm.insert(&k), &keys, 50_000);
        assert!(mips > 0.0);
    }
}
