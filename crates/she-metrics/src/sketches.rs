//! The task traits implemented directly on every algorithm — SHE and the
//! baselines — plus the **Ideal goal** (see [`crate::sized`] for the
//! memory-budget constructors).
//!
//! The **Ideal** types implement the paper's "ideal goal": at query time
//! the exact window contents (tracked by a `WindowTruth`) are replayed into
//! a fresh fixed-window original of the same memory budget, so the answer
//! carries only the original algorithm's error, none of the sliding error.

use crate::{CardinalitySketch, FrequencySketch, MemberSketch, SimilaritySketch};
use she_baselines::{
    CounterVectorSketch, EcmSketch, SlidingHyperLogLog, StrawmanMinHash, Swamp, TimeOutBloomFilter,
    TimestampVector, TimingBloomFilter,
};
use she_core::{
    SheBitmap, SheBloomFilter, SheCountMin, SheCountSketch, SheHyperLogLog, SheMinHash, SoftClock,
};
use she_sketch::{Bitmap, BloomFilter, BloomSpec, CountMin, HyperLogLog, MinHash};
use she_window::{PairTruth, WindowTruth};

// ---------------------------------------------------------------------------
// Membership (Fig. 9d): SHE-BF, SWAMP, TOBF, TBF, Ideal.
// ---------------------------------------------------------------------------

impl MemberSketch for SheBloomFilter {
    fn name(&self) -> &'static str {
        "SHE-BF"
    }
    fn insert(&mut self, key: u64) {
        Self::insert(self, &key);
    }
    fn query(&mut self, key: u64) -> bool {
        self.contains(&key)
    }
    fn memory_bits(&self) -> usize {
        Self::memory_bits(self)
    }
}

/// The software version (continuous cleaning) of SHE-BF.
impl MemberSketch for SoftClock<BloomSpec> {
    fn name(&self) -> &'static str {
        "SHE-BF-soft"
    }
    fn insert(&mut self, key: u64) {
        Self::insert(self, &key);
    }
    fn query(&mut self, key: u64) -> bool {
        self.contains_bf(&key)
    }
    fn memory_bits(&self) -> usize {
        Self::memory_bits(self)
    }
}

/// SWAMP's `ISMEMBER`.
impl MemberSketch for Swamp {
    fn name(&self) -> &'static str {
        "SWAMP"
    }
    fn insert(&mut self, key: u64) {
        Self::insert(self, key);
    }
    fn query(&mut self, key: u64) -> bool {
        self.contains(key)
    }
    fn memory_bits(&self) -> usize {
        Self::memory_bits(self)
    }
}

impl MemberSketch for TimeOutBloomFilter {
    fn name(&self) -> &'static str {
        "TOBF"
    }
    fn insert(&mut self, key: u64) {
        Self::insert(self, key);
    }
    fn query(&mut self, key: u64) -> bool {
        self.contains(key)
    }
    fn memory_bits(&self) -> usize {
        Self::memory_bits(self)
    }
}

impl MemberSketch for TimingBloomFilter {
    fn name(&self) -> &'static str {
        "TBF"
    }
    fn insert(&mut self, key: u64) {
        Self::insert(self, key);
    }
    fn query(&mut self, key: u64) -> bool {
        self.contains(key)
    }
    fn memory_bits(&self) -> usize {
        Self::memory_bits(self)
    }
}

/// Ideal membership: a fresh fixed-window Bloom filter over the exact
/// window contents.
#[derive(Debug)]
pub struct IdealBloom {
    truth: WindowTruth,
    bytes: usize,
    seed: u32,
    /// Cached rebuild, invalidated on insert.
    cache: Option<BloomFilter>,
}

impl IdealBloom {
    /// Same memory budget and hash count as SHE-BF.
    pub fn sized(window: u64, bytes: usize, seed: u32) -> Self {
        Self { truth: WindowTruth::new(window as usize), bytes, seed, cache: None }
    }
}

impl MemberSketch for IdealBloom {
    fn name(&self) -> &'static str {
        "Ideal"
    }
    fn insert(&mut self, key: u64) {
        self.truth.insert(key);
        self.cache = None;
    }
    fn query(&mut self, key: u64) -> bool {
        if self.cache.is_none() {
            let mut bf = BloomFilter::with_memory(self.bytes, 8, self.seed);
            for k in self.truth.iter_items() {
                bf.insert(&k);
            }
            self.cache = Some(bf);
        }
        self.cache.as_ref().expect("cache just built").contains(&key)
    }
    fn memory_bits(&self) -> usize {
        self.bytes * 8
    }
}

// ---------------------------------------------------------------------------
// Cardinality (Figs. 9a, 9b): SHE-BM, SHE-HLL, SWAMP, TSV, CVS, SHLL, Ideal.
// ---------------------------------------------------------------------------

impl CardinalitySketch for SheBitmap {
    fn name(&self) -> &'static str {
        "SHE-BM"
    }
    fn insert(&mut self, key: u64) {
        Self::insert(self, &key);
    }
    fn estimate(&mut self) -> f64 {
        Self::estimate(self)
    }
    fn memory_bits(&self) -> usize {
        Self::memory_bits(self)
    }
}

impl CardinalitySketch for SheHyperLogLog {
    fn name(&self) -> &'static str {
        "SHE-HLL"
    }
    fn insert(&mut self, key: u64) {
        Self::insert(self, &key);
    }
    fn estimate(&mut self) -> f64 {
        Self::estimate(self)
    }
    fn memory_bits(&self) -> usize {
        Self::memory_bits(self)
    }
}

/// SWAMP's `DISTINCT` MLE.
impl CardinalitySketch for Swamp {
    fn name(&self) -> &'static str {
        "SWAMP"
    }
    fn insert(&mut self, key: u64) {
        Self::insert(self, key);
    }
    fn estimate(&mut self) -> f64 {
        self.distinct_mle()
    }
    fn memory_bits(&self) -> usize {
        Self::memory_bits(self)
    }
}

impl CardinalitySketch for TimestampVector {
    fn name(&self) -> &'static str {
        "TSV"
    }
    fn insert(&mut self, key: u64) {
        Self::insert(self, key);
    }
    fn estimate(&mut self) -> f64 {
        Self::estimate(self)
    }
    fn memory_bits(&self) -> usize {
        Self::memory_bits(self)
    }
}

impl CardinalitySketch for CounterVectorSketch {
    fn name(&self) -> &'static str {
        "CVS"
    }
    fn insert(&mut self, key: u64) {
        Self::insert(self, key);
    }
    fn estimate(&mut self) -> f64 {
        Self::estimate(self)
    }
    fn memory_bits(&self) -> usize {
        Self::memory_bits(self)
    }
}

/// SHLL; `memory_bits` is its live, input-dependent usage.
impl CardinalitySketch for SlidingHyperLogLog {
    fn name(&self) -> &'static str {
        "SHLL"
    }
    fn insert(&mut self, key: u64) {
        Self::insert(self, key);
    }
    fn estimate(&mut self) -> f64 {
        Self::estimate(self)
    }
    fn memory_bits(&self) -> usize {
        Self::memory_bits(self)
    }
}

/// Ideal cardinality via a fixed-window Bitmap over the exact window.
#[derive(Debug)]
pub struct IdealBitmap {
    truth: WindowTruth,
    bytes: usize,
    seed: u32,
}

impl IdealBitmap {
    /// Same memory budget as SHE-BM.
    pub fn sized(window: u64, bytes: usize, seed: u32) -> Self {
        Self { truth: WindowTruth::new(window as usize), bytes, seed }
    }
}

impl CardinalitySketch for IdealBitmap {
    fn name(&self) -> &'static str {
        "Ideal"
    }
    fn insert(&mut self, key: u64) {
        self.truth.insert(key);
    }
    fn estimate(&mut self) -> f64 {
        let mut bm = Bitmap::with_memory(self.bytes, self.seed);
        for k in self.truth.iter_items() {
            bm.insert(&k);
        }
        bm.estimate()
    }
    fn memory_bits(&self) -> usize {
        self.bytes * 8
    }
}

/// Ideal cardinality via a fixed-window HyperLogLog over the exact window.
#[derive(Debug)]
pub struct IdealHll {
    truth: WindowTruth,
    bytes: usize,
    seed: u32,
}

impl IdealHll {
    /// Same memory budget as SHE-HLL.
    pub fn sized(window: u64, bytes: usize, seed: u32) -> Self {
        Self { truth: WindowTruth::new(window as usize), bytes, seed }
    }
}

impl CardinalitySketch for IdealHll {
    fn name(&self) -> &'static str {
        "Ideal"
    }
    fn insert(&mut self, key: u64) {
        self.truth.insert(key);
    }
    fn estimate(&mut self) -> f64 {
        let mut h = HyperLogLog::with_memory(self.bytes, self.seed);
        for k in self.truth.iter_items() {
            h.insert(&k);
        }
        h.estimate()
    }
    fn memory_bits(&self) -> usize {
        self.bytes * 8
    }
}

// ---------------------------------------------------------------------------
// Frequency (Fig. 9c): SHE-CM, SHE-CS, SWAMP, ECM, Ideal.
// ---------------------------------------------------------------------------

impl FrequencySketch for SheCountMin {
    fn name(&self) -> &'static str {
        "SHE-CM"
    }
    fn insert(&mut self, key: u64) {
        Self::insert(self, &key);
    }
    fn query(&mut self, key: u64) -> u64 {
        Self::query(self, &key)
    }
    fn memory_bits(&self) -> usize {
        Self::memory_bits(self)
    }
}

/// SHE-CS (sliding count sketch). Negative estimates (count sketch has
/// two-sided error) clamp to zero for the ARE metric, as is standard when
/// the true frequencies are counts.
impl FrequencySketch for SheCountSketch {
    fn name(&self) -> &'static str {
        "SHE-CS"
    }
    fn insert(&mut self, key: u64) {
        Self::insert(self, &key);
    }
    fn query(&mut self, key: u64) -> u64 {
        Self::query(self, &key).max(0) as u64
    }
    fn memory_bits(&self) -> usize {
        Self::memory_bits(self)
    }
}

/// SWAMP's fingerprint multiplicity.
impl FrequencySketch for Swamp {
    fn name(&self) -> &'static str {
        "SWAMP"
    }
    fn insert(&mut self, key: u64) {
        Self::insert(self, key);
    }
    fn query(&mut self, key: u64) -> u64 {
        self.frequency(key) as u64
    }
    fn memory_bits(&self) -> usize {
        Self::memory_bits(self)
    }
}

impl FrequencySketch for EcmSketch {
    fn name(&self) -> &'static str {
        "ECM"
    }
    fn insert(&mut self, key: u64) {
        Self::insert(self, key);
    }
    fn query(&mut self, key: u64) -> u64 {
        Self::query(self, key)
    }
    fn memory_bits(&self) -> usize {
        Self::memory_bits(self)
    }
}

/// Ideal frequency via a fixed-window Count-Min over the exact window.
#[derive(Debug)]
pub struct IdealCm {
    truth: WindowTruth,
    bytes: usize,
    seed: u32,
    cache: Option<CountMin>,
}

impl IdealCm {
    /// Same memory budget as SHE-CM.
    pub fn sized(window: u64, bytes: usize, seed: u32) -> Self {
        Self { truth: WindowTruth::new(window as usize), bytes, seed, cache: None }
    }
}

impl FrequencySketch for IdealCm {
    fn name(&self) -> &'static str {
        "Ideal"
    }
    fn insert(&mut self, key: u64) {
        self.truth.insert(key);
        self.cache = None;
    }
    fn query(&mut self, key: u64) -> u64 {
        if self.cache.is_none() {
            let mut cm = CountMin::with_memory(self.bytes, 8, self.seed);
            for k in self.truth.iter_items() {
                cm.insert(&k);
            }
            self.cache = Some(cm);
        }
        self.cache.as_ref().expect("cache just built").query(&key)
    }
    fn memory_bits(&self) -> usize {
        self.bytes * 8
    }
}

// ---------------------------------------------------------------------------
// Similarity (Fig. 9e): SHE-MH, straw-man, Ideal — each a pair of
// signatures, one per stream.
// ---------------------------------------------------------------------------

impl SimilaritySketch for (SheMinHash, SheMinHash) {
    fn name(&self) -> &'static str {
        "SHE-MH"
    }
    fn insert_pair(&mut self, a: u64, b: u64) {
        self.0.insert(&a);
        self.1.insert(&b);
    }
    fn estimate(&mut self) -> f64 {
        self.0.similarity(&mut self.1)
    }
    fn memory_bits(&self) -> usize {
        self.0.memory_bits() + self.1.memory_bits()
    }
}

impl SimilaritySketch for (StrawmanMinHash, StrawmanMinHash) {
    fn name(&self) -> &'static str {
        "Straw"
    }
    fn insert_pair(&mut self, a: u64, b: u64) {
        self.0.insert(a);
        self.1.insert(b);
    }
    fn estimate(&mut self) -> f64 {
        self.0.similarity(&self.1)
    }
    fn memory_bits(&self) -> usize {
        self.0.memory_bits() + self.1.memory_bits()
    }
}

/// Ideal similarity via fixed-window MinHash signatures over the exact
/// windows.
#[derive(Debug)]
pub struct IdealMh {
    truth: PairTruth,
    bytes: usize,
    seed: u32,
}

impl IdealMh {
    /// Same total memory budget as SHE-MH.
    pub fn sized(window: u64, bytes: usize, seed: u32) -> Self {
        Self { truth: PairTruth::new(window as usize), bytes, seed }
    }
}

impl SimilaritySketch for IdealMh {
    fn name(&self) -> &'static str {
        "Ideal"
    }
    fn insert_pair(&mut self, a: u64, b: u64) {
        self.truth.insert_a(a);
        self.truth.insert_b(b);
    }
    fn estimate(&mut self) -> f64 {
        let mut ma = MinHash::with_memory(self.bytes / 2, self.seed);
        let mut mb = MinHash::with_memory(self.bytes / 2, self.seed);
        for k in self.truth.a().iter_items() {
            ma.insert(&k);
        }
        for k in self.truth.b().iter_items() {
            mb.insert(&k);
        }
        ma.similarity(&mb)
    }
    fn memory_bits(&self) -> usize {
        self.bytes * 8
    }
}
