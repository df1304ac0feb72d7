//! Every algorithm under test, sized from a `(window, memory-bytes, seed)`
//! triple so the memory-sweep figures can treat them uniformly. Each
//! function is the one place its algorithm's budget becomes parameters;
//! it returns the structure itself, which implements the task traits.

use she_baselines::{
    CounterVectorSketch, EcmSketch, SlidingHyperLogLog, StrawmanMinHash, Swamp, TimeOutBloomFilter,
    TimestampVector, TimingBloomFilter,
};
use she_core::{
    SheBitmap, SheBloomFilter, SheCountMin, SheCountSketch, SheHyperLogLog, SheMinHash,
};

/// SHE-BF at the §7.1 settings: 8 hash functions, α from Eq. 2.
pub fn she_bf(window: u64, bytes: usize, seed: u32) -> SheBloomFilter {
    SheBloomFilter::builder()
        .window(window)
        .memory_bytes(bytes)
        .hash_functions(8)
        .seed(seed)
        .build()
}

/// SHE-BM at the paper defaults: α = 0.2, w = 64.
pub fn she_bm(window: u64, bytes: usize, seed: u32) -> SheBitmap {
    SheBitmap::builder().window(window).memory_bytes(bytes).seed(seed).build()
}

/// SHE-HLL at the paper defaults: α = 0.2, w = 1, 5-bit registers.
pub fn she_hll(window: u64, bytes: usize, seed: u32) -> SheHyperLogLog {
    SheHyperLogLog::builder().window(window).memory_bytes(bytes).seed(seed).build()
}

/// SHE-CM at the paper defaults: k = 8 hashes, α = 1.
pub fn she_cm(window: u64, bytes: usize, seed: u32) -> SheCountMin {
    SheCountMin::builder().window(window).memory_bytes(bytes).seed(seed).build()
}

/// SHE-CS (sliding count sketch): 5 hash pairs, α = 1, β = 0.9.
pub fn she_cs(window: u64, bytes: usize, seed: u32) -> SheCountSketch {
    SheCountSketch::builder().window(window).memory_bytes(bytes).seed(seed).build()
}

/// A SHE-MH pair at the paper defaults (α = 0.2, w = 1); `bytes` covers
/// both signatures.
pub fn she_mh(window: u64, bytes: usize, seed: u32) -> (SheMinHash, SheMinHash) {
    let builder = SheMinHash::builder().window(window).memory_bytes(bytes / 2).seed(seed);
    (builder.clone().build(), builder.build())
}

/// SWAMP, its fingerprint width taken from the budget.
pub fn swamp(window: u64, bytes: usize, seed: u32) -> Swamp {
    Swamp::with_memory(window as usize, bytes, seed)
}

/// TOBF: 64-bit timestamps, 8 hashes like SHE-BF.
pub fn tobf(window: u64, bytes: usize, seed: u32) -> TimeOutBloomFilter {
    TimeOutBloomFilter::with_memory(bytes, 8, window, seed)
}

/// TBF at the paper settings: 18-bit counters, 8 hashes.
pub fn tbf(window: u64, bytes: usize, seed: u32) -> TimingBloomFilter {
    TimingBloomFilter::with_memory(bytes, 8, window, seed)
}

/// TSV: 64-bit timestamps.
pub fn tsv(window: u64, bytes: usize, seed: u32) -> TimestampVector {
    TimestampVector::with_memory(bytes, window, seed)
}

/// CVS with the counter ceiling of 10 from §7.1.
pub fn cvs(window: u64, bytes: usize, seed: u32) -> CounterVectorSketch {
    CounterVectorSketch::with_memory(bytes, 10, window, seed as u64)
}

/// SHLL. Its memory is input-dependent: this provisions registers for the
/// paper's observation of a few LPFM records per register
/// (`bytes / (3 · 69 bits)` registers), and `memory_bits` reports the live
/// usage.
pub fn shll(window: u64, bytes: usize, seed: u32) -> SlidingHyperLogLog {
    SlidingHyperLogLog::new(((bytes * 8) / (3 * 69)).max(16), window, seed)
}

/// ECM: 4 hash functions per §7.1, EH parameter 8.
pub fn ecm(window: u64, bytes: usize, seed: u32) -> EcmSketch {
    EcmSketch::with_memory(bytes, 4, 8, window, seed)
}

/// A straw-man MinHash pair; `bytes` covers both signatures (each cell
/// charges a 64-bit timestamp, so the straw-man affords far fewer hash
/// functions).
pub fn strawman_mh(window: u64, bytes: usize, seed: u32) -> (StrawmanMinHash, StrawmanMinHash) {
    (
        StrawmanMinHash::with_memory(bytes / 2, window, seed),
        StrawmanMinHash::with_memory(bytes / 2, window, seed),
    )
}
