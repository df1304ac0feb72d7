//! Section 5 of the paper: error analysis and parameter selection.
//!
//! * Eq. (1) — how many groups `G` keep the expected number of
//!   never-refreshed groups below `ε` ([`expected_unswept_groups`],
//!   [`max_group_count`]);
//! * Eq. (2) — the optimal `α` for SHE-BF ([`optimal_alpha_bf`]), obtained
//!   by minimizing the closed-form FPR ([`she_bf_fpr`]);
//! * Eq. (3) — the SHE-BM error bound ([`she_bm_error_bound`]);
//! * Eq. (4) — the SHE-HLL error bound ([`she_hll_error_bound`]);
//! * Eq. (5) — the SHE-MH error bound ([`she_mh_error_bound`]).

/// Expected number of groups that fail to be touched (and hence cleaned) by
/// any insertion during one cleaning cycle:
/// `E = G · e^{-(1+α)·C·H / G}` (§5.1).
///
/// * `g` — number of groups;
/// * `alpha` — `(Tcycle − N)/N`;
/// * `c` — cardinality of one sliding window;
/// * `h` — cells updated per insertion (`H`).
pub fn expected_unswept_groups(g: usize, alpha: f64, c: u64, h: usize) -> f64 {
    assert!(g > 0);
    let updates = (1.0 + alpha) * c as f64 * h as f64;
    g as f64 * (-updates / g as f64).exp()
}

/// The largest group count `G` whose expected unswept-group count stays
/// below `epsilon` (the practical form of Eq. 1). Returns at least 1.
pub fn max_group_count(epsilon: f64, alpha: f64, c: u64, h: usize) -> usize {
    assert!(epsilon > 0.0);
    // E(G) is increasing in G throughout the useful regime (G ≤ (1+α)CH),
    // so binary-search the threshold.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "float-to-int `as` saturates; (1+α)·C·H is an update count far below usize::MAX"
    )]
    let updates = ((1.0 + alpha) * c as f64 * h as f64) as usize;
    let (mut lo, mut hi) = (1usize, updates.max(2));
    if expected_unswept_groups(hi, alpha, c, h) <= epsilon {
        return hi;
    }
    while lo + 1 < hi {
        let mid = lo + (hi - lo) / 2;
        if expected_unswept_groups(mid, alpha, c, h) <= epsilon {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

/// The closed-form SHE-BF false-positive rate of §5.2 as a function of
/// `R = α + 1`:
///
/// `FPR(R) = [1 − (Q^R − Q) / (ln(Q) · R)]^H`,
///
/// where `Q = (1 − 1/M)^{C·H}` is the per-cycle zero-bit retention base
/// (`M` filter bits, `C` window cardinality, `H` hash functions).
#[expect(
    clippy::cast_possible_truncation,
    reason = "h is the hash count, a handful, far below i32::MAX"
)]
pub fn she_bf_fpr(q: f64, r: f64, h: usize) -> f64 {
    assert!(q > 0.0 && q < 1.0, "Q must be in (0,1), got {q}");
    assert!(r > 0.0);
    let p0 = (q.powf(r) - q) / (q.ln() * r);
    (1.0 - p0).powi(h as i32).clamp(0.0, 1.0)
}

/// The `Q` of §5.2 for an `m`-bit filter with `h` hash functions and window
/// cardinality `c`: `Q = (1 − 1/m)^{c·h}`.
pub fn bf_q(m_bits: usize, h: usize, c: usize) -> f64 {
    assert!(m_bits > 1);
    ((1.0 - 1.0 / m_bits as f64).ln() * (c as f64) * (h as f64)).exp()
}

/// Solve Eq. (2): the root `R0` of `dg/dR = Q^R (R·ln Q − 1) + Q = 0`, which
/// minimizes the FPR; the optimal `α` is `R0 − 1`.
///
/// `dg/dR` is monotonically increasing on `R ∈ (0, ∞)` (from `Q − 1 < 0`
/// towards `Q > 0`), so the root is unique; we bisect.
pub fn optimal_r(q: f64) -> f64 {
    assert!(q > 0.0 && q < 1.0, "Q must be in (0,1), got {q}");
    let dg = |r: f64| q.powf(r) * (r * q.ln() - 1.0) + q;
    let mut lo = 1e-9;
    let mut hi = 2.0;
    while dg(hi) < 0.0 {
        hi *= 2.0;
        assert!(hi < 1e9, "optimal R diverged for Q = {q}");
    }
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if dg(mid) < 0.0 {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// The optimal `α` of Eq. (2) for an `m_bits` SHE-BF with `h` hash functions
/// over windows of cardinality `c`, floored at a small positive value so the
/// returned α always yields a valid `Tcycle > N`.
pub fn optimal_alpha_bf(m_bits: usize, h: usize, c: usize) -> f64 {
    let q = bf_q(m_bits, h, c);
    (optimal_r(q) - 1.0).max(0.05)
}

/// Eq. (3): SHE-BM relative-error bound `ε = α·T / (4·C)` for window size
/// `T = N` and window cardinality `C`.
pub fn she_bm_error_bound(alpha: f64, window: u64, c: u64) -> f64 {
    assert!(c > 0);
    alpha * window as f64 / (4.0 * c as f64)
}

/// Eq. (4): SHE-HLL relative-error bound
/// `ε = (α·T / 4C) · (1 + O(α·T / C))`; the second-order factor is included
/// at its leading coefficient.
pub fn she_hll_error_bound(alpha: f64, window: u64, c: u64) -> f64 {
    assert!(c > 0);
    let first = alpha * window as f64 / (4.0 * c as f64);
    first * (1.0 + alpha * window as f64 / c as f64)
}

/// Eq. (5): SHE-MH similarity bias bound `ε/4 + ε²/6` with
/// `ε = 2·α·T / S∪` (`s_union` = size of the union of the two windows).
pub fn she_mh_error_bound(alpha: f64, window: u64, s_union: u64) -> f64 {
    assert!(s_union > 0);
    let eps = 2.0 * alpha * window as f64 / s_union as f64;
    eps / 4.0 + eps * eps / 6.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unswept_expectation_shrinks_with_fewer_groups() {
        let e_small = expected_unswept_groups(64, 0.2, 10_000, 8);
        let e_large = expected_unswept_groups(65_536, 0.2, 10_000, 8);
        assert!(e_small < e_large);
        assert!(e_small < 1e-100); // 64 groups, 96k updates: essentially 0
    }

    #[test]
    fn max_group_count_respects_epsilon() {
        let g = max_group_count(0.01, 0.2, 50_000, 8);
        assert!(expected_unswept_groups(g, 0.2, 50_000, 8) <= 0.01);
        assert!(expected_unswept_groups(g + g / 10 + 1, 0.2, 50_000, 8) > 0.01);
    }

    #[test]
    fn optimal_r_is_a_root_and_a_minimum() {
        for q in [0.1, 0.3679, 0.5, 0.9] {
            let r0 = optimal_r(q);
            let dg = q.powf(r0) * (r0 * q.ln() - 1.0) + q;
            assert!(dg.abs() < 1e-9, "dg({r0}) = {dg} for Q = {q}");
            // FPR at R0 must not exceed FPR nearby.
            let f0 = she_bf_fpr(q, r0, 8);
            assert!(f0 <= she_bf_fpr(q, r0 * 1.3, 8) + 1e-12);
            assert!(f0 <= she_bf_fpr(q, (r0 * 0.7).max(1e-3), 8) + 1e-12);
        }
    }

    #[test]
    fn optimal_alpha_for_e_inverse_q() {
        // For Q = e^{-1}, dg/dR = 0 becomes (R+1) = e^{R-1}; root ≈ 2.1462.
        let r0 = optimal_r((-1.0f64).exp());
        assert!((r0 - 2.146).abs() < 0.01, "r0 = {r0}");
    }

    #[test]
    fn paper_default_setting_gives_alpha_near_three() {
        // §7.1 sets α ≈ 3 for SHE-BF via Eq. 2. Their memory sweep centers
        // near 32 KB with N = 2^16 mostly-distinct items and H = 8; the
        // heavily-loaded regime (Q close to 0) pushes the optimum to ~3.
        let q = bf_q(32 << 13, 8, 1 << 16); // 32 KB, H=8, C=2^16
        let alpha = optimal_r(q) - 1.0;
        assert!(alpha > 0.5 && alpha < 6.0, "alpha = {alpha}");
    }

    #[test]
    fn bf_q_in_unit_interval() {
        let q = bf_q(1 << 18, 8, 1 << 16);
        assert!(q > 0.0 && q < 1.0);
    }

    #[test]
    fn error_bounds_scale_with_alpha() {
        assert!(
            she_bm_error_bound(0.4, 1 << 16, 1 << 16) > she_bm_error_bound(0.2, 1 << 16, 1 << 16)
        );
        assert!(
            she_hll_error_bound(0.2, 1 << 16, 1 << 16) >= she_bm_error_bound(0.2, 1 << 16, 1 << 16)
        );
        assert!(she_mh_error_bound(0.4, 1000, 4000) > she_mh_error_bound(0.2, 1000, 4000));
    }

    #[test]
    fn bm_bound_for_distinct_stream() {
        // Distinct stream: C = T, so the bound is α/4.
        let b = she_bm_error_bound(0.2, 1 << 16, 1 << 16);
        assert!((b - 0.05).abs() < 1e-12);
    }

    #[test]
    fn fpr_decreases_with_more_memory() {
        let h = 8;
        let c = 1 << 16;
        let q_small = bf_q(1 << 18, h, c);
        let q_big = bf_q(1 << 21, h, c);
        let f_small = she_bf_fpr(q_small, 2.0, h);
        let f_big = she_bf_fpr(q_big, 2.0, h);
        assert!(f_big < f_small);
    }
}
