//! Cross-version tests: the software cleaning process of §3.2 and the
//! hardware time-mark groups of §3.3 must describe the same structure.

use she_core::{She, SheConfig, SoftClock};
use she_sketch::BloomSpec;

/// With `w = 1`, the hardware version's per-group scheduled cleanings and
/// the software sweep visit cells at the same rate; ages agree to within
/// one cleaning step.
#[test]
fn ages_agree_between_versions() {
    let m = 128;
    let cfg = SheConfig::builder().window(100).alpha(0.5).group_cells(1).build();
    let tc = cfg.t_cycle;
    let step = tc.div_ceil(m as u64) + 1;
    let mut hw = She::new(BloomSpec::new(m, 4, 1), cfg);
    let mut soft = SoftClock::new(BloomSpec::new(m, 4, 1), cfg);

    // Walk well past one full cycle so every cell has been swept.
    for t in [tc + 1, tc + 37, 2 * tc + 5, 3 * tc - 1] {
        hw.advance_time(t - hw.now());
        soft.advance_time(t - soft.now());
        for i in 0..m {
            // Hardware groups age by scheduled deadline; the software
            // cleaner passes cell i slightly later within the same step.
            // Both wrap mod Tcycle, so compare circular distance.
            let a = hw.cell_age(i) as i64;
            let b = soft.cell_age(i) as i64;
            let diff = (a - b).rem_euclid(tc as i64);
            let circ = diff.min(tc as i64 - diff);
            assert!(
                circ <= step as i64,
                "cell {i} at t={t}: hw age {a}, soft age {b} (allow {step})"
            );
        }
    }
}

/// Both versions answer membership identically on a long realistic run —
/// up to the one-cleaning-step boundary cells, disagreement must be rare.
#[test]
fn membership_answers_mostly_agree() {
    let m = 1 << 14;
    let window = 1u64 << 10;
    let cfg = SheConfig::builder().window(window).alpha(1.0).group_cells(1).build();
    let spec = BloomSpec::new(m, 4, 9);
    let mut hw = She::new(spec.clone(), cfg);
    let mut soft = SoftClock::new(spec.clone(), cfg);

    let keys: Vec<u64> = (0..6 * window).map(she_hash::mix64).collect();
    for &k in &keys {
        hw.insert(&k);
        soft.insert(&k);
    }

    // Compare raw answers over recent and expired keys.
    let mut disagree = 0usize;
    let mut checked = 0usize;
    let mut ups = Vec::new();
    for &k in keys.iter().rev().take(2 * window as usize) {
        // Hardware-version SHE-BF answer.
        hw.updates_for(&k, &mut ups);
        let mut hw_ans = true;
        for u in ups.clone() {
            let gid = hw.group_of(u.index);
            hw.check_group(gid);
            if !hw.observe_mature(gid) {
                continue;
            }
            if hw.peek_cell(u.index) == 0 {
                hw_ans = false;
                break;
            }
        }
        let soft_ans = soft.contains_bf(&k);
        checked += 1;
        if hw_ans != soft_ans {
            disagree += 1;
        }
    }
    assert!(checked > 0);
    let rate = disagree as f64 / checked as f64;
    assert!(rate < 0.02, "versions disagree on {rate:.3} of queries");
}

/// The two versions report comparable memory: the hardware version adds
/// exactly one mark bit per group.
#[test]
fn memory_accounting_difference_is_marks_only() {
    let m = 4096;
    let cfg = SheConfig::builder().window(500).alpha(0.5).group_cells(64).build();
    let hw = She::new(BloomSpec::new(m, 4, 2), cfg);
    let soft = SoftClock::new(BloomSpec::new(m, 4, 2), cfg);
    assert_eq!(hw.memory_bits(), soft.memory_bits() + m / 64);
}
