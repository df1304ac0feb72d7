//! SHE configuration: window size, cleaning cycle, group geometry.

/// Resolved SHE parameters (Table 1 of the paper).
///
/// * `window` — `N`, the sliding-window size in items;
/// * `t_cycle` — `Tcycle`, the cleaning-cycle length (`(1 + α) · N`);
/// * `group_cells` — `w`, cells per group;
/// * `beta` — the lower edge of the "legal age" range `[βN, Tcycle)` used by
///   the two-sided-error estimators (SHE-BM / SHE-HLL / SHE-MH). One-sided
///   algorithms (SHE-BF, SHE-CM) always use `β = 1` internally.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SheConfig {
    /// Sliding-window size `N` in items.
    pub window: u64,
    /// Cleaning-cycle length `Tcycle > N`.
    pub t_cycle: u64,
    /// Cells per group `w` (`≥ 1`).
    pub group_cells: usize,
    /// Legal-age fraction `β ∈ (0, 1]`.
    pub beta: f64,
}

impl SheConfig {
    /// Start building a config.
    pub fn builder() -> SheConfigBuilder {
        SheConfigBuilder::default()
    }

    /// `α = (Tcycle − N) / N`.
    pub fn alpha(&self) -> f64 {
        (self.t_cycle - self.window) as f64 / self.window as f64
    }

    /// Panics unless the invariants of Section 3 hold.
    pub fn validate(&self) {
        assert!(self.window > 0, "window must be positive");
        assert!(
            self.t_cycle > self.window,
            "Tcycle ({}) must exceed the window ({})",
            self.t_cycle,
            self.window
        );
        assert!(self.group_cells >= 1, "groups must hold at least one cell");
        assert!(self.beta > 0.0 && self.beta <= 1.0, "beta must be in (0, 1], got {}", self.beta);
    }
}

/// Builder for [`SheConfig`] with the paper's §7.1 defaults.
#[derive(Debug, Clone)]
pub struct SheConfigBuilder {
    window: u64,
    alpha: f64,
    group_cells: usize,
    beta: f64,
}

impl Default for SheConfigBuilder {
    fn default() -> Self {
        // Paper defaults: N = 2^16, w = 64, α = 0.2, and β slightly below 1.
        Self { window: 1 << 16, alpha: 0.2, group_cells: 64, beta: 0.9 }
    }
}

impl SheConfigBuilder {
    /// Set the sliding-window size `N` (items).
    pub fn window(mut self, n: u64) -> Self {
        self.window = n;
        self
    }

    /// Set `α = (Tcycle − N)/N`; `Tcycle` is derived as `(1 + α) N`.
    pub fn alpha(mut self, alpha: f64) -> Self {
        assert!(alpha > 0.0, "alpha must be positive");
        self.alpha = alpha;
        self
    }

    /// Set cells per group `w`.
    pub fn group_cells(mut self, w: usize) -> Self {
        self.group_cells = w;
        self
    }

    /// Set the legal-age fraction `β`.
    pub fn beta(mut self, beta: f64) -> Self {
        self.beta = beta;
        self
    }

    /// Resolve into a validated [`SheConfig`].
    pub fn build(self) -> SheConfig {
        #[expect(
            clippy::cast_possible_truncation,
            reason = "float-to-int `as` saturates; (1+α)·N is a cycle length in items"
        )]
        let t_cycle = ((self.window as f64) * (1.0 + self.alpha)).round() as u64;
        let cfg = SheConfig {
            window: self.window,
            t_cycle: t_cycle.max(self.window + 1),
            group_cells: self.group_cells,
            beta: self.beta,
        };
        cfg.validate();
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let cfg = SheConfig::builder().build();
        assert_eq!(cfg.window, 1 << 16);
        assert_eq!(cfg.group_cells, 64);
        assert!((cfg.alpha() - 0.2).abs() < 1e-3);
    }

    #[test]
    fn alpha_round_trip() {
        for alpha in [0.1, 0.2, 0.5, 1.0, 3.0] {
            let cfg = SheConfig::builder().window(10_000).alpha(alpha).build();
            assert!((cfg.alpha() - alpha).abs() < 1e-3, "alpha {alpha}");
        }
    }

    #[test]
    fn tiny_alpha_still_yields_valid_cycle() {
        let cfg = SheConfig::builder().window(10).alpha(0.001).build();
        assert!(cfg.t_cycle > cfg.window);
    }

    #[test]
    #[should_panic]
    fn zero_window_rejected() {
        let _ = SheConfig::builder().window(0).build();
    }

    #[test]
    #[should_panic]
    fn bad_beta_rejected() {
        let _ = SheConfig::builder().beta(1.5).build();
    }
}
