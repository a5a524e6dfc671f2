//! Threshold functions `φ(δ)` for the online algorithm.
//!
//! O-AFA only pushes an ad whose budget efficiency exceeds `φ(δ_j)`,
//! where `δ_j` is the vendor's used-budget ratio. The paper derives the
//! adaptive form `φ(δ) = (γ_min / e) · g^δ` (Corollary IV.1), which
//! yields the `(ln g + 1)/θ` competitive ratio for `g > e`. A static
//! threshold and a no-threshold variant are provided for the §IV
//! discussion ("an adaptive threshold will perform better than a
//! static threshold") and the threshold ablation.

use crate::context::SolverContext;
use crate::online::estimate::estimate_gamma_bounds;

/// A threshold policy `φ(δ)` on the used-budget ratio `δ ∈ [0, 1]`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ThresholdFn {
    /// The paper's adaptive threshold `φ(δ) = (γ_min / e) · g^δ`,
    /// `g > e`.
    Adaptive {
        /// Lower bound `γ_min` on any instance's budget efficiency.
        gamma_min: f64,
        /// The growth base `g` (must exceed `e`).
        g: f64,
    },
    /// A constant threshold `φ(δ) = value`.
    Static {
        /// The constant threshold value.
        value: f64,
    },
    /// A staircase of discrete thresholds, the approach the paper
    /// contrasts itself against ("different from their approaches using
    /// a set of discrete thresholds"): `k` equal-width steps
    /// geometrically interpolating from `γ_min/e` up to
    /// `γ_min/e · g` — a piecewise-constant version of
    /// [`Adaptive`](Self::Adaptive).
    Stepped {
        /// Lower bound `γ_min` on any instance's budget efficiency.
        gamma_min: f64,
        /// The growth base `g` (must exceed `e`).
        g: f64,
        /// Number of steps (≥ 1).
        steps: u32,
    },
    /// No filtering: every positive-efficiency instance passes.
    Disabled,
}

impl ThresholdFn {
    /// The paper's adaptive threshold; panics unless `g > e` and
    /// `γ_min > 0` (the theory's preconditions).
    pub fn adaptive(gamma_min: f64, g: f64) -> Self {
        assert!(
            gamma_min > 0.0 && gamma_min.is_finite(),
            "γ_min must be positive"
        );
        assert!(g > std::f64::consts::E, "g must exceed e (Corollary IV.1)");
        ThresholdFn::Adaptive { gamma_min, g }
    }

    /// O-AFA's default policy: the adaptive threshold at the `γ_min`
    /// and `g` that [`estimate_gamma_bounds`] reads from `samples`
    /// sampled candidates of `ctx` (paper §IV-C), or
    /// [`Disabled`](Self::Disabled) when no positive-efficiency
    /// candidate exists.
    pub fn estimated(ctx: &SolverContext<'_>, samples: usize, seed: u64) -> Self {
        match estimate_gamma_bounds(ctx, samples, seed) {
            Some(b) => ThresholdFn::adaptive(b.gamma_min, b.g),
            None => ThresholdFn::Disabled,
        }
    }

    /// A stepped staircase threshold; panics unless `g > e`,
    /// `γ_min > 0` and `steps ≥ 1`.
    pub fn stepped(gamma_min: f64, g: f64, steps: u32) -> Self {
        assert!(
            gamma_min > 0.0 && gamma_min.is_finite(),
            "γ_min must be positive"
        );
        assert!(g > std::f64::consts::E, "g must exceed e");
        assert!(steps >= 1, "need at least one step");
        ThresholdFn::Stepped {
            gamma_min,
            g,
            steps,
        }
    }

    /// Evaluate `φ(δ)`.
    pub fn phi(&self, delta: f64) -> f64 {
        let delta = delta.clamp(0.0, 1.0);
        match *self {
            ThresholdFn::Adaptive { gamma_min, g } => {
                gamma_min / std::f64::consts::E * g.powf(delta)
            }
            ThresholdFn::Static { value } => value,
            ThresholdFn::Stepped {
                gamma_min,
                g,
                steps,
            } => {
                // Evaluate the continuous curve at the *floor* of the
                // step containing δ, so the staircase lower-bounds the
                // adaptive curve and coincides with it as steps → ∞.
                let step_width = 1.0 / f64::from(steps);
                let floor_delta = (delta / step_width).floor() * step_width;
                gamma_min / std::f64::consts::E * g.powf(floor_delta.min(1.0))
            }
            ThresholdFn::Disabled => 0.0,
        }
    }

    /// `true` iff an instance with budget efficiency `gamma` passes the
    /// threshold at used-budget ratio `delta` (Alg. 2 line 5).
    pub fn admits(&self, gamma: f64, delta: f64) -> bool {
        gamma >= self.phi(delta)
    }

    /// The theoretical competitive ratio `(ln g + 1)/θ` for the
    /// adaptive threshold, given `θ`; `None` for other variants.
    pub fn competitive_ratio(&self, theta: f64) -> Option<f64> {
        match *self {
            ThresholdFn::Adaptive { g, .. } => Some((g.ln() + 1.0) / theta),
            ThresholdFn::Static { .. } | ThresholdFn::Stepped { .. } | ThresholdFn::Disabled => {
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::E;

    #[test]
    fn adaptive_interpolates_from_gamma_min_over_e() {
        let t = ThresholdFn::adaptive(0.1, E * E);
        // δ = 0: φ = γ_min / e.
        assert!((t.phi(0.0) - 0.1 / E).abs() < 1e-12);
        // δ = 1: φ = γ_min / e · g = γ_min · e (for g = e²).
        assert!((t.phi(1.0) - 0.1 * E).abs() < 1e-9);
        // Monotone increasing.
        assert!(t.phi(0.2) < t.phi(0.8));
    }

    #[test]
    fn phi_at_h_equals_gamma_min() {
        // h = 1/ln g satisfies φ(h) = γ_min (paper §IV-B).
        let g = 10.0;
        let t = ThresholdFn::adaptive(0.25, g);
        let h = 1.0 / g.ln();
        assert!((t.phi(h) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn delta_is_clamped() {
        let t = ThresholdFn::adaptive(0.1, E * E);
        assert_eq!(t.phi(-0.5), t.phi(0.0));
        assert_eq!(t.phi(1.5), t.phi(1.0));
    }

    #[test]
    fn stepped_lower_bounds_and_converges_to_adaptive() {
        let (gamma_min, g) = (0.2, 12.0);
        let adaptive = ThresholdFn::adaptive(gamma_min, g);
        let coarse = ThresholdFn::stepped(gamma_min, g, 2);
        let fine = ThresholdFn::stepped(gamma_min, g, 1_000);
        for k in 0..=20 {
            let delta = k as f64 / 20.0;
            let a = adaptive.phi(delta);
            assert!(
                coarse.phi(delta) <= a + 1e-12,
                "staircase must lower-bound at δ={delta}"
            );
            assert!(
                (fine.phi(delta) - a).abs() < 0.02 * a,
                "fine staircase tracks adaptive"
            );
        }
        // Piecewise constant: same value across a step.
        assert_eq!(coarse.phi(0.1), coarse.phi(0.49));
        assert!(coarse.phi(0.51) > coarse.phi(0.49));
    }

    #[test]
    #[should_panic(expected = "at least one step")]
    fn stepped_rejects_zero_steps() {
        let _ = ThresholdFn::stepped(0.1, 10.0, 0);
    }

    #[test]
    fn admits_compares_against_phi() {
        let t = ThresholdFn::Static { value: 0.5 };
        assert!(t.admits(0.5, 0.9));
        assert!(!t.admits(0.49, 0.0));
        assert!(ThresholdFn::Disabled.admits(1e-30, 1.0));
    }

    #[test]
    fn competitive_ratio_formula() {
        let t = ThresholdFn::adaptive(0.1, E * E);
        // ln(e²) + 1 = 3; θ = 0.5 → ratio 6.
        assert!((t.competitive_ratio(0.5).unwrap() - 6.0).abs() < 1e-12);
        assert!(ThresholdFn::Disabled.competitive_ratio(0.5).is_none());
    }

    #[test]
    #[should_panic(expected = "g must exceed e")]
    fn rejects_small_g() {
        let _ = ThresholdFn::adaptive(0.1, 2.0);
    }

    #[test]
    #[should_panic(expected = "γ_min must be positive")]
    fn rejects_nonpositive_gamma_min() {
        let _ = ThresholdFn::adaptive(0.0, 10.0);
    }
}
