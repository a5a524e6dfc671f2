//! Estimation of the O-AFA parameters `γ_min`, `γ_max` and `g`
//! (paper §IV-C).
//!
//! The theory assumes a known lower bound `γ_min` on the budget
//! efficiency of any candidate ad instance. In a deployed system this
//! is estimated from historical data; here we sample candidate
//! instances from a (warm-up) context and take robust quantiles of the
//! positive efficiencies. `g` must satisfy `e < g ≤ γ_max · e / γ_min`
//! (the §IV-B discussion: `φ(1) ≤ γ_max` so high-efficiency instances
//! are never all blocked).

use crate::context::SolverContext;
use muaa_core::{DetRng, Money};
use std::f64::consts::E;

/// Estimated efficiency bounds and a recommended `g`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GammaBounds {
    /// Estimated lower bound `γ_min` (a low quantile of sampled
    /// positive efficiencies).
    pub gamma_min: f64,
    /// Estimated upper bound `γ_max` (a high quantile).
    pub gamma_max: f64,
    /// Recommended threshold base `g ∈ (e, γ_max·e/γ_min]`.
    pub g: f64,
}

/// Sample up to `samples` random (customer, vendor, ad type) candidate
/// instances and estimate efficiency bounds. Returns `None` when no
/// positive-efficiency candidate is found (degenerate instance).
///
/// Quantiles: `γ_min` is the 2nd percentile and `γ_max` the 98th, which
/// keeps a stray near-zero similarity from collapsing the threshold to
/// nothing. `g` defaults to `min(e², γ_max·e/γ_min)` and is always
/// strictly greater than `e`.
pub fn estimate_gamma_bounds(
    ctx: &SolverContext<'_>,
    samples: usize,
    seed: u64,
) -> Option<GammaBounds> {
    let inst = ctx.instance();
    if inst.num_customers() == 0 || inst.num_vendors() == 0 {
        return None;
    }
    // DetRng, not `rand`: the sampled stream feeds γ_min/g and through
    // them every O-AFA acceptance, so it must be identical in every
    // build environment (see `muaa_core::rng`).
    let mut rng = DetRng::seed_from_u64(seed);
    let mut gammas: Vec<f64> = Vec::with_capacity(samples.min(4096));

    // Sampling loop: draw random customers, look at their valid
    // vendors, and record the efficiency of the *best* affordable ad
    // type (the quantity O-AFA thresholds on). Budget is taken as the
    // full vendor budget — this mirrors estimating from history where
    // budgets were fresh.
    let mut attempts = 0usize;
    let max_attempts = samples.saturating_mul(4).max(64);
    while gammas.len() < samples && attempts < max_attempts {
        attempts += 1;
        let cid = muaa_core::CustomerId::from(rng.gen_range_usize(inst.num_customers()));
        // The context's precomputed CSR slice, in canonical ascending-id
        // order (DESIGN.md §12). The RNG draw below indexes into this
        // list, so the canonical order is what keeps the sampled stream
        // — and therefore γ_min/g — identical between a fresh build and
        // an incrementally patched context.
        let vendors = ctx.eligible_vendors(cid);
        if vendors.is_empty() {
            continue;
        }
        let vid = vendors[rng.gen_range_usize(vendors.len())];
        let budget: Money = inst.vendor(vid).budget;
        if let Some((_, _, gamma)) = ctx.best_ad_type(cid, vid, budget) {
            if gamma > 0.0 && gamma.is_finite() {
                gammas.push(gamma);
            }
        }
    }
    if gammas.is_empty() {
        return None;
    }
    gammas.sort_by(f64::total_cmp);
    let q = |p: f64| -> f64 {
        let idx = ((gammas.len() - 1) as f64 * p).round() as usize;
        gammas[idx]
    };
    let gamma_min = q(0.02);
    let gamma_max = q(0.98).max(gamma_min);
    // g ≤ γ_max · e / γ_min keeps φ(1) ≤ γ_max; prefer e² when allowed.
    let g_cap = (gamma_max * E / gamma_min).max(E * 1.0001);
    let g = (E * E).min(g_cap).max(E * 1.0001);
    Some(GammaBounds {
        gamma_min,
        gamma_max,
        g,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use muaa_core::{
        AdType, Customer, InstanceBuilder, PearsonUtility, Point, ProblemInstance, TagVector,
        Timestamp, Vendor,
    };

    fn instance() -> ProblemInstance {
        InstanceBuilder::new()
            .ad_types([
                AdType::new("TL", Money::from_dollars(1.0), 0.1),
                AdType::new("PL", Money::from_dollars(2.0), 0.4),
            ])
            .customers((0..50).map(|i| Customer {
                location: Point::new((i % 10) as f64 / 10.0, (i / 10) as f64 / 5.0),
                capacity: 2,
                view_probability: 0.1 + 0.8 * (i as f64 / 50.0),
                interests: TagVector::new(vec![0.9, 0.1, 0.4]).unwrap(),
                arrival: Timestamp::from_hours(i as f64 * 0.3),
            }))
            .vendors((0..5).map(|j| Vendor {
                location: Point::new(j as f64 / 5.0 + 0.05, 0.5),
                radius: 0.6,
                budget: Money::from_dollars(5.0),
                tags: TagVector::new(vec![0.8, 0.2, 0.5]).unwrap(),
            }))
            .build()
            .unwrap()
    }

    #[test]
    fn estimates_are_ordered_and_g_valid() {
        let inst = instance();
        let model = PearsonUtility::uniform(3);
        let ctx = SolverContext::indexed(&inst, &model);
        let b = estimate_gamma_bounds(&ctx, 500, 1).unwrap();
        assert!(b.gamma_min > 0.0);
        assert!(b.gamma_max >= b.gamma_min);
        assert!(b.g > E);
        // φ(1) = γ_min/e · g ≤ γ_max must hold by construction
        // (up to the tiny g floor).
        assert!(b.gamma_min / E * b.g <= b.gamma_max * 1.001 + 1e-12);
        // O-AFA's default policy is the adaptive threshold at the estimate.
        let policy = crate::ThresholdFn::estimated(&ctx, 500, 1);
        assert_eq!(policy, crate::ThresholdFn::adaptive(b.gamma_min, b.g));
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let inst = instance();
        let model = PearsonUtility::uniform(3);
        let ctx = SolverContext::indexed(&inst, &model);
        assert_eq!(
            estimate_gamma_bounds(&ctx, 200, 7),
            estimate_gamma_bounds(&ctx, 200, 7)
        );
    }

    #[test]
    fn none_for_empty_instance() {
        let inst = InstanceBuilder::new()
            .ad_type(AdType::new("TL", Money::from_dollars(1.0), 0.1))
            .build()
            .unwrap();
        let model = PearsonUtility::uniform(0);
        let ctx = SolverContext::indexed(&inst, &model);
        assert!(estimate_gamma_bounds(&ctx, 100, 0).is_none());
        let policy = crate::ThresholdFn::estimated(&ctx, 100, 0);
        assert_eq!(policy, crate::ThresholdFn::Disabled);
    }

    #[test]
    fn none_when_no_positive_efficiency_exists() {
        // Customer interests orthogonal to vendor tags → similarity 0.
        let inst = InstanceBuilder::new()
            .ad_type(AdType::new("TL", Money::from_dollars(1.0), 0.1))
            .customer(Customer {
                location: Point::new(0.5, 0.5),
                capacity: 1,
                view_probability: 0.5,
                interests: TagVector::new(vec![1.0, 0.0]).unwrap(),
                arrival: Timestamp::MIDNIGHT,
            })
            .vendor(Vendor {
                location: Point::new(0.5, 0.52),
                radius: 0.2,
                budget: Money::from_dollars(3.0),
                tags: TagVector::new(vec![0.0, 1.0]).unwrap(),
            })
            .build()
            .unwrap();
        let model = PearsonUtility::uniform(2);
        let ctx = SolverContext::indexed(&inst, &model);
        assert!(estimate_gamma_bounds(&ctx, 100, 0).is_none());
    }
}
