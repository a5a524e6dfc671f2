//! The paper's synthetic workload (§V-A, "Real/Synthetic Data Sets").
//!
//! Customer locations follow a Gaussian `N(0.5, 1²)` clamped to the
//! unit square; vendor locations are uniform. Budgets, radii,
//! capacities and view probabilities are truncated-Gaussian draws over
//! their configured ranges; tag vectors are random over a small tag
//! universe (the synthetic experiments do not use the taxonomy). The
//! customers' timestamps are their arrival order, as in the paper
//! ("only the orders of the customers affect the online algorithm").

use crate::adtypes;
use crate::dist::paper_range_sample;
use muaa_core::DetRng;
use muaa_core::{
    AdType, Customer, InstanceBuilder, Money, Point, ProblemInstance, TagVector, Timestamp, Vendor,
};

/// An inclusive parameter range `[lo, hi]`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Range {
    /// Lower bound.
    pub lo: f64,
    /// Upper bound.
    pub hi: f64,
}

impl Range {
    /// Construct, asserting `lo ≤ hi`.
    pub fn new(lo: f64, hi: f64) -> Self {
        assert!(lo <= hi, "invalid range [{lo}, {hi}]");
        Range { lo, hi }
    }

    /// Draw with the paper's truncated-Gaussian rule.
    pub fn sample(&self, rng: &mut DetRng) -> f64 {
        paper_range_sample(rng, self.lo, self.hi)
    }
}

impl From<(f64, f64)> for Range {
    fn from((lo, hi): (f64, f64)) -> Self {
        Range::new(lo, hi)
    }
}

/// Configuration of the synthetic generator. Defaults reconstruct the
/// paper's Table IV defaults (see `DESIGN.md` §5).
#[derive(Clone, Debug)]
pub struct SyntheticConfig {
    /// Number of customers `m`.
    pub customers: usize,
    /// Number of vendors `n`.
    pub vendors: usize,
    /// Vendor budget range `[B⁻, B⁺]` in dollars.
    pub budget: Range,
    /// Vendor radius range `[r⁻, r⁺]`.
    pub radius: Range,
    /// Customer capacity range `[a⁻, a⁺]` (rounded to integers ≥ 1).
    pub capacity: Range,
    /// View probability range `[p⁻, p⁺]`.
    pub view_probability: Range,
    /// Ad types (defaults to [`adtypes::adwords_like`]).
    pub ad_types: Vec<AdType>,
    /// Tag-universe size for the random tag vectors.
    pub tags: usize,
    /// RNG seed — same seed, same instance ([`DetRng`] stream, so the
    /// bytes are also identical across platforms and `rand` versions).
    pub seed: u64,
}

impl Default for SyntheticConfig {
    fn default() -> Self {
        SyntheticConfig {
            customers: 10_000,
            vendors: 500,
            budget: Range::new(10.0, 20.0),
            radius: Range::new(0.02, 0.03),
            capacity: Range::new(1.0, 5.0),
            view_probability: Range::new(0.1, 0.5),
            ad_types: adtypes::adwords_like(),
            tags: 8,
            seed: 0xDA7A,
        }
    }
}

/// Generate a synthetic MUAA instance per the paper's recipe.
pub fn generate_synthetic(config: &SyntheticConfig) -> ProblemInstance {
    let mut rng = DetRng::seed_from_u64(config.seed);
    let tags = config.tags;

    // Random tag vector with a planted two-cluster structure so that
    // Pearson similarities are meaningfully spread instead of pure
    // noise: half the universe "lifestyle", half "goods"; each entity
    // leans one way.
    let tag_vec = |rng: &mut DetRng| -> TagVector {
        let lean = rng.gen_f64();
        let scores: Vec<f64> = (0..tags)
            .map(|k| {
                let cluster_boost = if k < tags / 2 { lean } else { 1.0 - lean };
                (0.15 + 0.7 * cluster_boost * rng.gen_f64()).clamp(0.0, 1.0)
            })
            .collect();
        TagVector::new_unchecked(scores)
    };

    let customers: Vec<Customer> = (0..config.customers)
        .map(|i| {
            // Gaussian N(0.5, 1²) clamped to the unit square.
            let loc = Point::new(
                0.5 + crate::dist::standard_normal(&mut rng),
                0.5 + crate::dist::standard_normal(&mut rng),
            )
            .clamp_to_box(0.0, 1.0);
            Customer {
                location: loc,
                capacity: (config.capacity.sample(&mut rng).round() as u32).max(1),
                view_probability: config.view_probability.sample(&mut rng).clamp(0.0, 1.0),
                interests: tag_vec(&mut rng),
                // Arrival order doubles as the timestamp.
                arrival: Timestamp::from_hours(24.0 * i as f64 / config.customers.max(1) as f64),
            }
        })
        .collect();

    let vendors: Vec<Vendor> = (0..config.vendors)
        .map(|_| Vendor {
            location: Point::new(rng.gen_f64(), rng.gen_f64()),
            radius: config.radius.sample(&mut rng).max(0.0),
            budget: Money::from_dollars(config.budget.sample(&mut rng)),
            tags: tag_vec(&mut rng),
        })
        .collect();

    InstanceBuilder::new()
        .customers(customers)
        .vendors(vendors)
        .ad_types(config.ad_types.iter().cloned())
        .build()
        .expect("synthetic generator produces valid instances")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SyntheticConfig {
        SyntheticConfig {
            customers: 200,
            vendors: 20,
            ..Default::default()
        }
    }

    #[test]
    fn respects_counts_and_ranges() {
        let cfg = small();
        let inst = generate_synthetic(&cfg);
        assert_eq!(inst.num_customers(), 200);
        assert_eq!(inst.num_vendors(), 20);
        assert_eq!(inst.num_ad_types(), 3);
        for c in inst.customers() {
            assert!((1..=5).contains(&c.capacity));
            assert!((0.1..=0.5).contains(&c.view_probability));
            assert!((0.0..=1.0).contains(&c.location.x));
            assert!((0.0..=1.0).contains(&c.location.y));
        }
        for v in inst.vendors() {
            assert!((0.02..=0.03).contains(&v.radius));
            let b = v.budget.as_dollars();
            assert!((10.0..=20.0).contains(&b), "budget {b}");
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = small();
        let a = generate_synthetic(&cfg);
        let b = generate_synthetic(&cfg);
        assert_eq!(a.customers().len(), b.customers().len());
        for (x, y) in a.customers().iter().zip(b.customers()) {
            assert_eq!(x.location, y.location);
            assert_eq!(x.capacity, y.capacity);
        }
        let mut cfg2 = small();
        cfg2.seed += 1;
        let c = generate_synthetic(&cfg2);
        assert!(a
            .customers()
            .iter()
            .zip(c.customers())
            .any(|(x, y)| x.location != y.location));
    }

    #[test]
    fn customer_locations_cluster_around_center() {
        // With sd = 1 over a unit box, clamping pushes plenty of mass to
        // the borders, but the raw mean should still be ~0.5.
        let cfg = SyntheticConfig {
            customers: 3000,
            vendors: 1,
            ..Default::default()
        };
        let inst = generate_synthetic(&cfg);
        let mean_x: f64 = inst.customers().iter().map(|c| c.location.x).sum::<f64>()
            / inst.num_customers() as f64;
        assert!((mean_x - 0.5).abs() < 0.05, "mean x {mean_x}");
    }

    #[test]
    fn arrivals_are_nondecreasing() {
        let inst = generate_synthetic(&small());
        let hours: Vec<f64> = inst.customers().iter().map(|c| c.arrival.hours()).collect();
        assert!(hours.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn similarities_are_spread_not_degenerate() {
        use muaa_core::{PearsonUtility, UtilityModel};
        let cfg = small();
        let inst = generate_synthetic(&cfg);
        let model = PearsonUtility::uniform(cfg.tags);
        let mut positive = 0usize;
        let mut total = 0usize;
        for (cid, c) in inst.customers_enumerated().take(50) {
            for (vid, v) in inst.vendors_enumerated() {
                let s = model.similarity(cid, c, vid, v);
                assert!((0.0..=1.0).contains(&s));
                total += 1;
                if s > 0.0 {
                    positive += 1;
                }
            }
        }
        // The planted cluster structure should make a sizable fraction
        // of pairs positively similar (and a sizable fraction not).
        let frac = positive as f64 / total as f64;
        assert!(
            frac > 0.2 && frac < 0.95,
            "positive-similarity fraction {frac}"
        );
    }
}
