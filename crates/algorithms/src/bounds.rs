//! Cheap, valid upper bounds on the MUAA optimum.
//!
//! The exact branch-and-bound solver is limited to toy instances, but
//! solution *quality* should be measurable at experiment scale too.
//! Two relaxations of Definition 5 each yield a certified upper bound
//! on `λ(I_opt)`, and their minimum is reported:
//!
//! * **Vendor relaxation** — drop the customer-capacity coupling:
//!   the optimum restricted to any single vendor is feasible for that
//!   vendor's single-vendor MCKP, so
//!   `OPT ≤ Σ_j LP_j` where `LP_j` is the LP bound of vendor `j`'s
//!   MCKP (computed by [`MckpLpGreedy::solve_detailed`]).
//! * **Customer relaxation** — drop the vendor budgets: each customer
//!   `u_i` can collect at most its top `a_i` pair utilities (best ad
//!   type per valid vendor, one ad per pair), so
//!   `OPT ≤ Σ_i (sum of top-a_i utilities of u_i)`.
//!
//! The gap `RECON / min(bound)` is a *lower bound on the true
//! approximation quality* — the solver can only be closer to the real
//! optimum than to the bound.

use crate::context::SolverContext;
use muaa_knapsack::{MckpItem, MckpLpGreedy, MckpProblem};

/// Both relaxation bounds plus their minimum.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct UpperBounds {
    /// `Σ_j LP_j`: budgets enforced, capacities relaxed.
    pub vendor_relaxation: f64,
    /// `Σ_i top-a_i`: capacities enforced, budgets relaxed.
    pub customer_relaxation: f64,
}

impl UpperBounds {
    /// The tighter (smaller) of the two bounds.
    pub fn best(&self) -> f64 {
        self.vendor_relaxation.min(self.customer_relaxation)
    }
}

/// Compute both upper bounds for an instance.
pub fn upper_bounds(ctx: &SolverContext<'_>) -> UpperBounds {
    let inst = ctx.instance();

    // --- Vendor relaxation: per-vendor LP bounds. ---
    let mut vendor_bound = 0.0;
    for (vid, vendor) in inst.vendors_enumerated() {
        let valid = ctx.eligible_customers(vid);
        if valid.is_empty() {
            continue;
        }
        let mut problem = MckpProblem::new(vendor.budget.as_cents());
        for &cid in valid {
            let base = ctx.pair_base(cid, vid);
            if base <= 0.0 {
                continue;
            }
            problem.add_class(
                inst.ad_types()
                    .iter()
                    .map(|t| MckpItem::new(t.cost.as_cents(), (base * t.effectiveness).max(0.0)))
                    .collect(),
            );
        }
        vendor_bound += MckpLpGreedy.solve_detailed(&problem).lp_bound;
    }

    // --- Customer relaxation: top-a_i pair utilities per customer. ---
    // The best ad type per pair is the max-β type (utility is base·β
    // and budgets are relaxed).
    let beta_max = inst
        .ad_types()
        .iter()
        .map(|t| t.effectiveness)
        .fold(0.0_f64, f64::max);
    let mut customer_bound = 0.0;
    let mut utilities: Vec<f64> = Vec::new();
    for (cid, customer) in inst.customers_enumerated() {
        utilities.clear();
        for &vid in ctx.eligible_vendors(cid) {
            let base = ctx.pair_base(cid, vid);
            if base > 0.0 {
                utilities.push(base * beta_max);
            }
        }
        let a = customer.capacity as usize;
        if utilities.len() > a {
            // Partial selection of the a largest.
            utilities.select_nth_unstable_by(a - 1, |x, y| y.total_cmp(x));
            utilities.truncate(a);
        }
        // Serial pre-pass in arrival order; the bound feeds golden
        // CSVs, so this summation order is pinned and never re-chunked
        // by the thread pool.
        customer_bound += utilities.iter().sum::<f64>();
    }

    UpperBounds {
        vendor_relaxation: vendor_bound,
        customer_relaxation: customer_bound,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::offline::exact::ExactBnB;
    use crate::offline::recon::Recon;
    use crate::offline::OfflineSolver;
    use muaa_core::{
        AdType, Customer, DetRng, InstanceBuilder, Money, PearsonUtility, Point, ProblemInstance,
        TagVector, Timestamp, Vendor,
    };

    fn random_instance(m: usize, n: usize, seed: u64) -> ProblemInstance {
        let mut rng = DetRng::seed_from_u64(seed);
        InstanceBuilder::new()
            .ad_types([
                AdType::new("TL", Money::from_dollars(1.0), 0.1),
                AdType::new("PL", Money::from_dollars(2.0), 0.4),
            ])
            .customers((0..m).map(|i| Customer {
                location: Point::new(rng.gen_f64(), rng.gen_f64()),
                capacity: rng.gen_range(1, 3) as u32,
                view_probability: rng.gen_range_f64(0.1, 0.9),
                interests: TagVector::new_unchecked(vec![
                    rng.gen_f64(),
                    rng.gen_f64(),
                    rng.gen_f64(),
                ]),
                arrival: Timestamp::from_hours(i as f64),
            }))
            .vendors((0..n).map(|_| Vendor {
                location: Point::new(rng.gen_f64(), rng.gen_f64()),
                radius: rng.gen_range_f64(0.3, 0.9),
                budget: Money::from_dollars(rng.gen_range_f64(2.0, 5.0)),
                tags: TagVector::new_unchecked(vec![rng.gen_f64(), rng.gen_f64(), rng.gen_f64()]),
            }))
            .build()
            .unwrap()
    }

    #[test]
    fn bounds_dominate_the_exact_optimum() {
        let model = PearsonUtility::uniform(3);
        for seed in 0..10 {
            let inst = random_instance(4, 3, seed);
            let ctx = SolverContext::brute_force(&inst, &model);
            let opt = ExactBnB::new().run(&ctx).total_utility;
            let bounds = upper_bounds(&ctx);
            assert!(
                bounds.vendor_relaxation + 1e-9 >= opt,
                "seed {seed}: vendor bound {} < opt {opt}",
                bounds.vendor_relaxation
            );
            assert!(
                bounds.customer_relaxation + 1e-9 >= opt,
                "seed {seed}: customer bound {} < opt {opt}",
                bounds.customer_relaxation
            );
            assert!(bounds.best() + 1e-9 >= opt);
        }
    }

    #[test]
    fn bounds_dominate_recon_at_scale() {
        let model = PearsonUtility::uniform(3);
        let inst = random_instance(300, 20, 99);
        let ctx = SolverContext::indexed(&inst, &model);
        let recon = Recon::new().run(&ctx).total_utility;
        let bounds = upper_bounds(&ctx);
        assert!(
            bounds.best() >= recon,
            "bound {} vs recon {recon}",
            bounds.best()
        );
        // The bound should be within a sane factor, not vacuous.
        assert!(
            bounds.best() <= 10.0 * recon.max(1e-9),
            "bound too loose: {bounds:?}"
        );
    }

    #[test]
    fn which_bound_is_tighter_depends_on_the_binding_constraint() {
        let model = PearsonUtility::uniform(3);
        // Budget-starved: tiny budgets make the vendor relaxation tight.
        let mut rng = DetRng::seed_from_u64(5);
        let starved = InstanceBuilder::new()
            .ad_types([AdType::new("TL", Money::from_dollars(1.0), 0.1)])
            .customers((0..50).map(|i| Customer {
                location: Point::new(rng.gen_f64(), rng.gen_f64()),
                capacity: 5,
                view_probability: 0.5,
                interests: TagVector::new_unchecked(vec![
                    rng.gen_f64(),
                    rng.gen_f64(),
                    rng.gen_f64(),
                ]),
                arrival: Timestamp::from_hours(i as f64),
            }))
            .vendor(Vendor {
                location: Point::new(0.5, 0.5),
                radius: 1.0,
                budget: Money::from_dollars(1.0), // one ad total
                tags: TagVector::new_unchecked(vec![0.9, 0.5, 0.1]),
            })
            .build()
            .unwrap();
        let ctx = SolverContext::brute_force(&starved, &model);
        let b = upper_bounds(&ctx);
        assert!(
            b.vendor_relaxation < b.customer_relaxation,
            "budget-starved: vendor bound {} should be tighter than customer bound {}",
            b.vendor_relaxation,
            b.customer_relaxation
        );
    }

    #[test]
    fn empty_instance_has_zero_bounds() {
        let inst = InstanceBuilder::new()
            .ad_type(AdType::new("TL", Money::from_dollars(1.0), 0.1))
            .build()
            .unwrap();
        let model = PearsonUtility::uniform(0);
        let ctx = SolverContext::indexed(&inst, &model);
        let b = upper_bounds(&ctx);
        assert_eq!(b.vendor_relaxation, 0.0);
        assert_eq!(b.customer_relaxation, 0.0);
        assert_eq!(b.best(), 0.0);
    }
}
