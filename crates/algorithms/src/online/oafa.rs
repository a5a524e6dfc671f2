//! O-AFA: the Online Adaptive Factor-Aware algorithm (paper Alg. 2).
//!
//! Per arriving customer `u_i`:
//!
//! 1. retrieve the valid vendors `V'` (spatial constraint);
//! 2. per vendor, pick the "best" ad type — highest budget efficiency
//!    `γ_ijk` among the types the vendor's remaining budget affords;
//! 3. keep the candidate iff `γ_ijk ≥ φ(δ_j^{(i)})` where `δ_j^{(i)}`
//!    is the vendor's used-budget ratio at this arrival;
//! 4. commit the top-`a_i` surviving candidates by efficiency.
//!
//! With the adaptive threshold of Corollary IV.1 this is
//! `(ln g + 1)/θ`-competitive against the offline optimum.

use crate::context::SolverContext;
use crate::online::threshold::ThresholdFn;
use muaa_core::{AdTypeId, Assignment, AssignmentSet, CustomerId, VendorId};

/// The O-AFA online solver ("ONLINE" in the paper's experiments).
///
/// ```
/// use muaa_algorithms::{run_online, OAfa, SolverContext, ThresholdFn};
/// use muaa_core::*;
///
/// let instance = InstanceBuilder::new()
///     .ad_type(AdType::new("TL", Money::from_dollars(1.0), 0.1))
///     .customer(Customer {
///         location: Point::new(0.5, 0.5),
///         capacity: 1,
///         view_probability: 0.5,
///         interests: TagVector::new(vec![1.0, 0.2]).unwrap(),
///         arrival: Timestamp::MIDNIGHT,
///     })
///     .vendor(Vendor {
///         location: Point::new(0.5, 0.55),
///         radius: 0.2,
///         budget: Money::from_dollars(3.0),
///         tags: TagVector::new(vec![0.9, 0.1]).unwrap(),
///     })
///     .build()
///     .unwrap();
/// let model = PearsonUtility::uniform(2);
/// let ctx = SolverContext::indexed(&instance, &model);
/// // φ(δ) = (γ_min / e) · g^δ with g = e² (Corollary IV.1).
/// let mut solver = OAfa::new(ThresholdFn::adaptive(1e-6, std::f64::consts::E.powi(2)));
/// let outcome = run_online(&mut solver, &ctx);
/// assert_eq!(outcome.assignments.len(), 1);
/// ```
///
/// The solver keeps its candidate buffer across arrivals (emptied after
/// each one, capacity kept), so [`process`](Self::process)
/// allocates only the `Vec` it returns, and only when a candidate
/// survives; on a customer's first serve every survivor commits.
#[derive(Clone, Debug)]
pub struct OAfa {
    threshold: ThresholdFn,
    /// Scratch for one arrival's threshold-passing candidates.
    candidates: Vec<Candidate>,
}

/// A surviving candidate for the current customer.
#[derive(Clone, Copy, Debug)]
struct Candidate {
    vendor: VendorId,
    ad_type: AdTypeId,
    gamma: f64,
}

impl OAfa {
    /// Build with an explicit threshold policy.
    pub fn new(threshold: ThresholdFn) -> Self {
        OAfa {
            threshold,
            candidates: Vec::new(),
        }
    }

    /// The threshold in use.
    pub fn threshold(&self) -> ThresholdFn {
        self.threshold
    }

    /// Replace the threshold policy in place. O-AFA keeps no other
    /// state between arrivals (its candidate buffer is empty between
    /// them), so swapping the policy is the entire
    /// "γ-estimate memo" patch: the broker session calls this after a
    /// delta that reshapes the efficiency landscape (a vendor tag swap)
    /// instead of rebuilding the solver.
    pub fn set_threshold(&mut self, threshold: ThresholdFn) {
        self.threshold = threshold;
    }

    /// Decide the ads pushed to the arriving `customer` and commit them
    /// to `state`. Returns the assignments made for this customer.
    pub fn process(
        &mut self,
        ctx: &SolverContext<'_>,
        state: &mut AssignmentSet,
        customer: CustomerId,
    ) -> Vec<Assignment> {
        let inst = ctx.instance();
        let capacity = inst.customer(customer).capacity as usize;
        if capacity == 0 {
            return Vec::new();
        }

        // Lines 2–6: gather threshold-passing candidates. A vendor whose
        // remaining budget affords no ad type drops out in
        // `best_ad_type` before its pair base is computed.
        let candidates = &mut self.candidates;
        for &vid in ctx.eligible_vendors(customer) {
            let remaining = state.remaining_budget(inst, vid);
            let Some((tid, _lambda, gamma)) = ctx.best_ad_type(customer, vid, remaining) else {
                continue;
            };
            let delta = state.used_budget_ratio(inst, vid);
            if self.threshold.admits(gamma, delta) {
                candidates.push(Candidate {
                    vendor: vid,
                    ad_type: tid,
                    gamma,
                });
            }
        }

        // Lines 7–8: keep the top-a_i by budget efficiency.
        candidates.sort_by(|a, b| b.gamma.total_cmp(&a.gamma).then(a.vendor.cmp(&b.vendor)));
        candidates.truncate(capacity);

        // Commit. Each vendor contributes at most one candidate, so the
        // per-vendor budget checks done at candidate time still hold: on
        // a customer's first serve every survivor commits, and `made`
        // allocates only when one does.
        let mut made = Vec::with_capacity(candidates.len());
        for cand in candidates.drain(..) {
            let a = Assignment::new(customer, cand.vendor, cand.ad_type);
            if state.try_push(inst, a) {
                made.push(a);
            }
        }
        made
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::online::run_online;
    use muaa_core::{
        AdType, Customer, InstanceBuilder, Money, PearsonUtility, Point, ProblemInstance,
        TagVector, Timestamp, Vendor,
    };
    use std::f64::consts::E;

    fn instance(m: usize, budget: f64) -> ProblemInstance {
        InstanceBuilder::new()
            .ad_types([
                AdType::new("TL", Money::from_dollars(1.0), 0.1),
                AdType::new("PL", Money::from_dollars(2.0), 0.4),
            ])
            .customers((0..m).map(|i| Customer {
                location: Point::new(0.5 + 0.001 * i as f64, 0.5),
                capacity: 2,
                view_probability: 0.1 + 0.8 * ((i * 7 % 11) as f64 / 11.0),
                interests: TagVector::new(vec![0.9, 0.1, 0.5]).unwrap(),
                arrival: Timestamp::from_hours(i as f64 * 0.01),
            }))
            .vendors((0..4).map(|j| Vendor {
                location: Point::new(0.45 + 0.03 * j as f64, 0.52),
                radius: 0.3,
                budget: Money::from_dollars(budget),
                tags: TagVector::new(vec![0.8, 0.3, 0.4]).unwrap(),
            }))
            .build()
            .unwrap()
    }

    #[test]
    fn output_is_feasible() {
        let inst = instance(30, 5.0);
        let model = PearsonUtility::uniform(3);
        let ctx = SolverContext::indexed(&inst, &model);
        let mut solver = OAfa::new(ThresholdFn::adaptive(1e-4, E * E));
        let out = run_online(&mut solver, &ctx);
        assert!(out
            .assignments
            .check_feasibility(&inst, &model)
            .is_feasible());
        assert!(out.total_utility > 0.0);
    }

    #[test]
    fn respects_capacity_per_customer() {
        let inst = instance(10, 50.0);
        let model = PearsonUtility::uniform(3);
        let ctx = SolverContext::indexed(&inst, &model);
        let mut solver = OAfa::new(ThresholdFn::Disabled);
        let out = run_online(&mut solver, &ctx);
        for (cid, c) in inst.customers_enumerated() {
            assert!(out.assignments.customer_load(cid) <= c.capacity);
        }
    }

    #[test]
    fn disabled_threshold_spends_more_than_tight_threshold() {
        let inst = instance(60, 3.0);
        let model = PearsonUtility::uniform(3);
        let ctx = SolverContext::indexed(&inst, &model);
        let spend = |t: ThresholdFn| {
            let mut solver = OAfa::new(t);
            run_online(&mut solver, &ctx).assignments.total_spend()
        };
        let none = spend(ThresholdFn::Disabled);
        let tight = spend(ThresholdFn::Static {
            value: f64::INFINITY,
        });
        assert!(none > Money::ZERO);
        assert_eq!(tight, Money::ZERO);
    }

    #[test]
    fn adaptive_threshold_blocks_low_efficiency_late() {
        // With a tiny budget and many customers, the adaptive threshold
        // must leave budget for later high-efficiency customers —
        // verify it filters increasingly as budget is consumed by
        // checking it never overspends and passes feasibility.
        let inst = instance(100, 2.0);
        let model = PearsonUtility::uniform(3);
        let ctx = SolverContext::indexed(&inst, &model);
        let bounds = crate::online::estimate::estimate_gamma_bounds(&ctx, 300, 3).unwrap();
        let mut solver = OAfa::new(ThresholdFn::adaptive(bounds.gamma_min, bounds.g));
        let out = run_online(&mut solver, &ctx);
        for (vid, v) in inst.vendors_enumerated() {
            assert!(out.assignments.vendor_spend(vid) <= v.budget);
        }
    }

    #[test]
    fn committed_instances_passed_the_threshold_at_commit_time() {
        // The key observation of the Theorem IV.1 proof: every instance
        // selected by O-AFA has γ ≥ φ(δ_j) *at the moment of commit*.
        // Replay the stream manually and check each commit.
        let inst = instance(80, 3.0);
        let model = PearsonUtility::uniform(3);
        let ctx = SolverContext::indexed(&inst, &model);
        let bounds = crate::online::estimate::estimate_gamma_bounds(&ctx, 400, 9).unwrap();
        let threshold = ThresholdFn::adaptive(bounds.gamma_min, bounds.g);
        let mut solver = OAfa::new(threshold);
        let mut state = muaa_core::AssignmentSet::new(&inst);
        for (cid, _) in inst.customers_enumerated() {
            // Snapshot δ_j before the customer is processed.
            let deltas: Vec<f64> = inst
                .vendors_enumerated()
                .map(|(vid, _)| state.used_budget_ratio(&inst, vid))
                .collect();
            let made = solver.process(&ctx, &mut state, cid);
            for a in made {
                let gamma = ctx.efficiency(a.customer, a.vendor, a.ad_type);
                let phi = threshold.phi(deltas[a.vendor.index()]);
                assert!(
                    gamma + 1e-12 >= phi,
                    "committed γ {gamma} below φ(δ) {phi} for {a}"
                );
            }
        }
        // And per-vendor used-budget ratios are monotone over the run
        // (they only ever increase), so φ(δ_j) was non-decreasing.
        for (vid, v) in inst.vendors_enumerated() {
            assert!(state.vendor_spend(vid) <= v.budget);
        }
    }

    /// The candidate buffer carries nothing from one arrival to the
    /// next: one solver serving a stream commits exactly what a fresh
    /// solver per arrival commits, with and without a filtering
    /// threshold. Four vendors against capacity 2 leave candidates past
    /// the cut, which a leaked buffer would serve to the next arrival.
    #[test]
    fn reused_solver_matches_a_fresh_one_per_arrival() {
        let inst = instance(60, 3.0);
        let model = PearsonUtility::uniform(3);
        let ctx = SolverContext::indexed(&inst, &model);
        let bounds = crate::online::estimate::estimate_gamma_bounds(&ctx, 300, 3).unwrap();
        for threshold in [
            ThresholdFn::Disabled,
            ThresholdFn::adaptive(bounds.gamma_min, bounds.g),
        ] {
            let mut reused = OAfa::new(threshold);
            let mut kept = AssignmentSet::new(&inst);
            let mut fresh = AssignmentSet::new(&inst);
            for (cid, _) in inst.customers_enumerated() {
                let a = reused.process(&ctx, &mut kept, cid);
                let b = OAfa::new(threshold).process(&ctx, &mut fresh, cid);
                assert_eq!(a, b, "{threshold:?}, customer {cid}");
            }
            assert!(!kept.is_empty(), "{threshold:?} commits ads");
            assert_eq!(kept.assignments(), fresh.assignments());
        }
    }

    #[test]
    fn takes_top_capacity_candidates_by_efficiency() {
        // Single customer with capacity 1 and two valid vendors with
        // very different similarities: only the better one is used.
        let inst = InstanceBuilder::new()
            .ad_types([AdType::new("TL", Money::from_dollars(1.0), 0.1)])
            .customer(Customer {
                location: Point::new(0.5, 0.5),
                capacity: 1,
                view_probability: 0.5,
                interests: TagVector::new(vec![1.0, 0.0, 0.4]).unwrap(),
                arrival: Timestamp::MIDNIGHT,
            })
            .vendors([
                Vendor {
                    location: Point::new(0.5, 0.6),
                    radius: 0.5,
                    budget: Money::from_dollars(2.0),
                    tags: TagVector::new(vec![1.0, 0.0, 0.4]).unwrap(), // perfect match
                },
                Vendor {
                    location: Point::new(0.5, 0.4),
                    radius: 0.5,
                    budget: Money::from_dollars(2.0),
                    tags: TagVector::new(vec![0.5, 0.5, 0.45]).unwrap(), // weaker match
                },
            ])
            .build()
            .unwrap();
        let model = PearsonUtility::uniform(3);
        let ctx = SolverContext::indexed(&inst, &model);
        let mut solver = OAfa::new(ThresholdFn::Disabled);
        let out = run_online(&mut solver, &ctx);
        assert_eq!(out.assignments.len(), 1);
        assert_eq!(out.assignments.assignments()[0].vendor.index(), 0);
    }
}
