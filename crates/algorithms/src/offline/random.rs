//! The RANDOM baseline: randomly assign vendors' ads to valid
//! customers under the budget constraint (paper §V-A).

use crate::context::SolverContext;
use crate::offline::OfflineSolver;
use muaa_core::{Assignment, AssignmentSet, DetRng};

/// RANDOM: for each customer (in arrival order), pick random valid
/// vendors up to the customer's capacity and a random affordable ad
/// type per pick. No utility information is consulted — exactly the
/// paper's strawman. Draws come from [`DetRng`], so the baseline's
/// stream (and the golden experiment CSVs it feeds) is identical in
/// every build environment. Each [`assign`](OfflineSolver::assign)
/// draws a fresh stream from the seed, so one value returns one plan.
#[derive(Clone, Copy, Debug)]
pub struct RandomAssign {
    seed: u64,
}

impl RandomAssign {
    /// Deterministic baseline from a seed.
    pub fn seeded(seed: u64) -> Self {
        RandomAssign { seed }
    }
}

impl Default for RandomAssign {
    fn default() -> Self {
        Self::seeded(0x5eed)
    }
}

impl OfflineSolver for RandomAssign {
    fn assign(&self, ctx: &SolverContext<'_>) -> AssignmentSet {
        let inst = ctx.instance();
        let mut rng = DetRng::seed_from_u64(self.seed);
        let mut set = AssignmentSet::new(inst);
        for (cid, customer) in inst.customers_enumerated() {
            let mut vendors = ctx.valid_vendors(cid);
            rng.shuffle(&mut vendors);
            let mut granted = 0u32;
            for vid in vendors {
                if granted >= customer.capacity {
                    break;
                }
                // Random affordable ad type.
                let remaining = set.remaining_budget(inst, vid);
                let affordable: Vec<_> = inst
                    .ad_types_enumerated()
                    .filter(|(_, t)| t.cost <= remaining)
                    .map(|(tid, _)| tid)
                    .collect();
                if affordable.is_empty() {
                    continue;
                }
                let tid = affordable[rng.gen_range_usize(affordable.len())];
                if set.try_push(inst, Assignment::new(cid, vid, tid)) {
                    granted += 1;
                }
            }
        }
        set
    }

    fn name(&self) -> &'static str {
        "RANDOM"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use muaa_core::{
        AdType, Customer, InstanceBuilder, Money, PearsonUtility, Point, ProblemInstance,
        TagVector, Timestamp, Vendor,
    };

    fn instance() -> ProblemInstance {
        InstanceBuilder::new()
            .ad_types([
                AdType::new("TL", Money::from_dollars(1.0), 0.1),
                AdType::new("PL", Money::from_dollars(2.0), 0.4),
            ])
            .customers((0..10).map(|i| Customer {
                location: Point::new(0.1 * i as f64, 0.5),
                capacity: 2,
                view_probability: 0.5,
                interests: TagVector::new(vec![1.0, 0.2]).unwrap(),
                arrival: Timestamp::from_hours(i as f64),
            }))
            .vendors((0..3).map(|j| Vendor {
                location: Point::new(0.3 * j as f64, 0.5),
                radius: 0.4,
                budget: Money::from_dollars(3.0),
                tags: TagVector::new(vec![0.9, 0.1]).unwrap(),
            }))
            .build()
            .unwrap()
    }

    #[test]
    fn random_output_is_feasible() {
        let inst = instance();
        let model = PearsonUtility::uniform(2);
        let ctx = SolverContext::indexed(&inst, &model);
        let out = RandomAssign::seeded(1).run(&ctx);
        assert!(out
            .assignments
            .check_feasibility(&inst, &model)
            .is_feasible());
        assert!(!out.assignments.is_empty());
    }

    #[test]
    fn same_seed_is_deterministic() {
        let inst = instance();
        let model = PearsonUtility::uniform(2);
        let ctx = SolverContext::indexed(&inst, &model);
        let a = RandomAssign::seeded(7).assign(&ctx);
        let b = RandomAssign::seeded(7).assign(&ctx);
        assert_eq!(a.assignments(), b.assignments());
    }

    #[test]
    fn one_value_assigns_the_same_plan_twice() {
        let inst = instance();
        let model = PearsonUtility::uniform(2);
        let ctx = SolverContext::indexed(&inst, &model);
        let solver = RandomAssign::seeded(7);
        let a = solver.assign(&ctx);
        let b = solver.assign(&ctx);
        assert_eq!(a.assignments(), b.assignments());
    }

    #[test]
    fn different_seeds_usually_differ() {
        let inst = instance();
        let model = PearsonUtility::uniform(2);
        let ctx = SolverContext::indexed(&inst, &model);
        let a = RandomAssign::seeded(1).assign(&ctx);
        let b = RandomAssign::seeded(2).assign(&ctx);
        // Not a hard guarantee, but with 10 customers × 3 vendors the
        // probability of identical picks is negligible.
        assert_ne!(a.assignments(), b.assignments());
    }

    #[test]
    fn respects_capacity() {
        let inst = instance();
        let model = PearsonUtility::uniform(2);
        let ctx = SolverContext::indexed(&inst, &model);
        let set = RandomAssign::seeded(3).assign(&ctx);
        for (cid, c) in inst.customers_enumerated() {
            assert!(set.customer_load(cid) <= c.capacity);
        }
    }
}
