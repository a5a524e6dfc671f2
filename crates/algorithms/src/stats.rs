//! Solve outcomes: the assignment set plus the measurements the paper
//! reports (total utility, CPU time).

use crate::context::SolverContext;
use muaa_core::AssignmentSet;
use std::time::Duration;

/// The result of running a solver: the assignment set, its total
/// utility under the context's model, and the wall-clock time taken.
#[derive(Clone, Debug)]
pub struct SolveOutcome {
    /// Solver name (e.g. "RECON", "ONLINE").
    pub solver: String,
    /// The assignment set produced.
    pub assignments: AssignmentSet,
    /// Total utility `λ(I)`.
    pub total_utility: f64,
    /// Wall-clock solve time.
    pub elapsed: Duration,
}

impl SolveOutcome {
    /// Build an outcome, computing the utility from the set.
    pub fn measure(
        solver: impl Into<String>,
        ctx: &SolverContext<'_>,
        assignments: AssignmentSet,
        elapsed: Duration,
    ) -> Self {
        let total_utility = assignments.total_utility(ctx.instance(), ctx.model());
        SolveOutcome {
            solver: solver.into(),
            assignments,
            total_utility,
            elapsed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use muaa_core::{
        AdType, Customer, InstanceBuilder, Money, PearsonUtility, Point, TagVector, Timestamp,
    };

    #[test]
    fn measure_computes_utility() {
        let inst = InstanceBuilder::new()
            .ad_type(AdType::new("TL", Money::from_dollars(1.0), 0.1))
            .customer(Customer {
                location: Point::new(0.5, 0.5),
                capacity: 1,
                view_probability: 0.5,
                interests: TagVector::new(vec![1.0, 0.0]).unwrap(),
                arrival: Timestamp::MIDNIGHT,
            })
            .build()
            .unwrap();
        let model = PearsonUtility::uniform(2);
        let ctx = SolverContext::brute_force(&inst, &model);
        let set = AssignmentSet::new(&inst);
        let out = SolveOutcome::measure("TEST", &ctx, set, Duration::from_millis(10));
        assert_eq!(out.total_utility, 0.0);
        assert_eq!(out.solver, "TEST");
    }
}
