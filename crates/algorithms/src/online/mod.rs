//! Online MUAA solving: customers arrive one at a time (in the
//! instance's arrival order) and decisions are irrevocable.

pub mod estimate;
pub mod oafa;
pub mod session;
pub mod threshold;

use crate::context::SolverContext;
use crate::online::oafa::OAfa;
use crate::stats::SolveOutcome;
use muaa_core::clock::Stopwatch;
use muaa_core::AssignmentSet;

/// Stream every customer of the instance through O-AFA in arrival
/// order, measuring total wall-clock time.
pub fn run_online(solver: &mut OAfa, ctx: &SolverContext<'_>) -> SolveOutcome {
    let inst = ctx.instance();
    let sw = Stopwatch::start();
    let mut state = AssignmentSet::new(inst);
    for (cid, _) in inst.customers_enumerated() {
        solver.process(ctx, &mut state, cid);
    }
    let elapsed = sw.elapsed();
    debug_assert!(
        state.check_feasibility(inst, ctx.model()).is_feasible(),
        "ONLINE produced an infeasible assignment set"
    );
    SolveOutcome::measure("ONLINE", ctx, state, elapsed)
}
