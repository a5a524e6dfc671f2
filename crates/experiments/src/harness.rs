//! The competitor runner: execute the paper's solver lineup on one
//! instance and collect (utility, time) per solver.

use muaa_algorithms::{
    run_online, NaiveGreedy, NearestAssign, OAfa, OfflineSolver, RandomAssign, Recon, SolveOutcome,
    SolverContext, ThresholdFn,
};
use muaa_core::{ProblemInstance, UtilityModel};

/// The paper's competitors in figure order: the labels of
/// [`run_competitors`]' outcomes and of every figure's columns.
pub const COMPETITORS: [&str; 5] = ["RANDOM", "NEAREST", "GREEDY", "RECON", "ONLINE"];

/// Run the five competitors on `instance` under `model` and return
/// their outcomes in figure order ([`COMPETITORS`]).
///
/// GREEDY is [`NaiveGreedy`], whose per-iteration rescan is the cost
/// the paper reports. ONLINE's `γ_min`/`g` are estimated from a
/// 1,000-instance sample of the same context (paper §IV-C); when no
/// positive-efficiency candidate exists the threshold degrades to
/// disabled.
pub fn run_competitors(
    instance: &ProblemInstance,
    model: &dyn UtilityModel,
    seed: u64,
) -> Vec<SolveOutcome> {
    let ctx = SolverContext::indexed(instance, model);
    // In figure order: `vec!` evaluates its elements front to back.
    vec![
        RandomAssign::seeded(seed).run(&ctx),
        NearestAssign.run(&ctx),
        NaiveGreedy.run(&ctx),
        Recon::new().with_seed(seed).run(&ctx),
        run_online(
            &mut OAfa::new(ThresholdFn::estimated(&ctx, 1_000, seed)),
            &ctx,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use muaa_core::PearsonUtility;
    use muaa_datagen::{generate_synthetic, SyntheticConfig};

    fn tiny_instance() -> (ProblemInstance, PearsonUtility) {
        let cfg = SyntheticConfig {
            customers: 300,
            vendors: 30,
            radius: muaa_datagen::Range::new(0.05, 0.1),
            ..Default::default()
        };
        let tags = cfg.tags;
        (generate_synthetic(&cfg), PearsonUtility::uniform(tags))
    }

    #[test]
    fn full_lineup_runs_in_figure_order() {
        let (inst, model) = tiny_instance();
        let results = run_competitors(&inst, &model, 1);
        let labels: Vec<&str> = results.iter().map(|r| r.solver.as_str()).collect();
        assert_eq!(labels, COMPETITORS);
        for r in &results {
            assert!(r.total_utility.is_finite());
        }
    }

    #[test]
    fn smart_solvers_beat_random() {
        let (inst, model) = tiny_instance();
        let results = run_competitors(&inst, &model, 2);
        let get = |name: &str| {
            let r = results.iter().find(|r| r.solver == name).unwrap();
            r.total_utility
        };
        assert!(get("RECON") > get("RANDOM"), "recon should beat random");
        assert!(get("GREEDY") > get("RANDOM"), "greedy should beat random");
    }
}
