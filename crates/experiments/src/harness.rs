//! The competitor runner: execute the paper's solver lineup on one
//! instance and collect (utility, time) per solver.

use muaa_algorithms::online::baselines::{OnlineNearest, OnlineRandom};
use muaa_algorithms::{
    estimate_gamma_bounds, NaiveGreedy, OAfa, OfflineSolver, RandomAssign, Recon, SolverContext,
    ThresholdFn,
};
use muaa_core::{ProblemInstance, UtilityModel};

/// One solver's measurement on one instance.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Solver label as used in the paper's figures.
    pub solver: String,
    /// Total utility `λ(I)`.
    pub utility: f64,
    /// Wall-clock seconds for the whole instance.
    pub seconds: f64,
    /// Number of assignments made.
    pub assignments: usize,
}

/// Which competitors to run. The full paper lineup is
/// `RANDOM, NEAREST, GREEDY, RECON, ONLINE` (figure order).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CompetitorSet {
    /// Run the RANDOM baseline.
    pub random: bool,
    /// Run the NEAREST baseline.
    pub nearest: bool,
    /// Run GREEDY (the paper-faithful per-iteration rescan variant).
    pub greedy: bool,
    /// Run RECON.
    pub recon: bool,
    /// Run ONLINE (O-AFA).
    pub online: bool,
}

impl CompetitorSet {
    /// Every competitor of the paper's figures.
    pub fn all() -> Self {
        CompetitorSet {
            random: true,
            nearest: true,
            greedy: true,
            recon: true,
            online: true,
        }
    }

    /// Every competitor but GREEDY, whose per-iteration rescan is the
    /// slow one: keeps the figure modules' unit tests quick.
    #[cfg(test)]
    pub(crate) fn without_greedy() -> Self {
        CompetitorSet {
            random: true,
            nearest: true,
            greedy: false,
            recon: true,
            online: true,
        }
    }

    /// Column labels in figure order for the enabled competitors.
    pub fn labels(&self) -> Vec<String> {
        let mut v = Vec::new();
        if self.random {
            v.push("RANDOM".to_string());
        }
        if self.nearest {
            v.push("NEAREST".to_string());
        }
        if self.greedy {
            v.push("GREEDY".to_string());
        }
        if self.recon {
            v.push("RECON".to_string());
        }
        if self.online {
            v.push("ONLINE".to_string());
        }
        v
    }
}

/// Run the enabled competitors on `instance` under `model` and return
/// results in figure order ([`CompetitorSet::labels`] order).
///
/// ONLINE's `γ_min`/`g` are estimated from a 1,000-instance sample of
/// the same context (paper §IV-C); when no positive-efficiency
/// candidate exists the threshold degrades to disabled.
pub fn run_competitors(
    instance: &ProblemInstance,
    model: &dyn UtilityModel,
    set: CompetitorSet,
    seed: u64,
) -> Vec<RunResult> {
    let ctx = SolverContext::indexed(instance, model);
    let mut results = Vec::new();

    if set.random {
        results.push(to_result(RandomAssign::seeded(seed).run(&ctx)));
    }
    if set.nearest {
        let mut solver = OnlineNearest;
        results.push(to_result(muaa_algorithms::run_online(&mut solver, &ctx)));
    }
    if set.greedy {
        results.push(to_result(NaiveGreedy.run(&ctx)));
    }
    if set.recon {
        results.push(to_result(Recon::new().with_seed(seed).run(&ctx)));
    }
    if set.online {
        let threshold = match estimate_gamma_bounds(&ctx, 1_000, seed) {
            Some(b) => ThresholdFn::adaptive(b.gamma_min, b.g),
            None => ThresholdFn::Disabled,
        };
        let mut solver = OAfa::new(threshold);
        results.push(to_result(muaa_algorithms::run_online(&mut solver, &ctx)));
    }
    results
}

/// Run only the RANDOM online baseline — used by tests and ablations.
pub fn run_online_random(
    instance: &ProblemInstance,
    model: &dyn UtilityModel,
    seed: u64,
) -> RunResult {
    let ctx = SolverContext::indexed(instance, model);
    let mut solver = OnlineRandom::seeded(seed);
    to_result(muaa_algorithms::run_online(&mut solver, &ctx))
}

fn to_result(outcome: muaa_algorithms::SolveOutcome) -> RunResult {
    RunResult {
        solver: outcome.solver.clone(),
        utility: outcome.total_utility,
        seconds: outcome.elapsed.as_secs_f64(),
        assignments: outcome.assignments.len(),
    }
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
        let results = run_competitors(&inst, &model, CompetitorSet::all(), 1);
        let labels: Vec<&str> = results.iter().map(|r| r.solver.as_str()).collect();
        assert_eq!(
            labels,
            vec!["RANDOM", "NEAREST", "GREEDY", "RECON", "ONLINE"]
        );
        for r in &results {
            assert!(r.utility.is_finite());
            assert!(r.seconds >= 0.0);
        }
    }

    #[test]
    fn smart_solvers_beat_random() {
        let (inst, model) = tiny_instance();
        let results = run_competitors(&inst, &model, CompetitorSet::all(), 2);
        let get = |name: &str| results.iter().find(|r| r.solver == name).unwrap().utility;
        assert!(get("RECON") > get("RANDOM"), "recon should beat random");
        assert!(get("GREEDY") > get("RANDOM"), "greedy should beat random");
    }

    #[test]
    fn online_random_baseline_is_deterministic_per_seed() {
        let (inst, model) = tiny_instance();
        let a = run_online_random(&inst, &model, 5);
        let b = run_online_random(&inst, &model, 5);
        assert_eq!(a.solver, "RANDOM");
        assert_eq!(a.utility, b.utility);
        assert_eq!(a.assignments, b.assignments);
        assert!(a.seconds >= 0.0);
    }

    #[test]
    fn subset_selection_respected() {
        let (inst, model) = tiny_instance();
        let set = CompetitorSet {
            random: true,
            nearest: false,
            greedy: false,
            recon: false,
            online: true,
        };
        let results = run_competitors(&inst, &model, set, 3);
        assert_eq!(
            set.labels(),
            vec!["RANDOM".to_string(), "ONLINE".to_string()]
        );
        assert_eq!(results.len(), 2);
        assert_eq!(results[1].solver, "ONLINE");
    }
}
