//! Empirical approximation / competitive ratios (paper §II-D).
//!
//! Theorem III.1 bounds RECON at `(1−ε)·θ` of the optimum and
//! Corollary IV.1 bounds O-AFA at `θ/(ln g + 1)` (rewriting the
//! `σ < 1` form of Definition 7). These are worst-case bounds; this
//! experiment measures the *empirical* ratios on small random
//! instances where the branch-and-bound optimum is computable, and
//! verifies the theoretical bound `RECON ≥ (1−ε)·θ·OPT` instance by
//! instance.

use crate::report::Table;
use muaa_algorithms::{
    run_online, ExactBnB, Greedy, OAfa, OfflineSolver, RandomAssign, Recon, SolverContext,
    ThresholdFn,
};
use muaa_core::{DetRng, Money, PearsonUtility, ProblemInstance, TagVector, Timestamp};
use muaa_datagen::dist::paper_range_sample;

/// Per-solver ratio statistics across trials.
#[derive(Clone, Debug)]
pub struct RatioStats {
    /// Solver label.
    pub solver: String,
    /// Minimum observed `λ(I)/λ(I_opt)`.
    pub min: f64,
    /// Mean observed ratio.
    pub mean: f64,
}

/// The ratio experiment output: stats per solver plus the smallest
/// theoretical bound `(1−ε)·θ` observed (for context in reports).
#[derive(Clone, Debug)]
pub struct RatioReport {
    /// Ratio statistics per solver.
    pub stats: Vec<RatioStats>,
    /// The minimum over trials of the theoretical bound `(1−ε)·θ`.
    pub min_theoretical_bound: f64,
    /// Number of trials run.
    pub trials: usize,
}

/// Small random instance for which `ExactBnB` is fast: ≤ 5 customers,
/// ≤ 4 vendors, radii large enough to create contention.
fn small_instance(rng: &mut DetRng) -> ProblemInstance {
    let m = rng.gen_range(3, 6);
    let n = rng.gen_range(2, 5);
    muaa_core::InstanceBuilder::new()
        .ad_types(muaa_datagen::adtypes::paper_table1())
        .customers((0..m).map(|i| muaa_core::Customer {
            location: muaa_core::Point::new(rng.gen_f64(), rng.gen_f64()),
            capacity: rng.gen_range(1, 3) as u32,
            view_probability: paper_range_sample(rng, 0.1, 0.9),
            interests: TagVector::new_unchecked(vec![
                rng.gen_f64(),
                rng.gen_f64(),
                rng.gen_f64(),
                rng.gen_f64(),
            ]),
            arrival: Timestamp::from_hours(i as f64),
        }))
        .vendors((0..n).map(|_| muaa_core::Vendor {
            location: muaa_core::Point::new(rng.gen_f64(), rng.gen_f64()),
            radius: rng.gen_range_f64(0.4, 1.2),
            budget: Money::from_dollars(paper_range_sample(rng, 2.0, 5.0)),
            tags: TagVector::new_unchecked(vec![
                rng.gen_f64(),
                rng.gen_f64(),
                rng.gen_f64(),
                rng.gen_f64(),
            ]),
        }))
        .build()
        .expect("valid random instance")
}

/// Compute `θ = min_i a_i / n_i^c` where `n_i^c = max(#valid vendors
/// of u_i, a_i)` (Theorem III.1).
pub fn theta(ctx: &SolverContext<'_>) -> f64 {
    let inst = ctx.instance();
    let mut theta = 1.0_f64;
    for (cid, c) in inst.customers_enumerated() {
        let valid = ctx.valid_vendors(cid).len();
        let n_c = valid.max(c.capacity as usize).max(1);
        theta = theta.min(c.capacity as f64 / n_c as f64);
    }
    theta
}

/// Run the ratio experiment.
pub fn run(trials: usize, seed: u64) -> RatioReport {
    let mut rng = DetRng::seed_from_u64(seed);
    let model = PearsonUtility::uniform(4);
    let solvers = ["RECON", "GREEDY", "ONLINE", "RANDOM"];
    let mut sums = vec![0.0_f64; solvers.len()];
    let mut mins = vec![f64::INFINITY; solvers.len()];
    let mut min_bound = f64::INFINITY;
    let mut done = 0usize;

    while done < trials {
        let inst = small_instance(&mut rng);
        let ctx = SolverContext::brute_force(&inst, &model);
        let opt = ExactBnB::new().run(&ctx).total_utility;
        if opt <= 1e-12 {
            continue; // degenerate instance: no positive-utility pair
        }
        let th = theta(&ctx);
        // ε = 0 bound for the exact backend; LP-greedy's practical ε is
        // tiny, so (1−ε)·θ ≈ θ here.
        min_bound = min_bound.min(th);

        let recon = Recon::new()
            .with_backend(muaa_algorithms::MckpBackend::ExactDp)
            .run(&ctx)
            .total_utility;
        let greedy = Greedy.run(&ctx).total_utility;
        let mut oafa = OAfa::new(ThresholdFn::estimated(&ctx, 200, seed + done as u64));
        let online = run_online(&mut oafa, &ctx).total_utility;
        let random = RandomAssign::seeded(seed + done as u64)
            .run(&ctx)
            .total_utility;

        // Theorem III.1 must hold instance-by-instance for the exact
        // backend (ε = 0): λ(RECON) ≥ θ · λ(OPT).
        assert!(
            recon + 1e-9 >= th * opt,
            "Theorem III.1 violated: recon {recon} < θ({th}) · opt({opt})"
        );

        for (i, &val) in [recon, greedy, online, random].iter().enumerate() {
            let ratio = val / opt;
            sums[i] += ratio;
            mins[i] = mins[i].min(ratio);
        }
        done += 1;
    }

    RatioReport {
        stats: solvers
            .iter()
            .enumerate()
            .map(|(i, &s)| RatioStats {
                solver: s.to_string(),
                min: mins[i],
                mean: sums[i] / trials as f64,
            })
            .collect(),
        min_theoretical_bound: min_bound,
        trials,
    }
}

/// Render the ratio report as a [`Table`].
pub fn to_table(report: &RatioReport) -> Table {
    let mut t = Table::new(
        format!(
            "Empirical ratios vs EXACT over {} small instances (min theoretical bound θ = {:.3})",
            report.trials, report.min_theoretical_bound
        ),
        "solver",
        vec!["min ratio".into(), "mean ratio".into()],
    );
    for s in &report.stats {
        t.push_row(s.solver.clone(), vec![s.min, s.mean]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_are_within_bounds() {
        let report = run(6, 42);
        assert_eq!(report.trials, 6);
        for s in &report.stats {
            // RANDOM may legitimately score 0 (it can pick zero-utility
            // ads); the utility-aware solvers must stay strictly positive.
            let floor = if s.solver == "RANDOM" {
                0.0
            } else {
                f64::MIN_POSITIVE
            };
            assert!(
                s.min >= floor && s.min <= 1.0 + 1e-9,
                "{}: min {}",
                s.solver,
                s.min
            );
            assert!(s.mean <= 1.0 + 1e-9);
            assert!(s.mean >= s.min - 1e-12);
        }
        // Exact-backend RECON on tiny instances should be close to OPT.
        let recon = report.stats.iter().find(|s| s.solver == "RECON").unwrap();
        assert!(recon.mean > 0.8, "recon mean ratio {}", recon.mean);
    }

    #[test]
    fn theta_is_in_unit_interval() {
        let mut rng = DetRng::seed_from_u64(5);
        let model = PearsonUtility::uniform(4);
        for _ in 0..5 {
            let inst = small_instance(&mut rng);
            let ctx = SolverContext::brute_force(&inst, &model);
            let th = theta(&ctx);
            assert!(th > 0.0 && th <= 1.0);
        }
    }

    #[test]
    fn table_rendering_includes_every_solver() {
        let report = run(3, 9);
        let t = to_table(&report);
        let s = t.render();
        for name in ["RECON", "GREEDY", "ONLINE", "RANDOM"] {
            assert!(s.contains(name));
        }
    }
}
