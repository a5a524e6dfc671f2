//! Cross-crate integration: online vs offline behaviour, determinism,
//! and the competitive-ratio bookkeeping of §IV.

use muaa::prelude::*;
use std::f64::consts::E;

fn workload(customers: usize, vendors: usize, budget: (f64, f64), seed: u64) -> ProblemInstance {
    generate_synthetic(&SyntheticConfig {
        customers,
        vendors,
        budget: Range::new(budget.0, budget.1),
        radius: Range::new(0.05, 0.12),
        seed,
        ..Default::default()
    })
}

#[test]
fn online_never_beats_offline_exact_on_small_instances() {
    for seed in [1, 2, 3] {
        let inst = workload(8, 3, (2.0, 4.0), seed);
        let model = PearsonUtility::uniform(8);
        let ctx = SolverContext::brute_force(&inst, &model);
        let exact = ExactBnB::new().run(&ctx).total_utility;
        let mut solver = OAfa::new(ThresholdFn::Disabled);
        let online = run_online(&mut solver, &ctx).total_utility;
        assert!(
            online <= exact + 1e-9,
            "seed {seed}: online {online} vs exact {exact}"
        );
    }
}

#[test]
fn empirical_competitive_ratio_respects_corollary_iv1() {
    // λ(ONLINE) ≥ θ/(ln g + 1) · λ(OPT) must hold for the adaptive
    // threshold under the theory's assumptions. The assumptions
    // (instance costs ≪ budgets, γ ≥ γ_min known) are approximations
    // here, so we check the bound with a small safety slack and, more
    // importantly, that the *measured* ratio is far above it.
    let mut worst_ratio = f64::INFINITY;
    let mut worst_bound = 0.0;
    for seed in 10..16 {
        let inst = workload(10, 3, (3.0, 6.0), seed);
        let model = PearsonUtility::uniform(8);
        let ctx = SolverContext::brute_force(&inst, &model);
        let opt = ExactBnB::new().run(&ctx).total_utility;
        if opt <= 1e-12 {
            continue;
        }
        let Some(bounds) = estimate_gamma_bounds(&ctx, 400, seed) else {
            continue;
        };
        let mut solver = OAfa::new(ThresholdFn::adaptive(bounds.gamma_min, bounds.g));
        let online = run_online(&mut solver, &ctx).total_utility;
        let theta = muaa::experiments::figures::ratios::theta(&ctx);
        let bound = theta / (bounds.g.ln() + 1.0);
        let ratio = online / opt;
        if ratio < worst_ratio {
            worst_ratio = ratio;
            worst_bound = bound;
        }
    }
    assert!(
        worst_ratio >= worst_bound * 0.5,
        "measured worst ratio {worst_ratio} far below theoretical bound {worst_bound}"
    );
}

#[test]
fn online_outcomes_are_reproducible() {
    let inst = workload(500, 30, (5.0, 10.0), 77);
    let model = PearsonUtility::uniform(8);
    let ctx = SolverContext::indexed(&inst, &model);
    let bounds = estimate_gamma_bounds(&ctx, 500, 5).unwrap();
    let run1 = {
        let mut s = OAfa::new(ThresholdFn::adaptive(bounds.gamma_min, bounds.g));
        run_online(&mut s, &ctx)
    };
    let run2 = {
        let mut s = OAfa::new(ThresholdFn::adaptive(bounds.gamma_min, bounds.g));
        run_online(&mut s, &ctx)
    };
    assert_eq!(
        run1.assignments.assignments(),
        run2.assignments.assignments()
    );
    assert_eq!(run1.total_utility, run2.total_utility);
}

#[test]
fn larger_g_never_spends_more() {
    let inst = workload(2_000, 20, (2.0, 4.0), 99);
    let model = PearsonUtility::uniform(8);
    let ctx = SolverContext::indexed(&inst, &model);
    let bounds = estimate_gamma_bounds(&ctx, 500, 5).unwrap();
    let spend = |g: f64| {
        let mut s = OAfa::new(ThresholdFn::adaptive(bounds.gamma_min, g));
        run_online(&mut s, &ctx).assignments.total_spend()
    };
    // φ(δ) grows pointwise with g, so the admitted set shrinks
    // prefix-wise; spending should be monotone non-increasing.
    let s1 = spend(E * 1.2);
    let s2 = spend(E * 4.0);
    let s3 = spend(E * 15.0);
    assert!(s2 <= s1, "{s2:?} > {s1:?}");
    assert!(s3 <= s2, "{s3:?} > {s2:?}");
}

#[test]
fn ample_budgets_make_online_competitive_with_recon() {
    // The paper's headline: with the default (generous) budget range,
    // ONLINE approaches the offline algorithms.
    let inst = workload(2_000, 40, (20.0, 30.0), 123);
    let model = PearsonUtility::uniform(8);
    let ctx = SolverContext::indexed(&inst, &model);
    let recon = Recon::new().run(&ctx).total_utility;
    let bounds = estimate_gamma_bounds(&ctx, 1_000, 5).unwrap();
    let mut solver = OAfa::new(ThresholdFn::adaptive(bounds.gamma_min, bounds.g));
    let online = run_online(&mut solver, &ctx).total_utility;
    let random = RandomAssign::seeded(5).run(&ctx).total_utility;
    assert!(
        online > 0.6 * recon,
        "online {online} should be within striking distance of recon {recon}"
    );
    assert!(online > random, "online {online} must beat random {random}");
}

#[test]
fn foursquare_pipeline_end_to_end() {
    let sim = FoursquareSim::generate(&FoursquareConfig {
        checkins: 1_500,
        venues: 120,
        users: 100,
        ..Default::default()
    });
    let ctx = SolverContext::indexed(&sim.instance, &sim.model);
    let recon = Recon::new().run(&ctx);
    assert!(recon
        .assignments
        .check_feasibility(&sim.instance, &sim.model)
        .is_feasible());
    assert!(recon.total_utility > 0.0);

    let mut online = OAfa::new(ThresholdFn::estimated(&ctx, 500, 3));
    let out = run_online(&mut online, &ctx);
    assert!(out
        .assignments
        .check_feasibility(&sim.instance, &sim.model)
        .is_feasible());
    assert!(out.total_utility > 0.0);
    assert!(
        out.total_utility <= recon.total_utility * 1.5,
        "online wildly above offline?"
    );
}
