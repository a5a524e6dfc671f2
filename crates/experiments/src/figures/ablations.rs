//! Ablations beyond the paper (DESIGN.md §9):
//!
//! * **MCKP backend** — RECON with LP-greedy vs exact DP vs FPTAS.
//! * **Threshold policy** — O-AFA with the adaptive `φ(δ)` vs static
//!   thresholds vs no threshold, supporting the paper's §IV claim that
//!   adaptive beats static.
//! * **Effect of `g`** — utility and used-budget ratio as `g` grows
//!   (the §IV-B discussion: larger `g` blocks more and spends less).

use crate::report::Table;
use muaa_algorithms::{
    estimate_gamma_bounds, BatchedRecon, MckpBackend, OAfa, OfflineSolver, Recon, SolverContext,
    ThresholdFn,
};
use muaa_core::{PearsonUtility, ProblemInstance};
use muaa_datagen::{generate_synthetic, SyntheticConfig};
use std::f64::consts::E;

fn workload(
    customers: usize,
    vendors: usize,
    budget_hi: f64,
    seed: u64,
) -> (ProblemInstance, PearsonUtility) {
    let cfg = SyntheticConfig {
        customers,
        vendors,
        budget: muaa_datagen::Range::new(budget_hi / 2.0, budget_hi),
        radius: muaa_datagen::Range::new(0.04, 0.08),
        seed,
        ..Default::default()
    };
    let tags = cfg.tags;
    (generate_synthetic(&cfg), PearsonUtility::uniform(tags))
}

/// RECON backend ablation: utility and time per MCKP backend.
pub fn ablate_mckp(customers: usize, vendors: usize, seed: u64) -> Table {
    let (inst, model) = workload(customers, vendors, 10.0, seed);
    let ctx = SolverContext::indexed(&inst, &model);
    let mut t = Table::new(
        "Ablation: RECON single-vendor MCKP backend",
        "backend",
        vec!["utility".into(), "seconds".into()],
    );
    for (name, backend) in [
        ("lp-greedy", MckpBackend::LpGreedy),
        ("exact-dp", MckpBackend::ExactDp),
        ("fptas(0.1)", MckpBackend::Fptas(0.1)),
    ] {
        let out = Recon::new().with_backend(backend).with_seed(seed).run(&ctx);
        t.push_row(name, vec![out.total_utility, out.elapsed.as_secs_f64()]);
    }
    t
}

/// A workload where the threshold genuinely matters: demand massively
/// exceeds the budgets (wide radii, many customers per vendor, budgets
/// that afford a few ads each) and the best customers arrive late in
/// the stream (arrival order is generation order for the synthetic
/// generator, and utilities trend upward by construction here).
fn starved_workload(
    customers: usize,
    vendors: usize,
    seed: u64,
) -> (ProblemInstance, PearsonUtility) {
    use muaa_core::{
        Customer, DetRng, InstanceBuilder, Money, Point, TagVector, Timestamp, Vendor,
    };
    let mut rng = DetRng::seed_from_u64(seed);
    let tags = 6;
    // Customers: view probability (and hence efficiency) ramps up over
    // the arrival stream, so spending early is a mistake the adaptive
    // threshold can avoid.
    let instance = InstanceBuilder::new()
        .ad_types(muaa_datagen::adtypes::adwords_like())
        .customers((0..customers).map(|i| {
            let progress = i as f64 / customers.max(1) as f64;
            Customer {
                location: Point::new(rng.gen_f64(), rng.gen_f64()),
                capacity: 2,
                view_probability: (0.05 + 0.9 * progress * rng.gen_f64()).clamp(0.0, 1.0),
                interests: TagVector::new_unchecked(
                    (0..tags).map(|_| 0.2 + 0.8 * rng.gen_f64()).collect(),
                ),
                arrival: Timestamp::from_hours(24.0 * progress),
            }
        }))
        .vendors((0..vendors).map(|_| Vendor {
            location: Point::new(rng.gen_f64(), rng.gen_f64()),
            radius: 0.4,
            budget: Money::from_dollars(rng.gen_range_f64(4.0, 8.0)),
            tags: TagVector::new_unchecked((0..tags).map(|_| 0.2 + 0.8 * rng.gen_f64()).collect()),
        }))
        .build()
        .expect("valid workload");
    (instance, PearsonUtility::uniform(tags))
}

/// Threshold policy ablation: adaptive vs static vs none, on a
/// budget-starved workload where filtering matters.
pub fn ablate_threshold(customers: usize, vendors: usize, seed: u64) -> Table {
    let (inst, model) = starved_workload(customers, vendors, seed);
    let ctx = SolverContext::indexed(&inst, &model);
    let bounds = estimate_gamma_bounds(&ctx, 2_000, seed)
        .expect("workload has positive-efficiency instances");
    let mut t = Table::new(
        "Ablation: O-AFA threshold policy (budget-starved stream)",
        "policy",
        vec!["utility".into(), "spend ratio".into()],
    );
    let total_budget: f64 = inst.vendors().iter().map(|v| v.budget.as_dollars()).sum();
    let mut run = |name: &str, thr: ThresholdFn| {
        let mut solver = OAfa::new(thr);
        let out = muaa_algorithms::run_online(&mut solver, &ctx);
        let spent = out.assignments.total_spend().as_dollars();
        t.push_row(name, vec![out.total_utility, spent / total_budget]);
    };
    // The adaptive threshold uses the largest admissible g
    // (φ(1) = γ_max exactly), the paper's §IV-B prescription for
    // contended budgets.
    let g_max = (bounds.gamma_max * E / bounds.gamma_min).max(E * 1.001);
    run("adaptive", ThresholdFn::adaptive(bounds.gamma_min, g_max));
    // The related-work alternative: a discrete staircase of thresholds.
    run(
        "stepped(4)",
        ThresholdFn::stepped(bounds.gamma_min, g_max, 4),
    );
    // Static thresholds at γ_min (permissive) and at the geometric
    // midpoint of the efficiency range (a "tuned" static filter).
    run(
        "static(γ_min)",
        ThresholdFn::Static {
            value: bounds.gamma_min,
        },
    );
    let mid = (bounds.gamma_min * bounds.gamma_max).sqrt();
    run("static(mid)", ThresholdFn::Static { value: mid });
    run("none", ThresholdFn::Disabled);
    t
}

/// Effect of `g`: larger `g` blocks low-efficiency instances earlier,
/// lowering spend; utility typically peaks at a moderate-to-large `g`
/// on contended streams.
pub fn ablate_g(customers: usize, vendors: usize, seed: u64) -> Table {
    let (inst, model) = starved_workload(customers, vendors, seed);
    let ctx = SolverContext::indexed(&inst, &model);
    let bounds = estimate_gamma_bounds(&ctx, 2_000, seed)
        .expect("workload has positive-efficiency instances");
    let total_budget: f64 = inst.vendors().iter().map(|v| v.budget.as_dollars()).sum();
    let mut t = Table::new(
        "Ablation: O-AFA sensitivity to g",
        "g",
        vec!["utility".into(), "spend ratio".into()],
    );
    // Sweep g from just above e to the §IV-B admissible maximum
    // γ_max·e/γ_min on a log scale.
    let g_max = (bounds.gamma_max * E / bounds.gamma_min).max(E * 1.01);
    let steps = 5;
    for k in 0..steps {
        let frac = k as f64 / (steps - 1) as f64;
        let g = (E * 1.01) * (g_max / (E * 1.01)).powf(frac);
        let mut solver = OAfa::new(ThresholdFn::adaptive(bounds.gamma_min, g));
        let out = muaa_algorithms::run_online(&mut solver, &ctx);
        let spent = out.assignments.total_spend().as_dollars();
        t.push_row(
            format!("{g:.2}"),
            vec![out.total_utility, spent / total_budget],
        );
    }
    t
}

/// Ad-type-count ablation (beyond the paper): MUAA's multi-choice
/// structure only matters when `q > 1` — with one ad type the
/// single-vendor problems collapse to plain knapsacks. Sweeping the
/// catalogue richness shows how much the multi-choice machinery buys.
pub fn ablate_adtypes(customers: usize, vendors: usize, seed: u64) -> Table {
    use muaa_core::AdType;
    use muaa_core::Money;
    let mut t = Table::new(
        "Ablation: number of ad types q",
        "q",
        vec!["RECON".into(), "GREEDY".into(), "ONLINE".into()],
    );
    // Cost/effectiveness ladder obeying the paper's "costlier is more
    // effective" assumption; prefixes of it form the q-sweep.
    let ladder = [
        ("Text Link", 1.0, 0.10),
        ("Photo Link", 2.0, 0.40),
        ("In-App Video", 3.0, 0.55),
        ("Interactive", 4.0, 0.65),
        ("Sponsored Story", 5.0, 0.72),
    ];
    for q in [1usize, 2, 3, 5] {
        let cfg = muaa_datagen::SyntheticConfig {
            customers,
            vendors,
            ad_types: ladder[..q]
                .iter()
                .map(|&(name, cost, beta)| AdType::new(name, Money::from_dollars(cost), beta))
                .collect(),
            radius: muaa_datagen::Range::new(0.04, 0.08),
            seed,
            ..Default::default()
        };
        let tags = cfg.tags;
        let inst = muaa_datagen::generate_synthetic(&cfg);
        let model = PearsonUtility::uniform(tags);
        let ctx = SolverContext::indexed(&inst, &model);
        let recon = Recon::new().with_seed(seed).run(&ctx).total_utility;
        let greedy = muaa_algorithms::Greedy.run(&ctx).total_utility;
        let mut oafa = OAfa::new(ThresholdFn::estimated(&ctx, 1_000, seed));
        let online = muaa_algorithms::run_online(&mut oafa, &ctx).total_utility;
        t.push_row(q.to_string(), vec![recon, greedy, online]);
    }
    t
}

/// Batching ablation (beyond the paper): how much utility does
/// lookahead buy? `BatchedRecon` over 1 window solves RECON's MCKPs
/// but reconciles without RECON's refill; over many windows it
/// approaches a per-arrival policy. Also runs RECON and the true O-AFA
/// for reference.
pub fn ablate_batching(customers: usize, vendors: usize, seed: u64) -> Table {
    let (inst, model) = workload(customers, vendors, 6.0, seed);
    let ctx = SolverContext::indexed(&inst, &model);
    let mut t = Table::new(
        "Ablation: value of lookahead (BatchedRecon window count)",
        "windows",
        vec!["utility".into(), "seconds".into()],
    );
    for windows in [1usize, 2, 4, 16, 64, 256] {
        let out = BatchedRecon::new(windows).with_seed(seed).run(&ctx);
        t.push_row(
            windows.to_string(),
            vec![out.total_utility, out.elapsed.as_secs_f64()],
        );
    }
    // Reference points: RECON (full lookahead) and O-AFA (none).
    let recon = Recon::new().with_seed(seed).run(&ctx);
    t.push_row(
        "RECON",
        vec![recon.total_utility, recon.elapsed.as_secs_f64()],
    );
    let mut oafa = OAfa::new(ThresholdFn::estimated(&ctx, 1_000, seed));
    let out = muaa_algorithms::run_online(&mut oafa, &ctx);
    t.push_row("O-AFA", vec![out.total_utility, out.elapsed.as_secs_f64()]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adtype_ablation_shows_recon_exploiting_richer_catalogues() {
        let t = ablate_adtypes(600, 15, 3);
        assert_eq!(t.rows.len(), 4);
        let recon: Vec<f64> = t.rows.iter().map(|(_, v)| v[0]).collect();
        // RECON's utility must not decrease as types are added (a richer
        // catalogue only widens each MCKP class).
        for w in recon.windows(2) {
            assert!(
                w[1] + 1e-9 >= w[0],
                "recon utility dropped with more ad types: {recon:?}"
            );
        }
        // q = 1 vs q = 2 must show a real jump for every solver (the
        // photo-link type dominates on efficiency).
        let q1 = &t.rows[0].1;
        let q2 = &t.rows[1].1;
        for (a, b) in q1.iter().zip(q2) {
            assert!(b > a, "q=2 should beat q=1: {q1:?} vs {q2:?}");
        }
    }

    #[test]
    fn batching_ablation_orders_lookahead_sensibly() {
        let t = ablate_batching(400, 12, 3);
        assert_eq!(t.rows.len(), 8);
        let util = |name: &str| {
            t.rows
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| v[0])
                .unwrap()
        };
        // Full lookahead should not lose to the most myopic batching.
        assert!(
            util("1") * 1.1 >= util("256"),
            "1-window {} vs 256 {}",
            util("1"),
            util("256")
        );
        assert!(util("RECON") > 0.0 && util("O-AFA") > 0.0);
    }

    #[test]
    fn mckp_ablation_runs_all_backends() {
        let t = ablate_mckp(300, 20, 3);
        assert_eq!(t.rows.len(), 3);
        // The exact backend can't produce less single-vendor utility;
        // after reconciliation allow a small slack.
        let lp = t.rows[0].1[0];
        let exact = t.rows[1].1[0];
        assert!(exact >= 0.9 * lp, "exact {exact} vs lp {lp}");
    }

    #[test]
    fn threshold_ablation_adaptive_beats_no_threshold_when_starved() {
        let t = ablate_threshold(2_000, 10, 3);
        let util = |name: &str| {
            t.rows
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| v[0])
                .unwrap()
        };
        let spend = |name: &str| {
            t.rows
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| v[1])
                .unwrap()
        };
        // The paper's §IV claim: selective beats unfiltered on
        // contended budgets.
        assert!(
            util("adaptive") > util("none"),
            "adaptive {} should beat none {}",
            util("adaptive"),
            util("none")
        );
        // No policy can spend more than the unfiltered one.
        assert!(spend("none") >= spend("adaptive") - 1e-9);
        assert!(spend("static(mid)") <= spend("none") + 1e-9);
    }

    #[test]
    fn g_ablation_larger_g_helps_on_contended_streams() {
        let t = ablate_g(2_000, 10, 4);
        let utils: Vec<f64> = t.rows.iter().map(|(_, v)| v[0]).collect();
        let spends: Vec<f64> = t.rows.iter().map(|(_, v)| v[1]).collect();
        // Spend is monotone non-increasing in g (pointwise-higher φ).
        for w in spends.windows(2) {
            assert!(
                w[1] <= w[0] + 0.05,
                "spend should not grow with g: {spends:?}"
            );
        }
        // The largest admissible g should beat the near-e one.
        assert!(
            utils[utils.len() - 1] > utils[0],
            "utility should improve with g here: {utils:?}"
        );
    }
}
