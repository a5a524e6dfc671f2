//! Solution quality at experiment scale, certified by upper bounds.
//!
//! The exact solver only reaches toy sizes, but
//! [`muaa_algorithms::upper_bounds`] gives certified upper bounds on
//! the optimum at any size. `λ(solver) / bound` is therefore a *lower
//! bound* on the solver's true approximation quality — if it reads
//! 0.8, the solver is provably within 20% of optimal on that instance.

use crate::report::Table;
use muaa_algorithms::{
    run_online, upper_bounds, Greedy, NearestAssign, OAfa, OfflineSolver, RandomAssign, Recon,
    SolverContext, ThresholdFn,
};
use muaa_core::PearsonUtility;
use muaa_datagen::{generate_synthetic, FoursquareConfig, FoursquareSim, SyntheticConfig};

/// Run the bound study on one synthetic and one Foursquare-sim
/// instance; each row reports `utility / best-upper-bound`.
pub fn run(customers: usize, vendors: usize, seed: u64) -> Table {
    let mut t = Table::new(
        "Certified quality: utility / upper bound (lower bounds on true ratio)",
        "solver",
        vec!["synthetic".into(), "real-sim".into()],
    );

    let syn_cfg = SyntheticConfig {
        customers,
        vendors,
        seed,
        ..Default::default()
    };
    let syn_tags = syn_cfg.tags;
    let syn = generate_synthetic(&syn_cfg);
    let syn_model = PearsonUtility::uniform(syn_tags);

    let fsq = FoursquareSim::generate(&FoursquareConfig {
        checkins: customers,
        venues: vendors,
        users: (customers / 20).max(10),
        seed,
        ..Default::default()
    });

    let syn_ctx = SolverContext::indexed(&syn, &syn_model);
    let fsq_ctx = SolverContext::indexed(&fsq.instance, &fsq.model);
    let syn_bound = upper_bounds(&syn_ctx).best();
    let fsq_bound = upper_bounds(&fsq_ctx).best();

    let quality = |ctx: &SolverContext<'_>, bound: f64| -> Vec<f64> {
        let recon = Recon::new().with_seed(seed).run(ctx).total_utility;
        let greedy = Greedy.run(ctx).total_utility;
        let mut oafa = OAfa::new(ThresholdFn::estimated(ctx, 1_000, seed));
        let online = run_online(&mut oafa, ctx).total_utility;
        let nearest = NearestAssign.run(ctx).total_utility;
        let random = RandomAssign::seeded(seed).run(ctx).total_utility;
        [recon, greedy, online, nearest, random]
            .into_iter()
            .map(|u| if bound > 0.0 { u / bound } else { 0.0 })
            .collect()
    };

    let syn_q = quality(&syn_ctx, syn_bound);
    let fsq_q = quality(&fsq_ctx, fsq_bound);
    for (i, name) in ["RECON", "GREEDY", "ONLINE", "NEAREST", "RANDOM"]
        .iter()
        .enumerate()
    {
        t.push_row(*name, vec![syn_q[i], fsq_q[i]]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qualities_are_certified_ratios() {
        let t = run(400, 25, 9);
        assert_eq!(t.rows.len(), 5);
        for (name, values) in &t.rows {
            for &q in values {
                assert!((0.0..=1.0 + 1e-9).contains(&q), "{name}: ratio {q}");
            }
        }
        let get = |name: &str, col: usize| {
            t.rows
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| v[col])
                .unwrap()
        };
        // RECON must certify a reasonable fraction of the bound.
        assert!(
            get("RECON", 0) > 0.3,
            "synthetic RECON quality {}",
            get("RECON", 0)
        );
        assert!(get("RECON", 0) >= get("RANDOM", 0));
    }
}
