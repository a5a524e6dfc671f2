//! The "real data" figures: sweeps over the Foursquare-like check-in
//! simulation (paper Figures 3–6).
//!
//! * Fig. 3 — vendor budget range `[B⁻, B⁺]`
//! * Fig. 4 — vendor radius range `[r⁻, r⁺]`
//! * Fig. 5 — customer capacity range `[a⁻, a⁺]` (few customers, many
//!   vendors, per the paper's setup for this figure)
//! * Fig. 6 — view-probability range `[p⁻, p⁺]`

use crate::figures::sweep_tables;
use crate::report::Table;
use crate::scale::Scale;
use muaa_core::UtilityModel;
use muaa_datagen::{FoursquareConfig, FoursquareSim, Range};

fn base_config(scale: &Scale) -> FoursquareConfig {
    FoursquareConfig {
        checkins: scale.real_checkins,
        venues: scale.real_venues,
        users: scale.real_users,
        ..Default::default()
    }
}

fn generate(config: FoursquareConfig) -> (muaa_core::ProblemInstance, Box<dyn UtilityModel>) {
    let sim = FoursquareSim::generate(&config);
    (sim.instance, Box::new(sim.model))
}

/// Fig. 3: effect of the range `[B⁻, B⁺]` of vendor budgets.
pub fn fig3_budget(scale: &Scale, seed: u64) -> (Table, Table) {
    let sweep: &[(f64, f64)] = &[
        (1.0, 5.0),
        (5.0, 10.0),
        (10.0, 20.0),
        (20.0, 30.0),
        (30.0, 40.0),
        (40.0, 50.0),
    ];
    sweep_tables(
        "3",
        "[B-,B+]",
        "real-sim",
        seed,
        sweep.iter().map(|&(lo, hi)| {
            let mut cfg = base_config(scale);
            cfg.budget = Range::new(lo, hi);
            let (inst, model) = generate(cfg);
            (format!("[{lo},{hi}]"), inst, model)
        }),
    )
}

/// Fig. 4: effect of the range `[r⁻, r⁺]` of vendor radii.
pub fn fig4_radius(scale: &Scale, seed: u64) -> (Table, Table) {
    let sweep: &[(f64, f64)] = &[(0.01, 0.02), (0.02, 0.03), (0.03, 0.04), (0.04, 0.05)];
    sweep_tables(
        "4",
        "[r-,r+]",
        "real-sim",
        seed,
        sweep.iter().map(|&(lo, hi)| {
            let mut cfg = base_config(scale);
            cfg.radius = Range::new(lo, hi);
            let (inst, model) = generate(cfg);
            (format!("[{lo},{hi}]"), inst, model)
        }),
    )
}

/// Fig. 5: effect of the range `[a⁻, a⁺]` of customer capacities.
/// The paper runs this with 500 customers and 5,000 vendors so that
/// capacities actually bind.
pub fn fig5_capacity(scale: &Scale, seed: u64) -> (Table, Table) {
    let sweep: &[(f64, f64)] = &[(1.0, 4.0), (1.0, 6.0), (1.0, 8.0), (1.0, 10.0)];
    sweep_tables(
        "5",
        "[a-,a+]",
        "real-sim",
        seed,
        sweep.iter().map(|&(lo, hi)| {
            let mut cfg = base_config(scale);
            cfg.checkins = scale.fig5_customers;
            cfg.venues = scale.fig5_vendors;
            // Denser vendors need a bigger radius for overlap to bind.
            cfg.capacity = Range::new(lo, hi);
            let (inst, model) = generate(cfg);
            (format!("[{},{}]", lo as u32, hi as u32), inst, model)
        }),
    )
}

/// Fig. 6: effect of the range `[p⁻, p⁺]` of view probabilities.
pub fn fig6_probability(scale: &Scale, seed: u64) -> (Table, Table) {
    let sweep: &[(f64, f64)] = &[(0.1, 0.2), (0.1, 0.4), (0.1, 0.6), (0.1, 0.8)];
    sweep_tables(
        "6",
        "[p-,p+]",
        "real-sim",
        seed,
        sweep.iter().map(|&(lo, hi)| {
            let mut cfg = base_config(scale);
            cfg.view_probability = Range::new(lo, hi);
            let (inst, model) = generate(cfg);
            (format!("[{lo},{hi}]"), inst, model)
        }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Scale {
        let mut s = Scale::quick();
        s.real_checkins = 400;
        s.real_venues = 60;
        s.real_users = 40;
        s.fig5_customers = 60;
        s.fig5_vendors = 120;
        s
    }

    #[test]
    fn fig3_utility_grows_then_saturates() {
        let (utility, time) = fig3_budget(&tiny(), 7);
        assert_eq!(utility.rows.len(), 6);
        assert_eq!(time.rows.len(), 6);
        // RECON utility at the largest budget must beat the smallest.
        let recon_col = utility.columns.iter().position(|c| c == "RECON").unwrap();
        let first = utility.rows.first().unwrap().1[recon_col];
        let last = utility.rows.last().unwrap().1[recon_col];
        assert!(
            last > first,
            "budget growth should raise utility ({first} → {last})"
        );
    }

    #[test]
    fn fig4_radius_grows_utility_for_recon() {
        let (utility, _) = fig4_radius(&tiny(), 7);
        let recon_col = utility.columns.iter().position(|c| c == "RECON").unwrap();
        let first = utility.rows.first().unwrap().1[recon_col];
        let last = utility.rows.last().unwrap().1[recon_col];
        assert!(
            last >= first,
            "bigger radii can only add candidates ({first} → {last})"
        );
    }

    #[test]
    fn fig5_and_fig6_produce_full_tables() {
        let (u5, t5) = fig5_capacity(&tiny(), 7);
        assert_eq!(u5.rows.len(), 4);
        assert_eq!(t5.rows.len(), 4);
        let (u6, _) = fig6_probability(&tiny(), 7);
        assert_eq!(u6.rows.len(), 4);
        // Higher view probabilities raise utility (Eq. 4 is linear in p).
        let recon_col = u6.columns.iter().position(|c| c == "RECON").unwrap();
        assert!(u6.rows.last().unwrap().1[recon_col] > u6.rows.first().unwrap().1[recon_col]);
    }
}
