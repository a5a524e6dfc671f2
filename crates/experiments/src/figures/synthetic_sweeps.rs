//! The synthetic-data figures: scalability sweeps (paper Figures 7–8).
//!
//! * Fig. 7 — number of customers `m`
//! * Fig. 8 — number of vendors `n`

use crate::figures::sweep_tables;
use crate::report::Table;
use crate::scale::Scale;
use muaa_core::{PearsonUtility, UtilityModel};
use muaa_datagen::{generate_synthetic, SyntheticConfig};

fn generate(cfg: SyntheticConfig) -> (muaa_core::ProblemInstance, Box<dyn UtilityModel>) {
    let tags = cfg.tags;
    (
        generate_synthetic(&cfg),
        Box::new(PearsonUtility::uniform(tags)) as Box<dyn UtilityModel>,
    )
}

/// Fig. 7: effect of the number `m` of customers.
pub fn fig7_customers(scale: &Scale, seed: u64) -> (Table, Table) {
    sweep_tables(
        "7",
        "m",
        "synthetic",
        seed,
        scale.fig7_customers.iter().map(|&m| {
            let cfg = SyntheticConfig {
                customers: m,
                vendors: scale.fig7_vendors,
                seed,
                ..Default::default()
            };
            let (inst, model) = generate(cfg);
            (format!("{m}"), inst, model)
        }),
    )
}

/// Fig. 8: effect of the number `n` of vendors.
pub fn fig8_vendors(scale: &Scale, seed: u64) -> (Table, Table) {
    sweep_tables(
        "8",
        "n",
        "synthetic",
        seed,
        scale.fig8_vendors.iter().map(|&n| {
            let cfg = SyntheticConfig {
                customers: scale.fig8_customers,
                vendors: n,
                seed,
                ..Default::default()
            };
            let (inst, model) = generate(cfg);
            (format!("{n}"), inst, model)
        }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Scale {
        let mut s = Scale::quick();
        s.fig7_customers = [100, 200, 400, 800, 1200];
        s.fig7_vendors = 40;
        s.fig8_vendors = [20, 40, 80, 120, 160];
        s.fig8_customers = 500;
        s
    }

    #[test]
    fn fig7_more_customers_more_utility() {
        let (utility, time) = fig7_customers(&tiny(), 11);
        assert_eq!(utility.rows.len(), 5);
        assert_eq!(time.rows.len(), 5);
        let recon = utility.columns.iter().position(|c| c == "RECON").unwrap();
        let first = utility.rows.first().unwrap().1[recon];
        let last = utility.rows.last().unwrap().1[recon];
        assert!(
            last > first,
            "more customers should raise RECON utility ({first} → {last})"
        );
    }

    #[test]
    fn fig8_more_vendors_more_utility() {
        let (utility, _) = fig8_vendors(&tiny(), 11);
        assert_eq!(utility.rows.len(), 5);
        let recon = utility.columns.iter().position(|c| c == "RECON").unwrap();
        let first = utility.rows.first().unwrap().1[recon];
        let last = utility.rows.last().unwrap().1[recon];
        assert!(
            last > first,
            "more vendors should raise RECON utility ({first} → {last})"
        );
    }
}
