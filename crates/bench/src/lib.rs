//! # muaa-bench
//!
//! Report binaries for the performance substrate, in `src/bin/`:
//!
//! * `pair_cache_report` — pair-base memo, candidate arena and delta
//!   churn (DESIGN.md §10–§12);
//! * `tagselect_report` — column-reset vs full rebuild (DESIGN.md §17).
//!
//! Each report asserts its own byte-identity checks. End-to-end numbers
//! come from the `benchmark/` package. This library exposes the shared
//! fixtures the binaries use.

use muaa_core::{PearsonUtility, ProblemInstance};
use muaa_datagen::{generate_streamed, generate_synthetic, Range, StreamConfig, SyntheticConfig};

/// A bench fixture: instance + matching utility model.
pub struct Fixture {
    /// The instance under test.
    pub instance: ProblemInstance,
    /// The model to evaluate utilities with.
    pub model: PearsonUtility,
}

// Manual impl: reports only ever care about the fixture's scale.
impl std::fmt::Debug for Fixture {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fixture")
            .field("customers", &self.instance.customers().len())
            .field("vendors", &self.instance.vendors().len())
            .finish_non_exhaustive()
    }
}

/// A synthetic fixture for the report binaries: fixed seed, radii in
/// `[0.03, 0.06)`.
pub fn synthetic_fixture(customers: usize, vendors: usize, budget: (f64, f64)) -> Fixture {
    let cfg = SyntheticConfig {
        customers,
        vendors,
        budget: Range::new(budget.0, budget.1),
        radius: Range::new(0.03, 0.06),
        seed: 0xBE7C,
        ..Default::default()
    };
    let tags = cfg.tags;
    Fixture {
        instance: generate_synthetic(&cfg),
        model: PearsonUtility::uniform(tags),
    }
}

/// A scale-out fixture from the constant-memory streaming generator —
/// the workload of the tag-selection report. The downsizing rule keeps
/// the expected per-disc customer population of the full 1M × 10k
/// fixture, so solver behaviour stays comparable across sizes.
pub fn streamed_fixture(customers: usize, vendors: usize) -> Fixture {
    let cfg = StreamConfig::downsized(customers, vendors);
    let tags = cfg.tags;
    Fixture {
        instance: generate_streamed(&cfg),
        model: PearsonUtility::uniform(tags),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_build() {
        let f = synthetic_fixture(200, 10, (5.0, 10.0));
        assert_eq!(f.instance.num_customers(), 200);
        let f = streamed_fixture(400, 8);
        assert_eq!(f.instance.num_customers(), 400);
        assert_eq!(f.instance.num_vendors(), 8);
    }
}
