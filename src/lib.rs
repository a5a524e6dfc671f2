//! # muaa
//!
//! A complete Rust implementation of **Maximum Utility Ad Assignment
//! (MUAA)** — the location-based mobile-advertising allocation problem
//! of *"Maximizing the Utility in Location-Based Mobile Advertising"*
//! (ICDE 2019) — including the paper's offline reconciliation algorithm
//! (RECON), the online adaptive factor-aware algorithm (O-AFA), every
//! experimental competitor, the substrates they depend on (spatial
//! indexes, multi-choice knapsack solvers, a tag taxonomy) and the full
//! experiment harness regenerating the paper's evaluation.
//!
//! This crate is a facade: it re-exports the workspace's sub-crates
//! under stable module names.
//!
//! ```
//! use muaa::prelude::*;
//!
//! // Generate a small synthetic city and assign ads offline with RECON.
//! let config = SyntheticConfig { customers: 500, vendors: 40, ..Default::default() };
//! let instance = generate_synthetic(&config);
//! let model = PearsonUtility::uniform(config.tags);
//! let ctx = SolverContext::indexed(&instance, &model);
//! let outcome = Recon::new().run(&ctx);
//! assert!(outcome.total_utility > 0.0);
//! assert!(outcome
//!     .assignments
//!     .check_feasibility(&instance, &model)
//!     .is_feasible());
//! ```

#![warn(missing_docs)]

/// Command-line interface (`muaa` binary): generate / info / solve / bound.
pub mod cli;

/// Domain model: customers, vendors, ad types, assignments, utility.
pub use muaa_core as core;

/// Tag taxonomy and Eq. 1–3 interest vectors.
pub use muaa_taxonomy as taxonomy;

/// Spatial substrate (grid index, reverse vendor queries).
pub use muaa_spatial as spatial;

/// Knapsack substrate (0-1 and multi-choice solvers).
pub use muaa_knapsack as knapsack;

/// Offline and online MUAA solvers.
pub use muaa_algorithms as algorithms;

/// Workload generators (synthetic + Foursquare-like check-in sim).
pub use muaa_datagen as datagen;

/// Experiment harness reproducing the paper's tables and figures.
pub use muaa_experiments as experiments;

/// The most common imports in one place.
pub mod prelude {
    pub use muaa_algorithms::online::session::{BrokerSession, LatencyStats};
    pub use muaa_algorithms::{
        estimate_gamma_bounds, run_online, ExactBnB, Greedy, MckpBackend, NaiveGreedy,
        NearestAssign, OAfa, OfflineSolver, RandomAssign, Recon, SolveOutcome, SolverContext,
        ThresholdFn,
    };
    pub use muaa_core::{
        ActivityProfile, AdType, AdTypeId, Assignment, AssignmentSet, Customer, CustomerId,
        InstanceBuilder, Money, PearsonUtility, Point, ProblemInstance, TableUtility, TagVector,
        Timestamp, UtilityModel, Vendor, VendorId,
    };
    pub use muaa_datagen::{
        generate_synthetic, FoursquareConfig, FoursquareSim, Range, SyntheticConfig,
    };
    pub use muaa_taxonomy::{foursquare_like, InterestModel, TagId, Taxonomy, TaxonomyBuilder};
}
