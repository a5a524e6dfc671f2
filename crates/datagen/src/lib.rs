//! # muaa-datagen
//!
//! Workload generators for the MUAA experiments (paper §V-A).
//!
//! * [`SyntheticConfig`] / [`generate_synthetic`] — the paper's
//!   synthetic data: customer locations Gaussian `N(0.5, 1²)` clamped
//!   to `[0,1]²`, vendor locations uniform, and all per-entity
//!   parameters (budgets `B_j`, radii `r_j`, capacities `a_i`, view
//!   probabilities `p_i`) drawn from truncated Gaussians over
//!   configurable ranges exactly as §V-A describes.
//! * [`FoursquareSim`] — the substitute for the proprietary Foursquare
//!   Tokyo check-in dataset (see `DESIGN.md` §5): a check-in simulator
//!   over the [`muaa_taxonomy::foursquare_like`] category tree with
//!   Zipf venue popularity, clustered venue geography, per-category
//!   diurnal activity and per-user category preferences. Customers are
//!   materialised one per check-in and vendors one per venue, mirroring
//!   the paper's preprocessing.
//! * [`adtypes`] — ad-type sets: the paper's Table I pair and an
//!   AdWords-statistics-like triple.
//! * [`dist`] — the truncated-Gaussian and Zipf samplers the above are
//!   built on.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod activity_estimation;
pub mod adtypes;
pub mod dist;
pub mod foursquare;
pub mod synthetic;

pub use activity_estimation::{estimate_activity, ActivityEstimation};
pub use foursquare::{FoursquareConfig, FoursquareSim};
pub use synthetic::{generate_synthetic, Range, SyntheticConfig};
