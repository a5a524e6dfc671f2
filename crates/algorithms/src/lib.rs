//! # muaa-algorithms
//!
//! Offline and online solvers for the MUAA problem.
//!
//! ## Offline (paper §III and §V competitors)
//!
//! * [`Recon`] — the paper's reconciliation algorithm (Algorithm 1):
//!   per-vendor multi-choice knapsack solves followed by reconciliation
//!   of customer-capacity violations; approximation ratio `(1−ε)·θ`.
//! * [`Greedy`] — the GREEDY competitor: repeatedly commit the feasible
//!   ad instance with the highest budget efficiency. Two
//!   implementations: [`Greedy`] (sorted single sweep) and
//!   [`NaiveGreedy`] (per-iteration rescan, matching the cost profile
//!   the paper reports for GREEDY).
//! * [`RandomAssign`] — the RANDOM baseline.
//! * [`NearestAssign`] — the NEAREST baseline (nearest vendors first).
//!   Both baselines visit customers in arrival order and never revisit
//!   a decision, so the same implementation serves as the online
//!   competitor of the paper's figures.
//! * [`ExactBnB`] — branch-and-bound exact solver for small instances;
//!   used to measure empirical approximation/competitive ratios.
//!
//! ## Online (paper §IV)
//!
//! * [`OAfa`] — the online adaptive factor-aware algorithm
//!   (Algorithm 2) with the adaptive threshold
//!   `φ(δ) = (γ_min / e) · g^δ`; competitive ratio `(ln g + 1)/θ`.
//! * [`ThresholdFn`] — adaptive, static, or disabled thresholds (the
//!   static/disabled variants are the paper's §IV discussion ablation).
//! * [`estimate_gamma_bounds`] — the §IV-C parameter-estimation step:
//!   sample candidate instances to estimate `γ_min`/`γ_max` and pick a
//!   valid `g > e`. [`ThresholdFn::estimated`] turns it into O-AFA's
//!   default policy.
//! * [`run_online`] — stream a whole instance through O-AFA;
//!   [`BrokerSession`](online::session::BrokerSession) serves a live one.
//!
//! All solvers speak [`SolverContext`], which bundles the instance, the
//! utility model and the spatial indexes, and they return
//! [`SolveOutcome`]s carrying the assignment set, its total utility and
//! the measured wall-clock time.

#![warn(missing_docs)]
#![warn(clippy::all)]
// Every match on a workspace enum names each variant, so a new `Delta`
// cannot fall through a `_` arm of a delta engine unnoticed.
#![cfg_attr(not(test), deny(clippy::wildcard_enum_match_arm))]

mod bounds;
mod context;
pub mod offline;
pub mod online;
mod stats;

pub use bounds::{upper_bounds, UpperBounds};
pub use context::{SolverContext, DEFAULT_PAIR_CACHE_CAP};
pub use offline::batched::BatchedRecon;
pub use offline::exact::ExactBnB;
pub use offline::greedy::{Greedy, NaiveGreedy};
pub use offline::nearest::NearestAssign;
pub use offline::random::RandomAssign;
pub use offline::recon::{MckpBackend, Recon};
pub use offline::tag_select::{
    select_tags, select_tags_exhaustive, SelectionEngine, TagSelectConfig, TagSelection,
};
pub use offline::OfflineSolver;
pub use online::estimate::{estimate_gamma_bounds, GammaBounds};
pub use online::oafa::OAfa;
pub use online::run_online;
pub use online::threshold::ThresholdFn;
pub use stats::SolveOutcome;
