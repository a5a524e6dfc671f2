//! # muaa-knapsack
//!
//! Knapsack substrate for MUAA.
//!
//! The paper's single-vendor subproblem (§III-A) is a **multi-choice
//! knapsack problem** (MCKP): each valid customer is a *class* whose
//! *items* are the ad types (cost `c_k`, profit `λ_ijk`); at most one
//! item may be chosen per class and the total cost must not exceed the
//! vendor's budget `B_j`. This crate provides three solvers, each with
//! an inherent `solve(&MckpProblem) -> MckpSolution` (RECON's
//! `MckpBackend` chooses among them):
//!
//! * [`MckpExactDp`] — exact dynamic program over the (integer-cent)
//!   budget axis; ground truth for tests and a viable production
//!   backend for the paper's small budgets.
//! * [`MckpLpGreedy`] — the Dyer–Zemel / Sinha–Zoltners LP-relaxation
//!   method: per-class dominance reduction to the upper convex hull,
//!   then a global greedy over incremental efficiencies; the integral
//!   rounding keeps the fully-taken increments and falls back to the
//!   best single item, guaranteeing ≥ ½·OPT and typically ≫ that. This
//!   stands in for the `lpsolve`-based LP-relaxation algorithm the
//!   paper uses.
//! * [`MckpFptas`] — profit-scaling dynamic program with a `(1 − ε)`
//!   guarantee, matching the approximation assumption of the paper's
//!   Theorem III.1.
//!
//! A classic 0-1 knapsack solver ([`zero_one`]) is included as well: the
//! paper's NP-hardness proof (Theorem II.1) reduces 0-1 knapsack to
//! MUAA, and the integration tests replay that reduction.

#![warn(missing_docs)]
#![warn(clippy::all)]

mod dominance;
mod exact;
mod fptas;
mod lp_greedy;
mod problem;
pub mod zero_one;

pub use dominance::hull_indices;
pub use exact::MckpExactDp;
pub use fptas::MckpFptas;
pub use lp_greedy::{MckpLpGreedy, MckpLpResult};
pub use problem::{MckpItem, MckpProblem, MckpSolution};
