//! # muaa-experiments
//!
//! The experiment harness reproducing every table and figure of the
//! MUAA paper's evaluation (§V), plus the ratio studies and ablations
//! described in `DESIGN.md` §4 and §9.
//!
//! Each figure runner sweeps one parameter while holding the others at
//! the reconstructed Table IV defaults, runs the five competitors
//! ([`COMPETITORS`]: RANDOM, NEAREST, GREEDY, RECON, ONLINE) through
//! [`run_competitors`] and reports the paper's two metrics — total
//! utility and CPU time — as printable/CSV tables.
//!
//! Entry points live in [`figures`]; the `muaa-experiments` binary
//! dispatches to them.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod figures;
pub mod harness;
pub mod report;
pub mod scale;

pub use harness::{run_competitors, COMPETITORS};
pub use report::Table;
pub use scale::Scale;
