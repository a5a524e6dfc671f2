//! # muaa-spatial
//!
//! Spatial substrate for MUAA: a uniform grid index over point sets
//! with circular range queries.
//!
//! Every MUAA algorithm needs two spatial primitives:
//!
//! * for a vendor `v_j`, the set `U_j` of valid customers within radius
//!   `r_j` (RECON's single-vendor problems, paper Alg. 1 line 3), and
//! * for an arriving customer `u_i`, the set `V'` of valid vendors
//!   whose circular areas contain the customer (O-AFA, Alg. 2 line 2).
//!
//! [`GridIndex`] serves the first; [`VendorIndex`] (a grid over vendor
//! locations that accounts for each vendor's own radius) serves the
//! second. NEAREST orders a customer's covering vendors by distance
//! itself (`SolverContext::vendors_by_distance`), so no nearest-neighbour
//! query lives here.

#![warn(missing_docs)]
#![warn(clippy::all)]
// Library code returns errors or states its invariant in an
// `#[expect(.., reason = "..")]`.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod grid;
mod vendor_index;

pub use grid::GridIndex;
pub use vendor_index::VendorIndex;
