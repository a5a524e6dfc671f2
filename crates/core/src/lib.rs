//! # muaa-core
//!
//! Domain model for the **Maximum Utility Ad Assignment (MUAA)** problem
//! from *"Maximizing the Utility in Location-Based Mobile Advertising"*
//! (ICDE 2019).
//!
//! The crate defines the entities of the paper's Section II:
//!
//! * [`Customer`] — a spatial customer `u_i` with location, ad capacity
//!   `a_i`, view probability `p_i`, arrival timestamp and tag-interest
//!   vector `ψ_i` (Definition 1),
//! * [`Vendor`] — a spatial vendor `v_j` with location, broadcast radius
//!   `r_j`, budget `B_j` and tag vector `ψ_j` (Definition 2),
//! * [`AdType`] — an ad type `τ_k` with cost `c_k` and utility
//!   effectiveness `β_k` (Definition 3),
//! * [`Assignment`] / [`AssignmentSet`] — the ad assignment instance set
//!   `I` of triples `⟨u_i, v_j, τ_k⟩` (Definition 4), with full
//!   feasibility validation against Definition 5's four constraints,
//! * [`UtilityModel`] — the utility `λ_ijk` of Equation (4), with the
//!   activity-weighted Pearson similarity of Equation (5)
//!   ([`PearsonUtility`]) and a table-driven variant matching the paper's
//!   worked Example 1 ([`TableUtility`]).
//!
//! Money is kept in integer cents ([`Money`]) so budget arithmetic is
//! exact; utilities are `f64`.
//!
//! ## Symbol table (paper Table III)
//!
//! | Paper symbol | Here |
//! |--------------|------|
//! | `U_φ` | `&[Customer]` in a [`ProblemInstance`] |
//! | `V_φ` | `&[Vendor]` in a [`ProblemInstance`] |
//! | `T` | `&[AdType]` in a [`ProblemInstance`] |
//! | `l(u_i)`, `l(v_j)` | [`Customer::location`], [`Vendor::location`] |
//! | `a_i` | [`Customer::capacity`] |
//! | `p_i` | [`Customer::view_probability`] |
//! | `r_j` | [`Vendor::radius`] |
//! | `B_j` | [`Vendor::budget`] |
//! | `c_k` | [`AdType::cost`] |
//! | `β_k` | [`AdType::effectiveness`] |
//! | `λ_ijk` | [`UtilityModel::utility`] |
//! | `γ_ijk = λ_ijk / c_k` | [`UtilityModel::efficiency`] |

#![warn(missing_docs)]
#![warn(clippy::all)]
// Library code returns errors or states its invariant in an
// `#[expect(.., reason = "..")]`; delta engines name every variant, so a
// new one cannot fall through a `_` arm unnoticed.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::wildcard_enum_match_arm
    )
)]

pub mod activity;
pub mod assignment;
pub mod clock;
pub mod csr;
pub mod delta;
pub mod entities;
pub mod error;
pub mod geo;
pub mod hash;
pub mod ids;
pub mod instance;
pub mod io;
pub mod money;
pub mod par;
pub mod rng;
pub mod sanitize;
pub mod simd;
pub mod tags;
pub mod utility;

pub use activity::{ActivityProfile, Timestamp};
pub use assignment::{Assignment, AssignmentSet, FeasibilityReport, Violation};
pub use delta::{Delta, DeltaBatch};
pub use entities::{AdType, Customer, Vendor};
pub use error::CoreError;
pub use geo::{Point, DEFAULT_MIN_DISTANCE};
pub use ids::{AdTypeId, CustomerId, VendorId};
pub use instance::{InstanceBuilder, InstanceStats, ProblemInstance};
pub use money::Money;
pub use rng::DetRng;
pub use tags::TagVector;
pub use utility::{CustomerMoments, PearsonUtility, TableUtility, UtilityModel};
