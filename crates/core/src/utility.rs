//! The utility model of Equations (4) and (5).
//!
//! An ad assignment instance `⟨u_i, v_j, τ_k⟩` has utility
//!
//! ```text
//! λ_ijk = p_i · β_k · s(u_i, v_j, φ) / d(u_i, v_j, φ)        (Eq. 4)
//! ```
//!
//! where `s` is the activity-weighted Pearson correlation of the two
//! tag vectors (Eq. 5) and `d` the (clamped) Euclidean distance. The
//! trait [`UtilityModel`] abstracts both factors so the same algorithms
//! run against:
//!
//! * [`PearsonUtility`] — the paper's full model, and
//! * [`TableUtility`] — explicit per-pair `(preference, distance)`
//!   entries, exactly the form of the paper's worked Example 1
//!   (Tables I & II).
//!
//! ### Numerical conventions (DESIGN.md §3.4)
//!
//! * Distances are clamped below by a configurable floor (default
//!   [`crate::geo::DEFAULT_MIN_DISTANCE`]).
//! * The weighted Pearson correlation is defined as 0 when either vector
//!   has zero weighted variance, and similarities are clamped to
//!   `[0, 1]`, so utilities are always finite and non-negative — a
//!   requirement of the knapsack machinery (negative-profit items are
//!   never part of an optimal solution anyway).

use crate::activity::ActivityProfile;
#[cfg(test)]
use crate::activity::Timestamp;
use crate::entities::{AdType, Customer, Vendor};
use crate::geo::DEFAULT_MIN_DISTANCE;
use crate::ids::{CustomerId, VendorId};

/// The utility and distance model plugged into every MUAA algorithm.
pub trait UtilityModel: Send + Sync {
    /// Downcast to the paper's [`PearsonUtility`] when this model is
    /// one. The solver layer uses this to build its pair-base cache
    /// (per-customer activity weights and weighted moments precomputed
    /// once, then a single fused pass per pair). Non-geometric models —
    /// [`TableUtility`] in particular — return `None` and are always
    /// evaluated directly.
    fn as_pearson(&self) -> Option<&PearsonUtility> {
        None
    }

    /// Distance `d(u_i, v_j, φ)` used both as the Eq. (4) divisor and
    /// for the range constraint `d ≤ r_j`.
    fn distance(&self, cid: CustomerId, customer: &Customer, vid: VendorId, vendor: &Vendor)
        -> f64;

    /// Temporal preference / similarity `s(u_i, v_j, φ)`, clamped to
    /// `[0, 1]`.
    fn similarity(
        &self,
        cid: CustomerId,
        customer: &Customer,
        vid: VendorId,
        vendor: &Vendor,
    ) -> f64;

    /// Utility `λ_ijk` of Equation (4).
    fn utility(
        &self,
        cid: CustomerId,
        customer: &Customer,
        vid: VendorId,
        vendor: &Vendor,
        ad: &AdType,
    ) -> f64 {
        let d = self.distance(cid, customer, vid, vendor);
        if d <= 0.0 {
            return 0.0;
        }
        customer.view_probability * ad.effectiveness * self.similarity(cid, customer, vid, vendor)
            / d
    }

    /// Budget efficiency `γ_ijk = λ_ijk / c_k` (paper §IV): utility per
    /// dollar spent.
    fn efficiency(
        &self,
        cid: CustomerId,
        customer: &Customer,
        vid: VendorId,
        vendor: &Vendor,
        ad: &AdType,
    ) -> f64 {
        self.utility(cid, customer, vid, vendor, ad) / ad.cost.as_dollars()
    }
}

/// The paper's full utility model: Euclidean distance plus the
/// activity-weighted Pearson correlation of Equation (5), evaluated at
/// the customer's arrival timestamp.
#[derive(Clone, Debug)]
pub struct PearsonUtility {
    activity: ActivityProfile,
    min_distance: f64,
}

impl PearsonUtility {
    /// Build with an activity profile covering the instance's tag
    /// universe.
    pub fn new(activity: ActivityProfile) -> Self {
        PearsonUtility {
            activity,
            min_distance: DEFAULT_MIN_DISTANCE,
        }
    }

    /// Build with an "always active" profile: Eq. (5) degenerates to the
    /// plain Pearson correlation.
    pub fn uniform(tags: usize) -> Self {
        PearsonUtility::new(ActivityProfile::uniform(tags))
    }

    /// Override the distance floor.
    pub fn with_min_distance(mut self, min_distance: f64) -> Self {
        assert!(min_distance > 0.0, "distance floor must be positive");
        self.min_distance = min_distance;
        self
    }

    /// The activity profile in use.
    pub fn activity(&self) -> &ActivityProfile {
        &self.activity
    }

    /// Weighted Pearson correlation of two equal-length slices with the
    /// given non-negative weights (Eq. 5). Returns 0 when the total
    /// weight or either weighted variance is (numerically) zero.
    ///
    /// This is the **oracle spelling** of Eq. (5): the textbook two-pass
    /// centered formulation (means first, then centered cross/variance
    /// sums), deliberately *different* arithmetic from the raw-moment
    /// kernels that the solver paths use ([`crate::simd`] + the private
    /// `pearson_from_moments`). The production kernels must stay
    /// within `1e-12` of this function — pinned by unit tests here and a
    /// property test over random weights/tags — so a bug in the fused
    /// raw-moment algebra cannot drift silently while the bit-identity
    /// tests (which compare kernels only against each other) keep
    /// passing. Keep this implementation naive and readable; it is the
    /// ground truth, not a hot path.
    pub fn weighted_pearson(xs: &[f64], ys: &[f64], weights: &[f64]) -> f64 {
        debug_assert_eq!(xs.len(), ys.len());
        debug_assert_eq!(xs.len(), weights.len());
        let wsum: f64 = weights.iter().sum();
        if wsum <= 0.0 {
            return 0.0;
        }
        let mean = |vals: &[f64]| -> f64 {
            vals.iter().zip(weights).map(|(v, w)| v * w).sum::<f64>() / wsum
        };
        let mx = mean(xs);
        let my = mean(ys);
        let mut cxy = 0.0;
        let mut cxx = 0.0;
        let mut cyy = 0.0;
        for ((&x, &y), &w) in xs.iter().zip(ys).zip(weights) {
            let dx = x - mx;
            let dy = y - my;
            cxy += w * dx * dy;
            cxx += w * dx * dx;
            cyy += w * dy * dy;
        }
        let denom = (cxx * cyy).sqrt();
        if denom <= f64::EPSILON {
            return 0.0;
        }
        cxy / denom
    }

    /// The distance floor in use.
    #[inline]
    pub fn min_distance(&self) -> f64 {
        self.min_distance
    }

    /// Precompute the per-customer half of the Eq. (5) similarity: the
    /// activity weights at the customer's arrival time plus the weighted
    /// moments of the interest vector. With these in hand,
    /// [`similarity_with_moments`](Self::similarity_with_moments)
    /// evaluates any (customer, vendor) pair in a single fused pass with
    /// no allocation — and bit-identically to
    /// [`UtilityModel::similarity`] on this model.
    pub fn customer_moments(&self, customer: &Customer) -> CustomerMoments {
        let mut weights = vec![0.0; customer.interests.len()];
        let (sw, swx, swxx) = self.customer_moments_into(customer, &mut weights);
        CustomerMoments {
            weights,
            sw,
            swx,
            swxx,
        }
    }

    /// [`customer_moments`](Self::customer_moments) written in place:
    /// fills `weights` (one slot per tag) with the activity weights at
    /// the customer's arrival time and returns `(Σ w, Σ w·ψ, Σ w·ψ²)`.
    /// The solver layer points it at a customer's row of its flat
    /// weights matrix (DESIGN.md §11), so no per-customer buffer is
    /// allocated; `customer_moments` wraps this one body, so the two
    /// cannot drift apart.
    pub fn customer_moments_into(
        &self,
        customer: &Customer,
        weights: &mut [f64],
    ) -> (f64, f64, f64) {
        debug_assert_eq!(customer.interests.len(), self.activity.tags());
        self.activity.levels_at_slice(customer.arrival, weights);
        // Canonical lane schedule (DESIGN.md §16).
        crate::simd::weight_moments(weights, customer.interests.as_slice())
    }

    /// Eq. (5) similarity of `(customer, vendor)` from precomputed
    /// [`CustomerMoments`], clamped to `[0, 1]`. One pass over the tag
    /// vectors, no allocation; bit-identical to
    /// [`UtilityModel::similarity`] because both accumulate the same
    /// raw moments in the same order.
    pub fn similarity_with_moments(
        &self,
        moments: &CustomerMoments,
        customer: &Customer,
        vendor: &Vendor,
    ) -> f64 {
        Self::similarity_from_parts(
            &moments.weights,
            customer.interests.as_slice(),
            moments.sw,
            moments.swx,
            moments.swxx,
            vendor.tags.as_slice(),
        )
    }

    /// Slice-level core of [`similarity_with_moments`](Self::similarity_with_moments):
    /// Eq. (5) from raw parts, for callers that keep customer moments in
    /// flat structure-of-arrays storage (DESIGN.md §11) rather than in
    /// [`CustomerMoments`] values. `weights`/`xs` are the customer's
    /// activity weights and interest vector, `sw`/`swx`/`swxx` their
    /// precomputed moments, `ys` the vendor tags. Bit-identical to the
    /// struct-based path — `similarity_with_moments` is a thin wrapper
    /// over this function. The pair-side moments go through
    /// [`crate::simd::pair_moments`] (the canonical lane schedule).
    #[inline]
    #[cfg_attr(any(), muaa::hot)]
    pub fn similarity_from_parts(
        weights: &[f64],
        xs: &[f64],
        sw: f64,
        swx: f64,
        swxx: f64,
        ys: &[f64],
    ) -> f64 {
        let _hot = crate::sanitize::AllocGuard::strict("utility.similarity_from_parts");
        debug_assert_eq!(xs.len(), weights.len());
        debug_assert_eq!(ys.len(), weights.len());
        let (swy, swyy, swxy) = crate::simd::pair_moments(weights, xs, ys);
        pearson_from_moments(sw, swx, swxx, swy, swyy, swxy).clamp(0.0, 1.0)
    }
}

/// Precomputed per-customer state for the fused-pass Eq. (5)
/// similarity: activity weights `α_x(φ_i)` at the customer's arrival
/// time, their sum, and the weighted first/second moments of the
/// customer's interest vector. Built once per customer by
/// [`PearsonUtility::customer_moments`]; the solver layer caches one of
/// these per customer so each (customer, vendor) similarity is a single
/// pass over the vendor tags.
#[derive(Clone, Debug)]
pub struct CustomerMoments {
    /// `α_x(φ_i)` per tag `x`.
    weights: Vec<f64>,
    /// `Σ_x w_x`.
    sw: f64,
    /// `Σ_x w_x · ψ_i[x]`.
    swx: f64,
    /// `Σ_x w_x · ψ_i[x]²`.
    swxx: f64,
}

impl CustomerMoments {
    /// The activity weights at the customer's arrival time.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// `Σ_x w_x`.
    pub fn sw(&self) -> f64 {
        self.sw
    }

    /// `Σ_x w_x · ψ_i[x]`.
    pub fn swx(&self) -> f64 {
        self.swx
    }

    /// `Σ_x w_x · ψ_i[x]²`.
    pub fn swxx(&self) -> f64 {
        self.swxx
    }
}

/// Weighted Pearson correlation from raw moments: with
/// `m_x = swx/sw`, `m_y = swy/sw`, the centered sums are
/// `cov = swxy − sw·m_x·m_y` and `var = sw·(second moment − mean²)`.
/// The raw-moment form lets the whole similarity be computed in one
/// fused pass; tags and weights live in `[0, 1]`, so the subtraction is
/// well-conditioned (variances are clamped at 0 against rounding).
#[inline]
#[cfg_attr(any(), muaa::hot)]
fn pearson_from_moments(sw: f64, swx: f64, swxx: f64, swy: f64, swyy: f64, swxy: f64) -> f64 {
    if sw <= 0.0 {
        return 0.0;
    }
    let mx = swx / sw;
    let my = swy / sw;
    let cxy = swxy - sw * mx * my;
    let cxx = (swxx - sw * mx * mx).max(0.0);
    let cyy = (swyy - sw * my * my).max(0.0);
    let denom = (cxx * cyy).sqrt();
    if denom <= f64::EPSILON {
        return 0.0;
    }
    cxy / denom
}

impl UtilityModel for PearsonUtility {
    fn as_pearson(&self) -> Option<&PearsonUtility> {
        Some(self)
    }

    fn distance(
        &self,
        _cid: CustomerId,
        customer: &Customer,
        _vid: VendorId,
        vendor: &Vendor,
    ) -> f64 {
        customer
            .location
            .clamped_distance(&vendor.location, self.min_distance)
    }

    #[cfg_attr(any(), muaa::hot)]
    fn similarity(
        &self,
        _cid: CustomerId,
        customer: &Customer,
        _vid: VendorId,
        vendor: &Vendor,
    ) -> f64 {
        let tags = customer.interests.len();
        debug_assert_eq!(tags, vendor.tags.len());
        debug_assert_eq!(tags, self.activity.tags());
        // The uncached path: no precomputed customer moments, so all six
        // Eq. (5) raw moments stream through the *fused* kernel
        // (DESIGN.md §16) in one pass. The activity weights are
        // materialized into a thread-local scratch first
        // (`levels_at_slice` writes values bit-identical to per-tag
        // `level` calls), which keeps the kernel input a plain slice;
        // every moment's per-lane add chain matches the split
        // customer_moments / similarity_from_parts kernels exactly, so
        // cached and uncached paths stay bit-identical.
        use std::cell::RefCell;
        thread_local! {
            // Scratch reused across calls. lint: allow(hot_alloc):
            // one-time thread-local init plus cold-path growth on a
            // tag-universe change, not per-pair work.
            static WEIGHTS: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
        }
        WEIGHTS.with(|cell| {
            let mut buf = cell.borrow_mut();
            if buf.len() != tags {
                buf.resize(tags, 0.0);
            }
            self.activity
                .levels_at_slice(customer.arrival, buf.as_mut_slice());
            // The strict region starts after the scratch is sized: the
            // fused evaluation itself must never allocate.
            let _hot = crate::sanitize::AllocGuard::strict("utility.similarity_fused");
            let (sw, swx, swxx, swy, swyy, swxy) = crate::simd::fused_moments(
                buf.as_slice(),
                customer.interests.as_slice(),
                vendor.tags.as_slice(),
            );
            pearson_from_moments(sw, swx, swxx, swy, swyy, swxy).clamp(0.0, 1.0)
        })
    }
}

/// A table-driven utility model: explicit `(preference, distance)` per
/// (customer, vendor) pair, exactly as the paper's Example 1 presents
/// its Table II. Pairs absent from the table have similarity 0 and
/// infinite distance (hence are never valid).
///
/// Entries live in a `Vec` kept sorted by `(customer, vendor)` key with
/// binary-search lookups — deterministic `Debug` output and iteration
/// order by construction (D2-proof: there is no hash order to leak),
/// and cache-friendlier than a `HashMap` at Example-1 scale. Inserts
/// are `O(n)`; the table is a test/exposition model, not a hot path.
#[derive(Clone, Debug, Default)]
pub struct TableUtility {
    /// Sorted by key; unique keys ([`set_pair`](Self::set_pair)
    /// overwrites in place).
    entries: Vec<((u32, u32), (f64, f64))>,
    min_distance: f64,
}

impl TableUtility {
    /// Start an empty table.
    pub fn new() -> Self {
        TableUtility {
            entries: Vec::new(),
            min_distance: DEFAULT_MIN_DISTANCE,
        }
    }

    /// Binary-search lookup of a pair's `(preference, distance)` entry.
    fn lookup(&self, cid: CustomerId, vid: VendorId) -> Option<(f64, f64)> {
        self.entries
            .binary_search_by(|&(key, _)| key.cmp(&(cid.0, vid.0)))
            .ok()
            .map(|i| self.entries[i].1)
    }

    /// Record `(preference, distance)` for a pair; returns `self` for
    /// chaining.
    pub fn with_pair(
        mut self,
        cid: CustomerId,
        vid: VendorId,
        preference: f64,
        distance: f64,
    ) -> Self {
        self.set_pair(cid, vid, preference, distance);
        self
    }

    /// Record `(preference, distance)` for a pair.
    pub fn set_pair(&mut self, cid: CustomerId, vid: VendorId, preference: f64, distance: f64) {
        assert!(
            preference.is_finite() && (0.0..=1.0).contains(&preference),
            "preference must be in [0,1]"
        );
        assert!(
            distance.is_finite() && distance >= 0.0,
            "distance must be finite and non-negative"
        );
        let key = (cid.0, vid.0);
        match self.entries.binary_search_by(|&(k, _)| k.cmp(&key)) {
            Ok(i) => self.entries[i].1 = (preference, distance),
            Err(i) => self.entries.insert(i, (key, (preference, distance))),
        }
    }

    /// Number of pairs in the table.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` iff the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl UtilityModel for TableUtility {
    fn distance(&self, cid: CustomerId, _c: &Customer, vid: VendorId, _v: &Vendor) -> f64 {
        match self.lookup(cid, vid) {
            Some((_, d)) => d.max(self.min_distance),
            None => f64::INFINITY,
        }
    }

    fn similarity(&self, cid: CustomerId, _c: &Customer, vid: VendorId, _v: &Vendor) -> f64 {
        self.lookup(cid, vid).map_or(0.0, |(p, _)| p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geo::Point;
    use crate::money::Money;
    use crate::tags::TagVector;

    fn customer_with(interests: Vec<f64>, p: f64, at: Timestamp) -> Customer {
        Customer {
            location: Point::new(0.0, 0.0),
            capacity: 2,
            view_probability: p,
            interests: TagVector::new(interests).unwrap(),
            arrival: at,
        }
    }

    fn vendor_with(tags: Vec<f64>, loc: Point) -> Vendor {
        Vendor {
            location: loc,
            radius: 10.0,
            budget: Money::from_dollars(3.0),
            tags: TagVector::new(tags).unwrap(),
        }
    }

    #[test]
    fn weighted_pearson_matches_hand_computation() {
        // Uniform weights: plain Pearson of [0,1] vs [0,1] is 1.
        let r = PearsonUtility::weighted_pearson(&[0.0, 1.0], &[0.0, 1.0], &[1.0, 1.0]);
        assert!((r - 1.0).abs() < 1e-12);
        // Anti-correlated vectors give -1.
        let r = PearsonUtility::weighted_pearson(&[0.0, 1.0], &[1.0, 0.0], &[1.0, 1.0]);
        assert!((r + 1.0).abs() < 1e-12);
    }

    #[test]
    fn weighted_pearson_degenerate_cases() {
        // Constant vector → zero variance → similarity 0.
        assert_eq!(
            PearsonUtility::weighted_pearson(&[0.5, 0.5], &[0.0, 1.0], &[1.0, 1.0]),
            0.0
        );
        // Zero weights → 0.
        assert_eq!(
            PearsonUtility::weighted_pearson(&[0.0, 1.0], &[0.0, 1.0], &[0.0, 0.0]),
            0.0
        );
    }

    #[test]
    fn weights_change_the_correlation() {
        // Three tags; x and y agree on tag 0/1, disagree on tag 2.
        let x = [1.0, 0.0, 1.0];
        let y = [1.0, 0.0, 0.0];
        let agree = PearsonUtility::weighted_pearson(&x, &y, &[1.0, 1.0, 0.0]);
        let disagree = PearsonUtility::weighted_pearson(&x, &y, &[0.1, 0.1, 1.0]);
        assert!(agree > disagree);
        assert!((agree - 1.0).abs() < 1e-9);
    }

    #[test]
    fn pearson_utility_applies_eq4() {
        let model = PearsonUtility::uniform(2);
        let c = customer_with(vec![0.0, 1.0], 0.5, Timestamp::MIDNIGHT);
        let v = vendor_with(vec![0.0, 1.0], Point::new(0.0, 2.0));
        let ad = AdType::new("PL", Money::from_dollars(2.0), 0.4);
        // similarity = 1, d = 2 → λ = 0.5 * 0.4 * 1 / 2 = 0.1
        let lam = model.utility(CustomerId::new(0), &c, VendorId::new(0), &v, &ad);
        assert!((lam - 0.1).abs() < 1e-12);
        // efficiency = λ / $2
        let eff = model.efficiency(CustomerId::new(0), &c, VendorId::new(0), &v, &ad);
        assert!((eff - 0.05).abs() < 1e-12);
    }

    #[test]
    fn negative_similarity_clamps_to_zero_utility() {
        let model = PearsonUtility::uniform(2);
        let c = customer_with(vec![0.0, 1.0], 0.5, Timestamp::MIDNIGHT);
        let v = vendor_with(vec![1.0, 0.0], Point::new(0.0, 1.0));
        let ad = AdType::new("TL", Money::from_dollars(1.0), 0.1);
        assert_eq!(
            model.utility(CustomerId::new(0), &c, VendorId::new(0), &v, &ad),
            0.0
        );
    }

    #[test]
    fn zero_distance_is_clamped_not_infinite() {
        let model = PearsonUtility::uniform(2);
        let c = customer_with(vec![0.0, 1.0], 1.0, Timestamp::MIDNIGHT);
        let v = vendor_with(vec![0.0, 1.0], Point::new(0.0, 0.0));
        let ad = AdType::new("TL", Money::from_dollars(1.0), 0.1);
        let lam = model.utility(CustomerId::new(0), &c, VendorId::new(0), &v, &ad);
        assert!(lam.is_finite());
        assert!((lam - 0.1 / DEFAULT_MIN_DISTANCE).abs() < 1e-9);
    }

    #[test]
    fn fused_similarity_matches_weighted_pearson() {
        let curves: Vec<Vec<f64>> = (0..6)
            .map(|t| (0..24).map(|h| ((h + t) % 24) as f64 / 23.0).collect())
            .collect();
        let model = PearsonUtility::new(ActivityProfile::from_hourly(&curves).unwrap());
        for (i, at) in [0.0, 6.25, 13.37, 23.75].into_iter().enumerate() {
            let xs: Vec<f64> = (0..6).map(|t| ((t * 7 + i) % 5) as f64 / 4.0).collect();
            let ys: Vec<f64> = (0..6).map(|t| ((t * 3 + i) % 4) as f64 / 3.0).collect();
            let c = customer_with(xs.clone(), 0.5, Timestamp::from_hours(at));
            let v = vendor_with(ys.clone(), Point::new(1.0, 1.0));
            let mut weights = Vec::new();
            model.activity().levels_at(c.arrival, &mut weights);
            let expect = PearsonUtility::weighted_pearson(&xs, &ys, &weights).clamp(0.0, 1.0);
            let got = model.similarity(CustomerId::new(0), &c, VendorId::new(0), &v);
            assert!(
                (got - expect).abs() < 1e-12,
                "fused similarity drifted: {got} vs {expect}"
            );
        }
    }

    #[test]
    fn similarity_with_moments_is_bit_identical_to_similarity() {
        let curves: Vec<Vec<f64>> = (0..8)
            .map(|t| {
                (0..24)
                    .map(|h| (((h * (t + 2)) % 24) as f64 / 23.0).min(1.0))
                    .collect()
            })
            .collect();
        let model = PearsonUtility::new(ActivityProfile::from_hourly(&curves).unwrap());
        for seed in 0..16u64 {
            let xs: Vec<f64> = (0..8).map(|t| ((seed + t * 5) % 7) as f64 / 6.0).collect();
            let ys: Vec<f64> = (0..8).map(|t| ((seed * 3 + t) % 6) as f64 / 5.0).collect();
            let at = Timestamp::from_hours((seed as f64 * 1.7) % 24.0);
            let c = customer_with(xs, 0.5, at);
            let v = vendor_with(ys, Point::new(2.0, 3.0));
            let direct = model.similarity(CustomerId::new(0), &c, VendorId::new(0), &v);
            let moments = model.customer_moments(&c);
            let cached = model.similarity_with_moments(&moments, &c, &v);
            assert_eq!(
                direct.to_bits(),
                cached.to_bits(),
                "moments path not bit-identical: {direct} vs {cached}"
            );
        }
    }

    #[test]
    fn similarity_from_parts_matches_moments_path() {
        let model = PearsonUtility::uniform(5);
        for seed in 0..8u64 {
            let xs: Vec<f64> = (0..5).map(|t| ((seed + t * 3) % 6) as f64 / 5.0).collect();
            let ys: Vec<f64> = (0..5).map(|t| ((seed * 2 + t) % 4) as f64 / 3.0).collect();
            let c = customer_with(xs.clone(), 0.5, Timestamp::MIDNIGHT);
            let v = vendor_with(ys.clone(), Point::new(1.0, 0.0));
            let m = model.customer_moments(&c);
            let via_struct = model.similarity_with_moments(&m, &c, &v);
            let via_parts = PearsonUtility::similarity_from_parts(
                m.weights(),
                &xs,
                m.sw(),
                m.swx(),
                m.swxx(),
                &ys,
            );
            assert_eq!(via_struct.to_bits(), via_parts.to_bits());
        }
    }

    #[test]
    fn as_pearson_downcast() {
        let pearson = PearsonUtility::uniform(2);
        assert!(UtilityModel::as_pearson(&pearson).is_some());
        assert!(TableUtility::new().as_pearson().is_none());
    }

    #[test]
    fn table_utility_reproduces_paper_example_value() {
        // Paper: sending a PL ad of v2 to u3 has utility
        // 0.15 · 0.4 · (0.9 / 7.5) = 0.0072.
        let table = TableUtility::new().with_pair(CustomerId::new(2), VendorId::new(1), 0.9, 7.5);
        let c = customer_with(vec![0.0, 0.0], 0.15, Timestamp::MIDNIGHT);
        let v = vendor_with(vec![0.0, 0.0], Point::new(0.0, 0.0));
        let pl = AdType::new("PL", Money::from_dollars(2.0), 0.4);
        let lam = table.utility(CustomerId::new(2), &c, VendorId::new(1), &v, &pl);
        assert!((lam - 0.0072).abs() < 1e-12);
    }

    #[test]
    fn table_utility_missing_pair_is_unreachable() {
        let table = TableUtility::new();
        let c = customer_with(vec![0.0], 0.5, Timestamp::MIDNIGHT);
        let v = vendor_with(vec![0.0], Point::new(0.0, 0.0));
        assert_eq!(
            table.distance(CustomerId::new(0), &c, VendorId::new(0), &v),
            f64::INFINITY
        );
        let ad = AdType::new("TL", Money::from_dollars(1.0), 0.1);
        assert_eq!(
            table.utility(CustomerId::new(0), &c, VendorId::new(0), &v, &ad),
            0.0
        );
    }

    #[test]
    fn table_utility_lookup_is_insertion_order_independent() {
        // Insert the same pairs in two different orders (including an
        // overwrite) and require identical lookups, lengths, and Debug
        // output — the sorted-Vec representation has one canonical form.
        let pairs = [
            (3u32, 1u32, 0.2, 4.0),
            (0, 2, 0.9, 1.5),
            (3, 0, 0.5, 2.0),
            (1, 1, 0.7, 3.0),
            (0, 0, 0.1, 9.0),
        ];
        let mut forward = TableUtility::new();
        for &(c, v, p, d) in &pairs {
            forward.set_pair(CustomerId::new(c), VendorId::new(v), p, d);
        }
        let mut reverse = TableUtility::new();
        // Stale value first, then the overwrite on the (1,1) slot.
        reverse.set_pair(CustomerId::new(1), VendorId::new(1), 0.3, 8.0);
        for &(c, v, p, d) in pairs.iter().rev() {
            reverse.set_pair(CustomerId::new(c), VendorId::new(v), p, d);
        }
        assert_eq!(forward.len(), 5);
        assert_eq!(reverse.len(), 5);
        assert_eq!(format!("{forward:?}"), format!("{reverse:?}"));
        let c = customer_with(vec![0.0], 0.5, Timestamp::MIDNIGHT);
        let v = vendor_with(vec![0.0], Point::new(0.0, 0.0));
        for &(ci, vi, p, d) in &pairs {
            let (cid, vid) = (CustomerId::new(ci), VendorId::new(vi));
            assert_eq!(forward.similarity(cid, &c, vid, &v), p);
            assert_eq!(reverse.similarity(cid, &c, vid, &v), p);
            assert_eq!(forward.distance(cid, &c, vid, &v), d);
            assert_eq!(reverse.distance(cid, &c, vid, &v), d);
        }
        // Absent keys adjacent to present ones still miss.
        assert_eq!(
            forward.distance(CustomerId::new(2), &c, VendorId::new(0), &v),
            f64::INFINITY
        );
    }
}
