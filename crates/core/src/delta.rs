//! Incremental mutation vocabulary for
//! [`ProblemInstance`](crate::instance::ProblemInstance): the typed
//! deltas a live broker applies between solver runs (customer arrivals,
//! departures and movement; vendor budget/radius updates; ad-type
//! repricing), batched for atomic-ish application.
//!
//! Every delta is validated against the same invariants as
//! [`ProblemInstance::new`](crate::instance::ProblemInstance::new)
//! before it mutates anything, and each applied delta bumps the
//! instance's *epoch* counter so downstream caches
//! (spatial indexes, CSR eligibility, pair-base memos) can detect
//! staleness without diffing the whole instance.
//!
//! ## Removal semantics
//!
//! [`Delta::RemoveCustomer`] is a *swap remove*: the customer holding
//! the **last** id moves into the removed slot and takes its id, so ids
//! stay dense and exactly one customer is renamed. This deliberately
//! trades tail arrival-order stability for O(1) index maintenance —
//! online replays stream arrivals through sessions, not through the
//! instance's storage order.
//!
//! The vendor and ad-type populations are fixed for the lifetime of an
//! instance (only their fields change); this keeps every per-vendor
//! table (CSR rows, radius classes, memo columns) stably indexed.
//!
//! ## Row vs column deltas
//!
//! Customer deltas are *row* operations on the customer×vendor pair
//! tables downstream contexts maintain; [`Delta::VendorTags`] and
//! [`Delta::VendorRadius`] are the *column* duals — one vendor's
//! interaction with every customer changes at once. The epoch semantics
//! are identical either way: validate, mutate, bump.

use crate::entities::{AdType, Customer};
use crate::geo::Point;
use crate::ids::{AdTypeId, CustomerId, VendorId};
#[cfg(test)]
use crate::instance::ProblemInstance;
use crate::money::Money;
use crate::tags::TagVector;

/// One incremental mutation of a
/// [`ProblemInstance`](crate::instance::ProblemInstance).
#[derive(Clone, Debug)]
pub enum Delta {
    /// Append a new customer; it receives the next dense id.
    AddCustomer(Customer),
    /// Swap-remove a customer: the last customer takes this id.
    RemoveCustomer(CustomerId),
    /// Relocate a customer to a new position (same interests/arrival).
    MoveCustomer(CustomerId, Point),
    /// Replace a vendor's remaining budget `B_j`.
    VendorBudget(VendorId, Money),
    /// Replace a vendor's broadcast radius `r_j`.
    VendorRadius(VendorId, f64),
    /// Replace a vendor's broadcast tag vector `ψ_j`.
    ///
    /// The column-reset dual of the customer-side row operations: one
    /// vendor's interaction with *every* customer changes at once, so
    /// downstream contexts invalidate the vendor's memo column and
    /// re-derive its Pearson interaction against the precomputed
    /// per-customer moments.
    VendorTags(VendorId, TagVector),
    /// Replace an ad type's definition (cost `c_k`, effectiveness `β_k`).
    AdType(AdTypeId, AdType),
}

/// An ordered batch of [`Delta`]s, applied front to back.
#[derive(Clone, Debug, Default)]
pub struct DeltaBatch {
    deltas: Vec<Delta>,
}

impl DeltaBatch {
    /// Start an empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a raw delta.
    pub fn push(&mut self, delta: Delta) {
        // Batch construction runs between solves, never under a hot
        // kernel; the D13 edge is a hot caller's Vec push resolving to
        // this same-named method. lint: allow(hot_call)
        self.deltas.push(delta);
    }

    /// Append a customer arrival; returns `self` for chaining.
    pub fn add_customer(mut self, c: Customer) -> Self {
        self.deltas.push(Delta::AddCustomer(c));
        self
    }

    /// Append a customer departure (swap remove).
    pub fn remove_customer(mut self, id: CustomerId) -> Self {
        self.deltas.push(Delta::RemoveCustomer(id));
        self
    }

    /// Append a customer relocation.
    pub fn move_customer(mut self, id: CustomerId, to: Point) -> Self {
        self.deltas.push(Delta::MoveCustomer(id, to));
        self
    }

    /// Append a vendor budget update.
    pub fn vendor_budget(mut self, id: VendorId, budget: Money) -> Self {
        self.deltas.push(Delta::VendorBudget(id, budget));
        self
    }

    /// Append a vendor radius update.
    pub fn vendor_radius(mut self, id: VendorId, radius: f64) -> Self {
        self.deltas.push(Delta::VendorRadius(id, radius));
        self
    }

    /// Append a vendor tag-vector replacement (column reset).
    pub fn vendor_tags(mut self, id: VendorId, tags: TagVector) -> Self {
        self.deltas.push(Delta::VendorTags(id, tags));
        self
    }

    /// Append an ad-type redefinition.
    pub fn ad_type(mut self, id: AdTypeId, t: AdType) -> Self {
        // Builder-side recorder; the solver context's read accessor
        // shares the `ad_type` name, which is where the D13 hot edge
        // comes from. lint: allow(hot_call)
        self.deltas.push(Delta::AdType(id, t));
        self
    }

    /// The deltas, in application order.
    #[inline]
    pub fn deltas(&self) -> &[Delta] {
        &self.deltas
    }

    /// Iterate the deltas in application order.
    pub fn iter(&self) -> std::slice::Iter<'_, Delta> {
        self.deltas.iter()
    }

    /// Number of deltas in the batch.
    #[inline]
    pub fn len(&self) -> usize {
        self.deltas.len()
    }

    /// `true` iff the batch holds no deltas.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.deltas.is_empty()
    }
}

impl<'a> IntoIterator for &'a DeltaBatch {
    type Item = &'a Delta;
    type IntoIter = std::slice::Iter<'a, Delta>;
    fn into_iter(self) -> Self::IntoIter {
        self.deltas.iter()
    }
}

impl From<Vec<Delta>> for DeltaBatch {
    fn from(deltas: Vec<Delta>) -> Self {
        DeltaBatch { deltas }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activity::Timestamp;
    use crate::entities::Vendor;
    use crate::instance::InstanceBuilder;
    use crate::tags::TagVector;

    fn ad() -> AdType {
        AdType::new("TL", Money::from_dollars(1.0), 0.1)
    }

    fn cust(x: f64) -> Customer {
        Customer {
            location: Point::new(x, 0.5),
            capacity: 2,
            view_probability: 0.3,
            interests: TagVector::zeros(2),
            arrival: Timestamp::MIDNIGHT,
        }
    }

    fn vend() -> Vendor {
        Vendor {
            location: Point::new(0.4, 0.5),
            radius: 0.2,
            budget: Money::from_dollars(3.0),
            tags: TagVector::zeros(2),
        }
    }

    fn instance() -> ProblemInstance {
        InstanceBuilder::new()
            .ad_type(ad())
            .customers([cust(0.1), cust(0.2), cust(0.3)])
            .vendor(vend())
            .build()
            .unwrap()
    }

    #[test]
    fn batch_builder_orders_deltas() {
        let b = DeltaBatch::new()
            .add_customer(cust(0.9))
            .remove_customer(CustomerId::new(0))
            .vendor_budget(VendorId::new(0), Money::from_dollars(1.0));
        assert_eq!(b.len(), 3);
        assert!(matches!(b.deltas()[0], Delta::AddCustomer(_)));
        assert!(matches!(b.deltas()[2], Delta::VendorBudget(..)));
    }

    #[test]
    fn apply_add_move_remove_roundtrip() {
        let mut inst = instance();
        let epoch0 = inst.epoch();
        inst.apply(&Delta::AddCustomer(cust(0.9))).unwrap();
        assert_eq!(inst.num_customers(), 4);
        assert_eq!(inst.epoch(), epoch0 + 1);

        inst.apply(&Delta::MoveCustomer(
            CustomerId::new(1),
            Point::new(0.7, 0.7),
        ))
        .unwrap();
        assert_eq!(
            inst.customer(CustomerId::new(1)).location,
            Point::new(0.7, 0.7)
        );

        // Swap remove: the last customer (x = 0.9) takes id 0.
        inst.apply(&Delta::RemoveCustomer(CustomerId::new(0)))
            .unwrap();
        assert_eq!(inst.num_customers(), 3);
        assert_eq!(inst.customer(CustomerId::new(0)).location.x, 0.9);
        assert_eq!(inst.epoch(), epoch0 + 3);
    }

    #[test]
    fn apply_vendor_and_ad_type_updates() {
        let mut inst = instance();
        inst.apply(&Delta::VendorBudget(
            VendorId::new(0),
            Money::from_dollars(9.0),
        ))
        .unwrap();
        assert_eq!(
            inst.vendor(VendorId::new(0)).budget,
            Money::from_dollars(9.0)
        );
        inst.apply(&Delta::VendorRadius(VendorId::new(0), 0.5))
            .unwrap();
        assert_eq!(inst.vendor(VendorId::new(0)).radius, 0.5);
        inst.apply(&Delta::VendorTags(
            VendorId::new(0),
            TagVector::new(vec![1.0, 0.25]).unwrap(),
        ))
        .unwrap();
        assert_eq!(inst.vendor(VendorId::new(0)).tags.as_slice(), &[1.0, 0.25]);
        inst.apply(&Delta::AdType(
            AdTypeId::new(0),
            AdType::new("TL2", Money::from_dollars(2.0), 0.2),
        ))
        .unwrap();
        assert_eq!(inst.ad_type(AdTypeId::new(0)).name, "TL2");
    }

    #[test]
    fn apply_rejects_invalid_deltas_without_bumping_epoch() {
        let mut inst = instance();
        let epoch0 = inst.epoch();
        // Out-of-range ids.
        assert!(inst
            .apply(&Delta::RemoveCustomer(CustomerId::new(7)))
            .is_err());
        assert!(inst
            .apply(&Delta::MoveCustomer(
                CustomerId::new(7),
                Point::new(0.0, 0.0)
            ))
            .is_err());
        assert!(inst
            .apply(&Delta::VendorRadius(VendorId::new(3), 0.1))
            .is_err());
        // Invalid field values.
        assert!(inst
            .apply(&Delta::VendorRadius(VendorId::new(0), -1.0))
            .is_err());
        assert!(inst
            .apply(&Delta::MoveCustomer(
                CustomerId::new(0),
                Point::new(f64::NAN, 0.0)
            ))
            .is_err());
        let mut wrong_tags = cust(0.5);
        wrong_tags.interests = TagVector::zeros(5);
        assert!(inst.apply(&Delta::AddCustomer(wrong_tags)).is_err());
        assert!(inst
            .apply(&Delta::VendorTags(VendorId::new(0), TagVector::zeros(5)))
            .is_err());
        assert!(inst
            .apply(&Delta::VendorTags(VendorId::new(3), TagVector::zeros(2)))
            .is_err());
        assert!(inst
            .apply(&Delta::AdType(
                AdTypeId::new(0),
                AdType::new("F", Money::ZERO, 0.1)
            ))
            .is_err());
        assert_eq!(
            inst.epoch(),
            epoch0,
            "failed deltas must not bump the epoch"
        );
    }

    #[test]
    fn apply_delta_batch_applies_in_order() {
        let mut inst = instance();
        let epoch0 = inst.epoch();
        let batch = DeltaBatch::new()
            .add_customer(cust(0.9))
            .move_customer(CustomerId::new(3), Point::new(0.6, 0.6))
            .remove_customer(CustomerId::new(1));
        inst.apply_delta(&batch).unwrap();
        assert_eq!(inst.num_customers(), 3);
        assert_eq!(inst.epoch(), epoch0 + 3);
        // Id 1 now holds the moved add (former last).
        assert_eq!(
            inst.customer(CustomerId::new(1)).location,
            Point::new(0.6, 0.6)
        );
    }

    #[test]
    fn batch_failure_keeps_applied_prefix() {
        let mut inst = instance();
        let batch = DeltaBatch::new()
            .add_customer(cust(0.9))
            .remove_customer(CustomerId::new(42));
        assert!(inst.apply_delta(&batch).is_err());
        // The valid prefix stayed applied, with its epoch bump.
        assert_eq!(inst.num_customers(), 4);
        assert_eq!(inst.epoch(), 1);
    }
}
