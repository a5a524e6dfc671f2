//! The MUAA problem instance: the offline snapshot `(U_φ, V_φ, T)`,
//! plus the epoch-counted mutation API ([`ProblemInstance::apply_delta`])
//! that lets the snapshot evolve in place between solver runs.

use crate::delta::{Delta, DeltaBatch};
use crate::entities::{AdType, Customer, Vendor};
use crate::error::CoreError;
use crate::ids::{AdTypeId, CustomerId, VendorId};
use crate::money::Money;

/// A complete MUAA problem instance (Definition 5 inputs).
///
/// Customers are stored in arrival order: online algorithms consume them
/// front-to-back, offline algorithms see the whole snapshot at once.
/// The instance is mutable through the typed [`Delta`] vocabulary only;
/// every applied delta bumps [`ProblemInstance::epoch`] so derived
/// indexes can detect staleness cheaply.
#[derive(Clone, Debug)]
pub struct ProblemInstance {
    customers: Vec<Customer>,
    vendors: Vec<Vendor>,
    ad_types: Vec<AdType>,
    tag_universe: usize,
    epoch: u64,
}

impl ProblemInstance {
    /// Build and validate an instance. Prefer [`InstanceBuilder`] for
    /// incremental construction.
    pub fn new(
        customers: Vec<Customer>,
        vendors: Vec<Vendor>,
        ad_types: Vec<AdType>,
    ) -> Result<Self, CoreError> {
        if ad_types.is_empty() {
            return Err(CoreError::NoAdTypes);
        }
        let tag_universe = customers
            .first()
            .map(|c| c.interests.len())
            .or_else(|| vendors.first().map(|v| v.tags.len()))
            .unwrap_or(0);
        for (i, c) in customers.iter().enumerate() {
            let id = CustomerId::from(i);
            c.validate(id)?;
            if c.interests.len() != tag_universe {
                return Err(CoreError::TagUniverseMismatch {
                    entity: format!("customer {id}"),
                    got: c.interests.len(),
                    expected: tag_universe,
                });
            }
        }
        for (j, v) in vendors.iter().enumerate() {
            let id = VendorId::from(j);
            v.validate(id)?;
            if v.tags.len() != tag_universe {
                return Err(CoreError::TagUniverseMismatch {
                    entity: format!("vendor {id}"),
                    got: v.tags.len(),
                    expected: tag_universe,
                });
            }
        }
        for (k, t) in ad_types.iter().enumerate() {
            t.validate(AdTypeId::from(k))?;
        }
        Ok(ProblemInstance {
            customers,
            vendors,
            ad_types,
            tag_universe,
            epoch: 0,
        })
    }

    /// Monotone mutation counter: starts at 0 and increments once per
    /// successfully applied [`Delta`]. Two instances with equal epochs
    /// that share a construction history are identical, so derived
    /// structures key their validity on this value.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Validate and apply one delta; bumps the epoch on success and
    /// leaves the instance untouched on error.
    pub fn apply(&mut self, delta: &Delta) -> Result<(), CoreError> {
        match delta {
            // The owning path bumps the epoch itself.
            Delta::AddCustomer(c) => return self.add_customer(c.clone()).map(drop),
            Delta::RemoveCustomer(id) => {
                self.check_customer(*id)?;
                self.customers.swap_remove(id.index());
            }
            Delta::MoveCustomer(id, to) => {
                self.check_customer(*id)?;
                if !to.is_finite() {
                    return Err(CoreError::InvalidCustomer {
                        id: *id,
                        reason: "non-finite location".into(),
                    });
                }
                self.customers[id.index()].location = *to;
            }
            Delta::VendorBudget(id, budget) => {
                self.check_vendor(*id)?;
                self.vendors[id.index()].budget = *budget;
            }
            Delta::VendorRadius(id, radius) => {
                self.check_vendor(*id)?;
                if !radius.is_finite() || *radius < 0.0 {
                    return Err(CoreError::InvalidVendor {
                        id: *id,
                        reason: format!("radius {radius} must be finite and non-negative"),
                    });
                }
                self.vendors[id.index()].radius = *radius;
            }
            Delta::VendorTags(id, tags) => {
                self.check_vendor(*id)?;
                if tags.len() != self.tag_universe {
                    return Err(CoreError::TagUniverseMismatch {
                        entity: format!("vendor {id}"),
                        got: tags.len(),
                        expected: self.tag_universe,
                    });
                }
                // Tag vectors can come from `TagVector::new_unchecked`,
                // so re-validate the score range before accepting one
                // from the outside.
                for (idx, s) in tags.iter() {
                    if !s.is_finite() || !(0.0..=1.0).contains(&s) {
                        return Err(CoreError::InvalidVendor {
                            id: *id,
                            reason: format!("tag score {s} at index {idx} outside [0, 1]"),
                        });
                    }
                }
                // In place: the vendor's buffer has the universe's length.
                self.vendors[id.index()].tags.clone_from(tags);
            }
            Delta::AdType(id, t) => {
                if id.index() >= self.ad_types.len() {
                    return Err(CoreError::UnknownId {
                        what: format!("ad type {id}"),
                    });
                }
                t.validate(*id)?;
                self.ad_types[id.index()] = t.clone();
            }
        }
        self.epoch += 1;
        Ok(())
    }

    /// Validate and append a new customer, taking ownership: what
    /// `apply(&Delta::AddCustomer(c))` does, without copying `c`.
    /// Returns the id it received; bumps the epoch on success and
    /// leaves the instance untouched on error.
    pub fn add_customer(&mut self, c: Customer) -> Result<CustomerId, CoreError> {
        let id = CustomerId::from(self.customers.len());
        c.validate(id)?;
        if c.interests.len() != self.tag_universe {
            return Err(CoreError::TagUniverseMismatch {
                entity: format!("customer {id}"),
                got: c.interests.len(),
                expected: self.tag_universe,
            });
        }
        self.customers.push(c);
        self.epoch += 1;
        Ok(id)
    }

    /// Apply a batch front to back. Stops at the first invalid delta,
    /// leaving the valid prefix applied (each prefix delta bumped the
    /// epoch); the instance is always in a consistent state.
    pub fn apply_delta(&mut self, batch: &DeltaBatch) -> Result<(), CoreError> {
        for delta in batch {
            self.apply(delta)?;
        }
        Ok(())
    }

    fn check_customer(&self, id: CustomerId) -> Result<(), CoreError> {
        if id.index() >= self.customers.len() {
            return Err(CoreError::UnknownId {
                what: format!("customer {id}"),
            });
        }
        Ok(())
    }

    fn check_vendor(&self, id: VendorId) -> Result<(), CoreError> {
        if id.index() >= self.vendors.len() {
            return Err(CoreError::UnknownId {
                what: format!("vendor {id}"),
            });
        }
        Ok(())
    }

    /// All customers, in arrival order.
    #[inline]
    pub fn customers(&self) -> &[Customer] {
        &self.customers
    }

    /// All vendors.
    #[inline]
    pub fn vendors(&self) -> &[Vendor] {
        &self.vendors
    }

    /// All ad types.
    #[inline]
    pub fn ad_types(&self) -> &[AdType] {
        &self.ad_types
    }

    /// Size of the tag universe `|Ψ|` shared by all tag vectors.
    #[inline]
    pub fn tag_universe(&self) -> usize {
        self.tag_universe
    }

    /// Number of customers `m`.
    #[inline]
    pub fn num_customers(&self) -> usize {
        self.customers.len()
    }

    /// Number of vendors `n`.
    #[inline]
    pub fn num_vendors(&self) -> usize {
        self.vendors.len()
    }

    /// Number of ad types `q`.
    #[inline]
    pub fn num_ad_types(&self) -> usize {
        self.ad_types.len()
    }

    /// Look up a customer.
    #[inline]
    pub fn customer(&self, id: CustomerId) -> &Customer {
        &self.customers[id.index()]
    }

    /// Look up a vendor.
    #[inline]
    pub fn vendor(&self, id: VendorId) -> &Vendor {
        &self.vendors[id.index()]
    }

    /// Look up an ad type.
    #[inline]
    pub fn ad_type(&self, id: AdTypeId) -> &AdType {
        &self.ad_types[id.index()]
    }

    /// Iterate over `(id, customer)` pairs.
    pub fn customers_enumerated(&self) -> impl Iterator<Item = (CustomerId, &Customer)> {
        self.customers
            .iter()
            .enumerate()
            .map(|(i, c)| (CustomerId::from(i), c))
    }

    /// Iterate over `(id, vendor)` pairs.
    pub fn vendors_enumerated(&self) -> impl Iterator<Item = (VendorId, &Vendor)> {
        self.vendors
            .iter()
            .enumerate()
            .map(|(j, v)| (VendorId::from(j), v))
    }

    /// Iterate over `(id, ad type)` pairs.
    pub fn ad_types_enumerated(&self) -> impl Iterator<Item = (AdTypeId, &AdType)> {
        self.ad_types
            .iter()
            .enumerate()
            .map(|(k, t)| (AdTypeId::from(k), t))
    }

    /// The cheapest ad-type cost — the threshold below which a vendor's
    /// remaining budget can buy nothing.
    pub fn min_ad_cost(&self) -> Money {
        self.ad_types
            .iter()
            .map(|t| t.cost)
            .min()
            .unwrap_or(Money::ZERO)
    }

    /// Aggregate statistics, for reports and sanity checks.
    pub fn stats(&self) -> InstanceStats {
        let total_budget: Money = self.vendors.iter().map(|v| v.budget).sum();
        let total_capacity: u64 = self.customers.iter().map(|c| u64::from(c.capacity)).sum();
        let mean_radius = if self.vendors.is_empty() {
            0.0
        } else {
            self.vendors.iter().map(|v| v.radius).sum::<f64>() / self.vendors.len() as f64
        };
        InstanceStats {
            customers: self.customers.len(),
            vendors: self.vendors.len(),
            ad_types: self.ad_types.len(),
            tag_universe: self.tag_universe,
            total_budget,
            total_capacity,
            mean_radius,
        }
    }
}

/// Aggregate statistics of a [`ProblemInstance`].
#[derive(Clone, Debug, PartialEq)]
pub struct InstanceStats {
    /// Number of customers `m`.
    pub customers: usize,
    /// Number of vendors `n`.
    pub vendors: usize,
    /// Number of ad types `q`.
    pub ad_types: usize,
    /// Tag-universe size `w`.
    pub tag_universe: usize,
    /// Sum of all vendor budgets.
    pub total_budget: Money,
    /// Sum of all customer capacities.
    pub total_capacity: u64,
    /// Mean vendor radius.
    pub mean_radius: f64,
}

/// Incremental builder for [`ProblemInstance`].
///
/// ```
/// use muaa_core::*;
/// let instance = InstanceBuilder::new()
///     .ad_type(AdType::new("TL", Money::from_dollars(1.0), 0.1))
///     .customer(Customer {
///         location: Point::new(0.5, 0.5),
///         capacity: 2,
///         view_probability: 0.3,
///         interests: TagVector::zeros(2),
///         arrival: Timestamp::MIDNIGHT,
///     })
///     .vendor(Vendor {
///         location: Point::new(0.4, 0.5),
///         radius: 0.2,
///         budget: Money::from_dollars(3.0),
///         tags: TagVector::zeros(2),
///     })
///     .build()
///     .unwrap();
/// assert_eq!(instance.num_customers(), 1);
/// ```
#[derive(Default, Debug)]
pub struct InstanceBuilder {
    customers: Vec<Customer>,
    vendors: Vec<Vendor>,
    ad_types: Vec<AdType>,
}

impl InstanceBuilder {
    /// Start an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a customer; returns `self` for chaining.
    pub fn customer(mut self, c: Customer) -> Self {
        self.customers.push(c);
        self
    }

    /// Add many customers.
    pub fn customers(mut self, cs: impl IntoIterator<Item = Customer>) -> Self {
        self.customers.extend(cs);
        self
    }

    /// Add a vendor.
    pub fn vendor(mut self, v: Vendor) -> Self {
        self.vendors.push(v);
        self
    }

    /// Add many vendors.
    pub fn vendors(mut self, vs: impl IntoIterator<Item = Vendor>) -> Self {
        self.vendors.extend(vs);
        self
    }

    /// Add an ad type.
    pub fn ad_type(mut self, t: AdType) -> Self {
        self.ad_types.push(t);
        self
    }

    /// Add many ad types.
    pub fn ad_types(mut self, ts: impl IntoIterator<Item = AdType>) -> Self {
        self.ad_types.extend(ts);
        self
    }

    /// Validate and build the instance.
    pub fn build(self) -> Result<ProblemInstance, CoreError> {
        ProblemInstance::new(self.customers, self.vendors, self.ad_types)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activity::Timestamp;
    use crate::geo::Point;
    use crate::tags::TagVector;

    fn ad() -> AdType {
        AdType::new("TL", Money::from_dollars(1.0), 0.1)
    }

    fn cust(tags: usize) -> Customer {
        Customer {
            location: Point::new(0.5, 0.5),
            capacity: 2,
            view_probability: 0.3,
            interests: TagVector::zeros(tags),
            arrival: Timestamp::MIDNIGHT,
        }
    }

    fn vend(tags: usize) -> Vendor {
        Vendor {
            location: Point::new(0.4, 0.5),
            radius: 0.2,
            budget: Money::from_dollars(3.0),
            tags: TagVector::zeros(tags),
        }
    }

    #[test]
    fn builder_builds_valid_instance() {
        let inst = InstanceBuilder::new()
            .ad_type(ad())
            .customer(cust(2))
            .vendor(vend(2))
            .build()
            .unwrap();
        assert_eq!(inst.num_customers(), 1);
        assert_eq!(inst.num_vendors(), 1);
        assert_eq!(inst.num_ad_types(), 1);
        assert_eq!(inst.tag_universe(), 2);
    }

    #[test]
    fn rejects_missing_ad_types() {
        let err = InstanceBuilder::new()
            .customer(cust(2))
            .build()
            .unwrap_err();
        assert_eq!(err, CoreError::NoAdTypes);
    }

    #[test]
    fn rejects_tag_universe_mismatch() {
        let err = InstanceBuilder::new()
            .ad_type(ad())
            .customer(cust(2))
            .vendor(vend(3))
            .build()
            .unwrap_err();
        assert!(matches!(err, CoreError::TagUniverseMismatch { .. }));
    }

    #[test]
    fn rejects_invalid_entities() {
        let mut bad = cust(2);
        bad.view_probability = -0.1;
        assert!(InstanceBuilder::new()
            .ad_type(ad())
            .customer(bad)
            .build()
            .is_err());

        let mut bad = vend(2);
        bad.radius = f64::INFINITY;
        assert!(InstanceBuilder::new()
            .ad_type(ad())
            .vendor(bad)
            .build()
            .is_err());
    }

    #[test]
    fn stats_aggregate() {
        let inst = InstanceBuilder::new()
            .ad_type(ad())
            .ad_type(AdType::new("PL", Money::from_dollars(2.0), 0.4))
            .customers([cust(2), cust(2)])
            .vendor(vend(2))
            .build()
            .unwrap();
        let s = inst.stats();
        assert_eq!(s.customers, 2);
        assert_eq!(s.total_capacity, 4);
        assert_eq!(s.total_budget, Money::from_dollars(3.0));
        assert!((s.mean_radius - 0.2).abs() < 1e-12);
        assert_eq!(inst.min_ad_cost(), Money::from_dollars(1.0));
    }

    #[test]
    fn lookup_and_enumeration() {
        let inst = InstanceBuilder::new()
            .ad_type(ad())
            .customers([cust(2), cust(2)])
            .vendor(vend(2))
            .build()
            .unwrap();
        assert_eq!(inst.customer(CustomerId::new(1)).capacity, 2);
        assert_eq!(inst.vendor(VendorId::new(0)).radius, 0.2);
        assert_eq!(inst.ad_type(AdTypeId::new(0)).name, "TL");
        assert_eq!(inst.customers_enumerated().count(), 2);
        assert_eq!(inst.vendors_enumerated().count(), 1);
        assert_eq!(inst.ad_types_enumerated().count(), 1);
    }
}
