//! # muaa-testkit
//!
//! The property-test runner of the MUAA suites, over
//! [`muaa_core::DetRng`], plus the generators more than one suite uses.
//!
//! [`for_all`] draws every case from a seed that is a pure function of
//! the property name and the case index, so rerunning a test replays
//! each case exactly. There is no shrinking and nothing to configure: a
//! failing case panics with the property name, case index, seed and the
//! full input.
//!
//! Generators are plain functions of a `&mut DetRng`; each suite passes
//! its own ranges.

use std::fmt::Debug;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

use muaa_core::{
    ActivityProfile, AdType, AdTypeId, Customer, CustomerId, Delta, DeltaBatch, InstanceBuilder,
    Money, Point, ProblemInstance, TagVector, Timestamp, Vendor, VendorId,
};

pub use muaa_core::DetRng;

/// Check `prop` on `cases` inputs drawn by `gen`.
///
/// Case `i` draws its input from a fresh [`DetRng`] seeded by the
/// property `name` and `i`. If `prop` panics, `for_all` panics in turn
/// with the name, the case index, the seed and the input's `{:#?}`.
pub fn for_all<T: Debug>(
    name: &str,
    cases: u32,
    gen: impl Fn(&mut DetRng) -> T,
    prop: impl Fn(&T),
) {
    for case in 0..cases {
        let seed = case_seed(name, case);
        let input = gen(&mut DetRng::seed_from_u64(seed));
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| prop(&input))) {
            let cause = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("(non-string panic payload)");
            panic!(
                "property `{name}` failed at case {case} (seed {seed:#018x}): {cause}\n\
                 input: {input:#?}"
            );
        }
    }
}

/// FNV-1a of the name, with the case index spread by the golden ratio.
fn case_seed(name: &str, case: u32) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in name.bytes() {
        hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
    }
    hash ^ u64::from(case).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Uniform `f64` in `range`.
pub fn f64_in(rng: &mut DetRng, range: Range<f64>) -> f64 {
    rng.gen_range_f64(range.start, range.end)
}

/// Uniform `usize` in `range`.
pub fn usize_in(rng: &mut DetRng, range: Range<usize>) -> usize {
    rng.gen_range(range.start, range.end)
}

/// Uniform `u64` in `range`.
pub fn u64_in(rng: &mut DetRng, range: Range<u64>) -> u64 {
    range.start + rng.next_u64() % (range.end - range.start)
}

/// `len` uniform draws from `range`.
pub fn floats(rng: &mut DetRng, len: usize, range: Range<f64>) -> Vec<f64> {
    (0..len).map(|_| f64_in(rng, range.clone())).collect()
}

/// A vector with a length uniform in `len`, each element drawn by
/// `elem`.
pub fn vec_of<T>(
    rng: &mut DetRng,
    len: Range<usize>,
    mut elem: impl FnMut(&mut DetRng) -> T,
) -> Vec<T> {
    let n = usize_in(rng, len);
    (0..n).map(|_| elem(rng)).collect()
}

/// `tags` scores in `[0, 1)` with each block of
/// [`LANES`](muaa_core::simd::LANES) scores, the ragged last one
/// included, zeroed with probability 1/2: the sparse tag vectors of
/// category-coded vendors, whose zero blocks the pair kernel skips.
pub fn sparse_scores(rng: &mut DetRng, tags: usize) -> Vec<f64> {
    let mut scores = floats(rng, tags, 0.0..1.0);
    for block in scores.chunks_mut(muaa_core::simd::LANES) {
        if rng.gen_bool(0.5) {
            block.fill(0.0);
        }
    }
    scores
}

/// An index into `weights`, drawn with probability proportional to its
/// weight.
pub fn pick(rng: &mut DetRng, weights: &[u32]) -> usize {
    let total: u32 = weights.iter().sum();
    let mut ticket = rng.gen_range_usize(total as usize) as u32;
    for (i, &w) in weights.iter().enumerate() {
        if ticket < w {
            return i;
        }
        ticket -= w;
    }
    unreachable!("the ticket is below the weight total")
}

/// Hourly activity for `tags` tags, each a ramp from 0.1 to 0.9 over
/// the day with tag `t` shifted by `stride * t` hours, so solvers see
/// time-dependent moments rather than the all-ones profile.
pub fn diurnal_profile(tags: usize, stride: usize) -> ActivityProfile {
    let curves: Vec<Vec<f64>> = (0..tags)
        .map(|t| {
            (0..24)
                .map(|h| {
                    let phase = (h + stride * t) % 24;
                    0.1 + 0.8 * (phase as f64 / 23.0)
                })
                .collect()
        })
        .collect();
    ActivityProfile::from_hourly(&curves).expect("ramps are valid curves")
}

/// A customer in the unit square: capacity 1–3, view probability in
/// `view`, `tags` interest scores in `[0, 1)`, arrival hour in
/// `[0, 24)`.
pub fn customer(rng: &mut DetRng, tags: usize, view: Range<f64>) -> Customer {
    Customer {
        location: Point::new(rng.gen_f64(), rng.gen_f64()),
        capacity: usize_in(rng, 1..4) as u32,
        view_probability: f64_in(rng, view),
        interests: TagVector::new(floats(rng, tags, 0.0..1.0)).expect("scores in [0, 1)"),
        arrival: Timestamp::from_hours(f64_in(rng, 0.0..24.0)),
    }
}

/// A vendor in the unit square with a radius in `radius`, a budget of
/// `budget_cents` cents and `tags` tag scores in `[0, 1)`.
pub fn vendor(
    rng: &mut DetRng,
    tags: usize,
    radius: Range<f64>,
    budget_cents: Range<u64>,
) -> Vendor {
    Vendor {
        location: Point::new(rng.gen_f64(), rng.gen_f64()),
        radius: f64_in(rng, radius),
        budget: Money::from_cents(u64_in(rng, budget_cents)),
        tags: TagVector::new(floats(rng, tags, 0.0..1.0)).expect("scores in [0, 1)"),
    }
}

/// An instance over `customers` and `vendors` with two ad types: TL
/// ($1, β = 0.1) and PL ($2, β = 0.4).
pub fn instance(customers: Vec<Customer>, vendors: Vec<Vendor>) -> ProblemInstance {
    InstanceBuilder::new()
        .customers(customers)
        .vendors(vendors)
        .ad_types([
            AdType::new("TL", Money::from_cents(100), 0.1),
            AdType::new("PL", Money::from_cents(200), 0.4),
        ])
        .build()
        .expect("generated entities are valid")
}

/// One abstract delta. [`resolve`] maps indices onto the live
/// population, so every spec but [`DeltaSpec::Invalid`] yields a delta
/// the instance accepts.
#[derive(Clone, Debug)]
pub enum DeltaSpec {
    Add(Customer),
    Remove(usize),
    Move(usize, f64, f64),
    Budget(usize, u64),
    Radius(usize, f64),
    Reprice(usize, u64, f64),
    Tags(usize, Vec<f64>),
    Invalid(InvalidSpec),
}

/// A delta that `ProblemInstance::apply` rejects whatever state it
/// meets.
#[derive(Clone, Copy, Debug)]
pub enum InvalidSpec {
    /// Remove the customer `offset` past the last live id.
    UnknownCustomer(usize),
    /// Set the budget of the vendor `offset` past the last id.
    UnknownVendor(usize),
    /// Set a vendor's radius to a negative or non-finite value.
    BadRadius(usize, f64),
    /// Move a customer to a point with a non-finite x.
    BadMove(usize, f64),
    /// Redefine the ad type `offset` past the last id.
    UnknownAdType(usize),
}

/// A valid spec, its seven arms equally likely: an added customer
/// (view probability in `[0, 1)`), indices in `0..32`, budgets of
/// 0–699 cents, radii in `[0, 1.5)`, a repricing of either ad type to
/// 1–499 cents with β in `[0.05, 0.95)`, and `tags` fresh tag scores,
/// dense or [`sparse_scores`] with equal odds, so a vendor's zero
/// blocks change in both directions.
pub fn delta_spec(rng: &mut DetRng, tags: usize) -> DeltaSpec {
    match usize_in(rng, 0..7) {
        0 => DeltaSpec::Add(customer(rng, tags, 0.0..1.0)),
        1 => DeltaSpec::Remove(usize_in(rng, 0..32)),
        2 => DeltaSpec::Move(usize_in(rng, 0..32), rng.gen_f64(), rng.gen_f64()),
        3 => DeltaSpec::Budget(usize_in(rng, 0..32), u64_in(rng, 0..700)),
        4 => DeltaSpec::Radius(usize_in(rng, 0..32), f64_in(rng, 0.0..1.5)),
        5 => DeltaSpec::Reprice(
            usize_in(rng, 0..2),
            u64_in(rng, 1..500),
            f64_in(rng, 0.05..0.95),
        ),
        _ => {
            let j = usize_in(rng, 0..32);
            let scores = if rng.gen_bool(0.5) {
                sparse_scores(rng, tags)
            } else {
                floats(rng, tags, 0.0..1.0)
            };
            DeltaSpec::Tags(j, scores)
        }
    }
}

/// Resolve `specs` into a batch for `instance`. Customer indices are
/// taken modulo the customer count at the point the delta applies
/// (adds and removes change it); vendor indices modulo the vendor
/// count. A removal or move with no customers left is skipped.
///
/// Returns the batch and the length of its valid prefix: the position
/// of the first delta from a [`DeltaSpec::Invalid`], or the batch
/// length if there is none.
pub fn resolve(specs: &[DeltaSpec], instance: &ProblemInstance) -> (DeltaBatch, usize) {
    let mut batch = DeltaBatch::new();
    let mut valid_prefix = None;
    let mut n = instance.num_customers();
    let vendors = instance.num_vendors();
    for spec in specs {
        match spec {
            DeltaSpec::Add(c) => {
                batch.push(Delta::AddCustomer(c.clone()));
                n += 1;
            }
            DeltaSpec::Remove(i) => {
                if n > 0 {
                    batch.push(Delta::RemoveCustomer(CustomerId::from(i % n)));
                    n -= 1;
                }
            }
            DeltaSpec::Move(i, x, y) => {
                if n > 0 {
                    batch.push(Delta::MoveCustomer(
                        CustomerId::from(i % n),
                        Point::new(*x, *y),
                    ));
                }
            }
            DeltaSpec::Budget(j, cents) => {
                batch.push(Delta::VendorBudget(
                    VendorId::from(j % vendors),
                    Money::from_cents(*cents),
                ));
            }
            DeltaSpec::Radius(j, r) => {
                batch.push(Delta::VendorRadius(VendorId::from(j % vendors), *r));
            }
            DeltaSpec::Reprice(k, cents, factor) => {
                batch.push(Delta::AdType(
                    AdTypeId::from(*k),
                    AdType::new("RP", Money::from_cents(*cents), *factor),
                ));
            }
            DeltaSpec::Tags(j, scores) => {
                batch.push(Delta::VendorTags(
                    VendorId::from(j % vendors),
                    TagVector::new(scores.clone()).expect("scores in [0, 1)"),
                ));
            }
            DeltaSpec::Invalid(bad) => {
                valid_prefix.get_or_insert(batch.len());
                batch.push(invalid_delta(*bad, n, instance));
            }
        }
    }
    let valid_prefix = valid_prefix.unwrap_or(batch.len());
    (batch, valid_prefix)
}

/// The rejected delta for `bad`, with `n` live customers.
fn invalid_delta(bad: InvalidSpec, n: usize, instance: &ProblemInstance) -> Delta {
    let vendors = instance.num_vendors();
    match bad {
        InvalidSpec::UnknownCustomer(offset) => Delta::RemoveCustomer(CustomerId::from(n + offset)),
        InvalidSpec::UnknownVendor(offset) => {
            Delta::VendorBudget(VendorId::from(vendors + offset), Money::from_cents(100))
        }
        InvalidSpec::BadRadius(j, r) => Delta::VendorRadius(VendorId::from(j % vendors), r),
        // With no live customer, id 0 is unknown: rejected either way.
        InvalidSpec::BadMove(i, x) => {
            Delta::MoveCustomer(CustomerId::from(i % n.max(1)), Point::new(x, 0.5))
        }
        InvalidSpec::UnknownAdType(offset) => Delta::AdType(
            AdTypeId::from(instance.num_ad_types() + offset),
            AdType::new("RP", Money::from_cents(100), 0.5),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_depend_on_name_and_case_only() {
        assert_eq!(case_seed("p", 3), case_seed("p", 3));
        assert_ne!(case_seed("p", 3), case_seed("p", 4));
        assert_ne!(case_seed("p", 3), case_seed("q", 3));
    }

    #[test]
    fn cases_are_replayed_exactly() {
        let draw = |rng: &mut DetRng| vec_of(rng, 0..8, |r| f64_in(r, -1.0..1.0));
        let first = std::cell::RefCell::new(Vec::new());
        for_all("replay", 16, draw, |v| first.borrow_mut().push(v.clone()));
        let second = std::cell::RefCell::new(Vec::new());
        for_all("replay", 16, draw, |v| second.borrow_mut().push(v.clone()));
        assert_eq!(first.into_inner(), second.into_inner());
    }

    #[test]
    fn a_failure_names_the_property_case_seed_and_input() {
        let payload = catch_unwind(|| {
            for_all(
                "fails_on_big",
                64,
                |r| usize_in(r, 0..10),
                |&x| assert!(x < 9, "x = {x}"),
            )
        })
        .expect_err("some case draws 9");
        let message = payload.downcast_ref::<String>().expect("formatted message");
        assert!(
            message.starts_with("property `fails_on_big` failed at case "),
            "{message}"
        );
        assert!(message.contains("(seed 0x"), "{message}");
        assert!(message.contains("x = 9"), "{message}");
        assert!(message.ends_with("input: 9"), "{message}");
    }

    #[test]
    fn generators_respect_their_ranges() {
        let mut rng = DetRng::seed_from_u64(7);
        let mut seen = [0u32; 3];
        for _ in 0..3000 {
            assert!((3..9).contains(&usize_in(&mut rng, 3..9)));
            assert!((5..7).contains(&u64_in(&mut rng, 5..7)));
            assert!((-2.0..-1.0).contains(&f64_in(&mut rng, -2.0..-1.0)));
            assert!((2..5).contains(&vec_of(&mut rng, 2..5, |r| r.next_u64()).len()));
            seen[pick(&mut rng, &[1, 0, 2])] += 1;
        }
        assert_eq!(seen[1], 0, "zero weight is never picked");
        let (mut zero, mut kept) = (0, 0);
        for _ in 0..200 {
            let scores = sparse_scores(&mut rng, 10);
            assert_eq!(scores.len(), 10);
            for block in scores.chunks(4) {
                let zeros = block.iter().filter(|&&s| s == 0.0).count();
                assert!(zeros == block.len() || zeros == 0, "{block:?}");
                assert!(block.iter().all(|s| (0.0..1.0).contains(s)));
                if zeros > 0 {
                    zero += 1;
                } else {
                    kept += 1;
                }
            }
        }
        assert!(zero > 200 && kept > 200, "{zero} zeroed, {kept} kept");
        assert!(seen[2] > seen[0] * 3 / 2, "weights bias the pick: {seen:?}");
    }

    #[test]
    fn invalid_specs_are_rejected_and_mark_the_valid_prefix() {
        let mut rng = DetRng::seed_from_u64(1);
        let inst = instance(
            vec![customer(&mut rng, 2, 0.0..1.0)],
            vec![vendor(&mut rng, 2, 0.1..0.5, 0..100)],
        );
        let bad = [
            InvalidSpec::UnknownCustomer(0),
            InvalidSpec::UnknownCustomer(1),
            InvalidSpec::UnknownVendor(0),
            InvalidSpec::BadRadius(0, -0.5),
            InvalidSpec::BadRadius(0, f64::NAN),
            InvalidSpec::BadMove(0, f64::INFINITY),
            InvalidSpec::UnknownAdType(0),
        ];
        for spec in bad {
            let specs = [
                DeltaSpec::Remove(0),
                DeltaSpec::Invalid(spec),
                DeltaSpec::Budget(0, 5),
            ];
            let (batch, valid_prefix) = resolve(&specs, &inst);
            assert_eq!((batch.len(), valid_prefix), (3, 1), "{spec:?}");
            let mut shadow = inst.clone();
            assert!(shadow.apply_delta(&batch).is_err(), "{spec:?} was accepted");
            assert_eq!(shadow.epoch(), 1, "{spec:?}");
        }
        let (batch, valid_prefix) = resolve(&[DeltaSpec::Move(4, 0.1, 0.2)], &inst);
        assert_eq!((batch.len(), valid_prefix), (1, 1));
    }
}
