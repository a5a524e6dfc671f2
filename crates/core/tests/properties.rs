//! Property-based tests for the core domain model: AssignmentSet
//! bookkeeping vs from-scratch feasibility checks, utility-model
//! invariants, and instance I/O round-trips.

use muaa_core::{
    io, simd, ActivityProfile, AdTypeId, Assignment, AssignmentSet, CustomerId, Money,
    PearsonUtility, ProblemInstance, Timestamp, UtilityModel, VendorId,
};
use muaa_testkit::{
    customer, f64_in, floats, for_all, instance, sparse_scores, usize_in, vec_of, vendor, DetRng,
};

const CASES: u32 = 96;

fn gen_instance(rng: &mut DetRng) -> ProblemInstance {
    let customers = vec_of(rng, 0..8, |r| customer(r, 4, 0.0..1.0));
    let vendors = vec_of(rng, 0..5, |r| vendor(r, 4, 0.0..1.5, 0..700));
    instance(customers, vendors)
}

/// A random sequence of push/remove operations to replay.
fn gen_ops(rng: &mut DetRng) -> Vec<(u8, u8, u8, bool)> {
    vec_of(rng, 0..40, |r| {
        (
            usize_in(r, 0..8) as u8,
            usize_in(r, 0..5) as u8,
            usize_in(r, 0..2) as u8,
            r.gen_bool(0.5),
        )
    })
}

#[test]
fn incremental_bookkeeping_matches_scratch_recount() {
    let gen = |r: &mut DetRng| (gen_instance(r), gen_ops(r));
    for_all(
        "incremental_bookkeeping_matches_scratch_recount",
        CASES,
        gen,
        |(instance, ops)| {
            let model = PearsonUtility::uniform(4);
            let mut set = AssignmentSet::new(instance);
            for &(c, v, t, remove) in ops {
                let (cn, vn) = (instance.num_customers(), instance.num_vendors());
                if cn == 0 || vn == 0 {
                    break;
                }
                let a = Assignment::new(
                    CustomerId::from(c as usize % cn),
                    VendorId::from(v as usize % vn),
                    AdTypeId::from(t as usize % instance.num_ad_types()),
                );
                if remove {
                    set.remove(instance, a);
                } else {
                    set.try_push(instance, a);
                }
            }
            // Incremental counters must equal a from-scratch recount.
            let mut load = vec![0u32; instance.num_customers()];
            let mut spend = vec![Money::ZERO; instance.num_vendors()];
            for a in set.assignments() {
                load[a.customer.index()] += 1;
                spend[a.vendor.index()] += instance.ad_type(a.ad_type).cost;
            }
            for (i, &l) in load.iter().enumerate() {
                assert_eq!(set.customer_load(CustomerId::from(i)), l);
            }
            for (j, &s) in spend.iter().enumerate() {
                assert_eq!(set.vendor_spend(VendorId::from(j)), s);
            }
            // try_push can never create capacity/budget/pair violations
            // (the spatial constraint is the caller's job by contract).
            let report = set.check_feasibility(instance, &model);
            for violation in &report.violations {
                assert!(
                    matches!(violation, muaa_core::Violation::OutOfRange { .. }),
                    "unexpected violation {violation:?}"
                );
            }
        },
    );
}

#[test]
fn utility_is_nonnegative_finite_and_monotone_in_effectiveness() {
    for_all(
        "utility_is_nonnegative_finite_and_monotone_in_effectiveness",
        CASES,
        gen_instance,
        |instance| {
            let model = PearsonUtility::uniform(4);
            for (cid, c) in instance.customers_enumerated() {
                for (vid, v) in instance.vendors_enumerated() {
                    let tl = model.utility(cid, c, vid, v, instance.ad_type(AdTypeId::new(0)));
                    let pl = model.utility(cid, c, vid, v, instance.ad_type(AdTypeId::new(1)));
                    assert!(tl.is_finite() && tl >= 0.0);
                    assert!(pl.is_finite() && pl >= 0.0);
                    // β_PL = 4·β_TL → λ_PL = 4·λ_TL exactly (shared base).
                    assert!((pl - 4.0 * tl).abs() <= 1e-9 * pl.abs().max(1e-12));
                }
            }
        },
    );
}

#[test]
fn similarity_is_symmetric_under_role_swap() {
    let gen = |r: &mut DetRng| {
        (
            floats(r, 4, 0.0..1.0),
            floats(r, 4, 0.0..1.0),
            floats(r, 4, 0.0..1.0),
        )
    };
    for_all(
        "similarity_is_symmetric_under_role_swap",
        CASES,
        gen,
        |(xs, ys, weights)| {
            let a = PearsonUtility::weighted_pearson(xs, ys, weights);
            let b = PearsonUtility::weighted_pearson(ys, xs, weights);
            assert!((a - b).abs() < 1e-12);
            assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&a));
        },
    );
}

/// The two-pass `weighted_pearson` is the *oracle* spelling; the
/// production kernels accumulate one-pass moments on the canonical
/// 4-lane chunked schedule (DESIGN.md §16). Pin the two within
/// 1e-12 at ragged widths 0–64 so neither spelling can drift.
#[test]
fn oracle_pearson_matches_chunked_kernel_within_1e12() {
    let gen = |r: &mut DetRng| (usize_in(r, 0..65), r.next_u64());
    for_all(
        "oracle_pearson_matches_chunked_kernel_within_1e12",
        CASES,
        gen,
        |&(len, seed)| {
            // Deterministic per-seed data so `len` covers every ragged
            // tail (0..4 leftover lanes) with fresh values each case.
            let mut state = seed | 1;
            let mut next = || {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                0.01 + 0.98 * ((state >> 11) as f64 / (1u64 << 53) as f64)
            };
            let weights: Vec<f64> = (0..len).map(|_| next()).collect();
            let xs: Vec<f64> = (0..len).map(|_| next()).collect();
            let ys: Vec<f64> = (0..len).map(|_| next()).collect();
            let oracle = PearsonUtility::weighted_pearson(&xs, &ys, &weights).clamp(0.0, 1.0);
            let (sw, swx, swxx) = simd::weight_moments(&weights, &xs);
            let kernel =
                PearsonUtility::similarity_from_parts(&weights, &xs, sw, swx, swxx, &ys, u64::MAX);
            assert!(
                (oracle - kernel).abs() < 1e-12,
                "len {len}: oracle {oracle} vs chunked kernel {kernel}"
            );
        },
    );
}

/// The pair kernel visiting only the blocks `nonzero_blocks` names is
/// bit-identical to the kernel visiting every block (DESIGN.md §16.1):
/// widths 0–300 cover every ragged tail and more than 64 blocks; the
/// vendor side has random whole blocks zeroed (as `+0.0` or `−0.0`), or
/// is all zero, or one-hot.
#[test]
fn masked_pair_kernel_matches_all_blocks_bit_for_bit() {
    let gen = |r: &mut DetRng| {
        let n = usize_in(r, 0..301);
        let weights = floats(r, n, 0.0..1.0);
        let xs = floats(r, n, 0.0..1.0);
        let mut ys = match usize_in(r, 0..4) {
            0 => vec![0.0; n],
            1 => {
                let mut ys = vec![0.0; n];
                if n > 0 {
                    ys[usize_in(r, 0..n)] = f64_in(r, 0.0..1.0);
                }
                ys
            }
            _ => sparse_scores(r, n),
        };
        if r.gen_bool(0.5) {
            ys.iter_mut().filter(|y| **y == 0.0).for_each(|y| *y = -0.0);
        }
        (weights, xs, ys)
    };
    for_all(
        "masked_pair_kernel_matches_all_blocks_bit_for_bit",
        CASES * 4,
        gen,
        |(weights, xs, ys)| {
            let bits = |(a, b, c): (f64, f64, f64)| [a.to_bits(), b.to_bits(), c.to_bits()];
            let all = simd::pair_moments(weights, xs, ys, u64::MAX);
            let masked = simd::pair_moments(weights, xs, ys, simd::nonzero_blocks(ys));
            assert_eq!(bits(masked), bits(all), "width {}", ys.len());
        },
    );
}

#[test]
fn pearson_is_scale_invariant_in_weights() {
    let gen = |r: &mut DetRng| {
        let xs = floats(r, 5, 0.0..1.0);
        let ys = floats(r, 5, 0.0..1.0);
        let weights = floats(r, 5, 0.01..1.0);
        (xs, ys, weights, f64_in(r, 0.1..50.0))
    };
    for_all(
        "pearson_is_scale_invariant_in_weights",
        CASES,
        gen,
        |(xs, ys, weights, scale)| {
            let scaled: Vec<f64> = weights.iter().map(|w| w * scale).collect();
            let a = PearsonUtility::weighted_pearson(xs, ys, weights);
            let b = PearsonUtility::weighted_pearson(xs, ys, &scaled);
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        },
    );
}

#[test]
fn io_roundtrip_preserves_everything() {
    for_all(
        "io_roundtrip_preserves_everything",
        CASES,
        gen_instance,
        |instance| {
            let text = io::to_string(instance);
            let back = io::from_str(&text).expect("roundtrip parses");
            assert_eq!(back.num_customers(), instance.num_customers());
            assert_eq!(back.num_vendors(), instance.num_vendors());
            assert_eq!(back.num_ad_types(), instance.num_ad_types());
            for (a, b) in back.customers().iter().zip(instance.customers()) {
                assert_eq!(a.location, b.location);
                assert_eq!(a.capacity, b.capacity);
                assert_eq!(a.view_probability, b.view_probability);
                assert_eq!(a.arrival.hours(), b.arrival.hours());
                assert_eq!(a.interests.as_slice(), b.interests.as_slice());
            }
            for (a, b) in back.vendors().iter().zip(instance.vendors()) {
                assert_eq!(a.location, b.location);
                assert_eq!(a.radius, b.radius);
                assert_eq!(a.budget, b.budget);
                assert_eq!(a.tags.as_slice(), b.tags.as_slice());
            }
        },
    );
}

#[test]
fn activity_levels_stay_in_unit_interval() {
    let gen = |r: &mut DetRng| {
        (
            vec_of(r, 1..4, |r| floats(r, 24, 0.0..1.0)),
            f64_in(r, 0.0..48.0),
        )
    };
    for_all(
        "activity_levels_stay_in_unit_interval",
        CASES,
        gen,
        |(curves, hour)| {
            let profile = ActivityProfile::from_hourly(curves).expect("valid curves");
            for tag in 0..curves.len() {
                let level = profile.level(tag, Timestamp::from_hours(*hour));
                assert!((0.0..=1.0).contains(&level), "level {level}");
            }
        },
    );
}
