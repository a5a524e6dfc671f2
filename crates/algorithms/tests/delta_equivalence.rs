//! Property tests for the epoch-based delta engine (DESIGN.md §12):
//! after an arbitrary delta sequence, an incrementally patched
//! [`SolverContext`] must be observationally identical to a context
//! built from scratch on the post-delta instance — same eligibility
//! rows element for element, bit-identical pair bases (0 ULP), and
//! byte-identical outputs from every solver, offline and online.
//!
//! Some sequences carry a delta the instance rejects. The patched
//! context and a plain instance clone must then fail at that same
//! delta, with the valid prefix applied, and the context must still
//! equal a fresh build on that prefix.

use muaa_algorithms::{
    run_online, BatchedRecon, Greedy, NearestAssign, OAfa, OfflineSolver, Recon, SolverContext,
    ThresholdFn,
};
use muaa_core::{Delta, DeltaBatch, PearsonUtility, ProblemInstance, TagVector, Vendor, VendorId};
use muaa_testkit::{
    customer, delta_spec, diurnal_profile, f64_in, floats, for_all, instance, pick, resolve,
    sparse_scores, usize_in, vec_of, vendor, DeltaSpec, DetRng, InvalidSpec,
};

const TAGS: usize = 4;
const CASES: u32 = 48;

/// The tag universe of the block-mask property: three full 4-lane
/// blocks and a ragged tail of one.
const WIDE_TAGS: usize = 13;

fn gen_instance(rng: &mut DetRng) -> ProblemInstance {
    let customers = vec_of(rng, 0..10, |r| customer(r, TAGS, 0.0..1.0));
    let vendors = vec_of(rng, 1..6, |r| vendor(r, TAGS, 0.0..1.5, 0..700));
    instance(customers, vendors)
}

/// A valid spec at weight 14 (2 for each of its seven arms), a
/// rejected one at weight 1: about 30 % of the 0–11-delta batches
/// carry one.
fn gen_spec(rng: &mut DetRng) -> DeltaSpec {
    match pick(rng, &[14, 1]) {
        0 => delta_spec(rng, TAGS),
        _ => DeltaSpec::Invalid(gen_invalid(rng)),
    }
}

fn gen_invalid(rng: &mut DetRng) -> InvalidSpec {
    let offset = usize_in(rng, 0..3);
    let non_finite = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][usize_in(rng, 0..3)];
    match usize_in(rng, 0..6) {
        0 => InvalidSpec::UnknownCustomer(offset),
        1 => InvalidSpec::UnknownVendor(offset),
        2 => InvalidSpec::BadRadius(usize_in(rng, 0..32), -f64_in(rng, 0.001..1.5)),
        3 => InvalidSpec::BadRadius(usize_in(rng, 0..32), non_finite),
        4 => InvalidSpec::BadMove(usize_in(rng, 0..32), non_finite),
        _ => InvalidSpec::UnknownAdType(offset),
    }
}

fn gen_case(rng: &mut DetRng) -> (ProblemInstance, Vec<DeltaSpec>) {
    (gen_instance(rng), vec_of(rng, 0..12, gen_spec))
}

/// Apply the resolved batch to `patched` and to a plain clone of
/// `instance` — the reference the context must be indistinguishable
/// from — and check both stop at the first rejected delta. Returns the
/// clone.
fn apply_both(
    patched: &mut SolverContext<'_>,
    instance: &ProblemInstance,
    batch: &DeltaBatch,
    valid_prefix: usize,
) -> ProblemInstance {
    let mut shadow = instance.clone();
    let shadow_result = shadow.apply_delta(batch);
    let patched_result = patched.apply_delta(batch);
    assert_eq!(
        patched_result, shadow_result,
        "context and instance disagree on the batch"
    );
    assert_eq!(shadow_result.is_ok(), valid_prefix == batch.len());
    assert_eq!(
        shadow.epoch(),
        valid_prefix as u64,
        "instance applied past the valid prefix"
    );
    assert_eq!(
        patched.epoch(),
        valid_prefix as u64,
        "context applied past the valid prefix"
    );
    shadow
}

/// The patched context's observable state — epoch, both CSR
/// directions, and every pair base — matches a fresh build on the
/// post-delta instance exactly, in both construction modes.
#[test]
fn patched_state_matches_fresh_build() {
    for_all(
        "patched_state_matches_fresh_build",
        CASES,
        gen_case,
        |(instance, specs)| {
            let model = PearsonUtility::new(diurnal_profile(TAGS, 6));
            let (batch, valid_prefix) = resolve(specs, instance);
            for brute in [false, true] {
                let mut patched = if brute {
                    SolverContext::brute_force(instance, &model)
                } else {
                    SolverContext::indexed(instance, &model)
                };
                let shadow = apply_both(&mut patched, instance, &batch, valid_prefix);
                let fresh = if brute {
                    SolverContext::brute_force(&shadow, &model)
                } else {
                    SolverContext::indexed(&shadow, &model)
                };
                patched.debug_validate();
                fresh.debug_validate();
                assert_eq!(patched.epoch(), shadow.epoch());
                for (vid, _) in shadow.vendors_enumerated() {
                    assert_eq!(
                        patched.eligible_customers(vid),
                        fresh.eligible_customers(vid),
                        "vendor {vid} row (brute={brute})"
                    );
                }
                for (cid, _) in shadow.customers_enumerated() {
                    assert_eq!(
                        patched.eligible_vendors(cid),
                        fresh.eligible_vendors(cid),
                        "customer {cid} row (brute={brute})"
                    );
                    for (vid, _) in shadow.vendors_enumerated() {
                        assert_eq!(
                            patched.pair_base(cid, vid).to_bits(),
                            fresh.pair_base(cid, vid).to_bits(),
                            "pair ({cid}, {vid}) (brute={brute})"
                        );
                    }
                }
            }
        },
    );
}

/// Every offline solver produces byte-identical assignments (and
/// bit-identical total utility) on the patched context and on a
/// fresh context over the post-delta instance.
#[test]
fn offline_solvers_match_fresh_rebuild() {
    for_all(
        "offline_solvers_match_fresh_rebuild",
        CASES,
        gen_case,
        |(instance, specs)| {
            let model = PearsonUtility::new(diurnal_profile(TAGS, 6));
            let (batch, valid_prefix) = resolve(specs, instance);
            let mut patched = SolverContext::indexed(instance, &model);
            let shadow = apply_both(&mut patched, instance, &batch, valid_prefix);
            let fresh = SolverContext::indexed(&shadow, &model);
            patched.debug_validate();
            let solvers: Vec<Box<dyn OfflineSolver>> = vec![
                Box::new(Greedy),
                Box::new(Recon::new()),
                Box::new(NearestAssign),
                Box::new(BatchedRecon::new(3)),
            ];
            for solver in &solvers {
                let a = solver.assign(&patched);
                let b = solver.assign(&fresh);
                assert_eq!(
                    a.assignments(),
                    b.assignments(),
                    "{} diverged",
                    solver.name()
                );
                assert_eq!(
                    a.total_utility(&shadow, &model).to_bits(),
                    b.total_utility(&shadow, &model).to_bits(),
                    "{} utility drifted",
                    solver.name()
                );
            }
        },
    );
}

/// O-AFA streamed over the patched context commits exactly the ads
/// it commits over a fresh rebuild — the adaptive threshold and the
/// candidate ordering both survive incremental maintenance.
#[test]
fn oafa_matches_fresh_rebuild() {
    for_all(
        "oafa_matches_fresh_rebuild",
        CASES,
        gen_case,
        |(instance, specs)| {
            let model = PearsonUtility::new(diurnal_profile(TAGS, 6));
            let (batch, valid_prefix) = resolve(specs, instance);
            let mut patched = SolverContext::indexed(instance, &model);
            let shadow = apply_both(&mut patched, instance, &batch, valid_prefix);
            let fresh = SolverContext::indexed(&shadow, &model);
            patched.debug_validate();
            let threshold = ThresholdFn::adaptive(0.01, 4.0);
            let a = run_online(&mut OAfa::new(threshold), &patched);
            let b = run_online(&mut OAfa::new(threshold), &fresh);
            assert_eq!(a.assignments.assignments(), b.assignments.assignments());
            assert_eq!(a.total_utility.to_bits(), b.total_utility.to_bits());
        },
    );
}

/// `VendorTags` deltas that take a vendor built with sparse tags
/// (random whole 4-lane blocks zeroed) to dense tags, back to sparse
/// and to dense again leave the patched context equal to a fresh build
/// after each step: its block masks (which `debug_validate`
/// recomputes), every pair base, and the GREEDY and RECON plans. The
/// memo is warm before each delta, so the vendor's slots are reset and
/// refilled through the refreshed mask; a mask left as it was would
/// skip blocks that hold scores again.
#[test]
fn vendor_tag_blocks_follow_tag_deltas() {
    let gen = |r: &mut DetRng| {
        let customers = vec_of(r, 1..12, |r| customer(r, WIDE_TAGS, 0.0..1.0));
        let vendors = vec_of(r, 1..6, |r| Vendor {
            tags: TagVector::new(sparse_scores(r, WIDE_TAGS)).expect("scores in [0, 1)"),
            ..vendor(r, WIDE_TAGS, 0.0..1.5, 0..700)
        });
        let j = usize_in(r, 0..vendors.len());
        let steps = [
            floats(r, WIDE_TAGS, 0.0..1.0),
            sparse_scores(r, WIDE_TAGS),
            floats(r, WIDE_TAGS, 0.0..1.0),
        ];
        (instance(customers, vendors), j, steps)
    };
    for_all(
        "vendor_tag_blocks_follow_tag_deltas",
        CASES,
        gen,
        |(instance, j, steps)| {
            let model = PearsonUtility::new(diurnal_profile(WIDE_TAGS, 5));
            let mut patched = SolverContext::indexed(instance, &model);
            let mut shadow = instance.clone();
            let solvers: [&dyn OfflineSolver; 2] = [&Greedy, &Recon::new()];
            for scores in steps {
                // GREEDY's walk fills every memo slot.
                Greedy.assign(&patched);
                let tags = TagVector::new(scores.clone()).expect("scores in [0, 1)");
                let delta = Delta::VendorTags(VendorId::from(*j), tags);
                patched.apply(&delta).expect("valid delta");
                shadow.apply(&delta).expect("valid delta");
                let fresh = SolverContext::indexed(&shadow, &model);
                patched.debug_validate();
                for (cid, _) in shadow.customers_enumerated() {
                    for (vid, _) in shadow.vendors_enumerated() {
                        assert_eq!(
                            patched.pair_base(cid, vid).to_bits(),
                            fresh.pair_base(cid, vid).to_bits(),
                            "pair ({cid}, {vid})"
                        );
                    }
                }
                for solver in solvers {
                    assert_eq!(
                        solver.assign(&patched).assignments(),
                        solver.assign(&fresh).assignments(),
                        "{} diverged",
                        solver.name()
                    );
                }
            }
        },
    );
}
