//! Property tests for the column half of the row/column invalidation
//! layer (DESIGN.md §17): after any churn mix containing
//! [`Delta::VendorTags`](muaa_core::Delta::VendorTags) — interleaved
//! with the row-reset deltas (customer moves), radius changes, and with
//! the pair memo at every capacity tier — the patched context must
//! match a from-scratch build bit for bit at any thread count, and the
//! tag-selection outer loop must track the exhaustive optimum.

use muaa_algorithms::{
    select_tags, select_tags_exhaustive, BatchedRecon, Greedy, OfflineSolver, Recon, SolverContext,
    TagSelectConfig,
};
use muaa_core::{par, PearsonUtility, ProblemInstance};
use muaa_testkit::{
    customer, diurnal_profile, f64_in, floats, for_all, instance, pick, resolve, u64_in, usize_in,
    vec_of, vendor, DeltaSpec, DetRng,
};

const TAGS: usize = 4;
const CASES: u32 = 32;

fn gen_instance(rng: &mut DetRng) -> ProblemInstance {
    let customers = vec_of(rng, 1..12, |r| customer(r, TAGS, 0.0..1.0));
    let vendors = vec_of(rng, 1..5, |r| vendor(r, TAGS, 0.1..1.5, 50..700));
    instance(customers, vendors)
}

/// A churn mix biased toward tag swaps — the subject under test —
/// freely interleaved with row resets (customer moves), radius changes,
/// and budget edits: the deltas whose bookkeeping could plausibly
/// clash with a column reset.
fn gen_churn(rng: &mut DetRng) -> DeltaSpec {
    match pick(rng, &[3, 2, 1, 1]) {
        0 => DeltaSpec::Tags(usize_in(rng, 0..32), floats(rng, TAGS, 0.0..1.0)),
        1 => DeltaSpec::Move(usize_in(rng, 0..32), rng.gen_f64(), rng.gen_f64()),
        2 => DeltaSpec::Radius(usize_in(rng, 0..32), f64_in(rng, 0.1..1.5)),
        _ => DeltaSpec::Budget(usize_in(rng, 0..32), u64_in(rng, 0..700)),
    }
}

/// An instance and a churn sequence of `len` specs.
fn gen_churn_case(
    rng: &mut DetRng,
    len: std::ops::Range<usize>,
) -> (ProblemInstance, Vec<DeltaSpec>) {
    (gen_instance(rng), vec_of(rng, len, gen_churn))
}

fn assert_state_matches(
    patched: &SolverContext<'_>,
    fresh: &SolverContext<'_>,
    shadow: &ProblemInstance,
    what: &str,
) {
    patched.debug_validate();
    fresh.debug_validate();
    for (vid, _) in shadow.vendors_enumerated() {
        assert_eq!(
            patched.eligible_customers(vid),
            fresh.eligible_customers(vid),
            "{what}: vendor {vid} row"
        );
    }
    for (cid, _) in shadow.customers_enumerated() {
        for (vid, _) in shadow.vendors_enumerated() {
            assert_eq!(
                patched.pair_base(cid, vid).to_bits(),
                fresh.pair_base(cid, vid).to_bits(),
                "{what}: pair ({cid}, {vid})"
            );
        }
    }
}

/// Column resets compose with row resets and eligibility patches:
/// after a tags-heavy churn mix, the patched context matches a
/// fresh build at every pair-memo capacity tier — full memo, a
/// one-pair cap (memoization silently off whenever more than one
/// pair is eligible, the "shrink" configuration), and explicitly
/// zero.
#[test]
fn tags_churn_matches_fresh_build_at_every_cache_cap() {
    for_all(
        "tags_churn_matches_fresh_build_at_every_cache_cap",
        CASES,
        |r| gen_churn_case(r, 1..10),
        |(instance, specs)| {
            let model = PearsonUtility::new(diurnal_profile(TAGS, 6));
            let (batch, _) = resolve(specs, instance);
            let mut shadow = instance.clone();
            shadow.apply_delta(&batch).expect("valid batch");
            for cap in [muaa_algorithms::DEFAULT_PAIR_CACHE_CAP, 8, 0] {
                let mut patched = SolverContext::indexed(instance, &model).with_pair_cache_cap(cap);
                // Warm the memo so column resets hit populated slots.
                let _ = Greedy.assign(&patched);
                patched.apply_delta(&batch).expect("valid batch");
                let fresh = SolverContext::indexed(&shadow, &model).with_pair_cache_cap(cap);
                assert_state_matches(&patched, &fresh, &shadow, &format!("cap={cap}"));
                let a = Greedy.assign(&patched);
                let b = Greedy.assign(&fresh);
                assert_eq!(a.assignments(), b.assignments(), "cap={cap}: greedy");
            }
        },
    );
}

/// Offline solvers agree byte for byte after tags churn, memoized
/// and unmemoized alike.
#[test]
fn solvers_agree_after_tags_churn() {
    let gen = |r: &mut DetRng| gen_churn_case(r, 1..8);
    for_all(
        "solvers_agree_after_tags_churn",
        CASES,
        gen,
        |(instance, specs)| {
            let model = PearsonUtility::new(diurnal_profile(TAGS, 6));
            let (batch, _) = resolve(specs, instance);
            let mut shadow = instance.clone();
            shadow.apply_delta(&batch).expect("valid batch");
            let mut patched = SolverContext::indexed(instance, &model);
            let _ = Greedy.assign(&patched);
            patched.apply_delta(&batch).expect("valid batch");
            let fresh = SolverContext::indexed(&shadow, &model);
            let solvers: Vec<Box<dyn OfflineSolver>> = vec![
                Box::new(Greedy),
                Box::new(Recon::new()),
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
            }
        },
    );
}

/// Applying a VendorTags churn batch is thread-count invariant: at 1,
/// 2, 4 and 8 threads the patched context validates and its GREEDY
/// assignments equal a fresh build on the post-batch instance.
#[test]
fn tags_churn_is_thread_count_invariant() {
    for_all(
        "tags_churn_is_thread_count_invariant",
        CASES,
        |r| gen_churn_case(r, 1..8),
        |(instance, specs)| {
            let model = PearsonUtility::new(diurnal_profile(TAGS, 6));
            let (batch, _) = resolve(specs, instance);
            let mut shadow = instance.clone();
            shadow.apply_delta(&batch).expect("valid batch");
            let reference = Greedy.assign(&SolverContext::indexed(&shadow, &model));
            for threads in [1usize, 2, 4, 8] {
                let out = par::with_threads(threads, || {
                    let mut patched = SolverContext::indexed(instance, &model);
                    // Warm the memo so column resets hit populated slots.
                    let _ = Greedy.assign(&patched);
                    patched.apply_delta(&batch).expect("valid batch");
                    patched.debug_validate();
                    Greedy.assign(&patched)
                });
                assert_eq!(
                    reference.assignments(),
                    out.assignments(),
                    "{threads} threads"
                );
            }
        },
    );
}

/// Greedy forward selection with k = 1 equals the exhaustive
/// optimum on every instance (structural: both enumerate single
/// candidates in the same order with the same tie rule) — and the
/// exhaustive run's utility is a ceiling for greedy at k = 2.
#[test]
fn greedy_selection_tracks_exhaustive_optimum() {
    for_all(
        "greedy_selection_tracks_exhaustive_optimum",
        8,
        gen_instance,
        |instance| {
            let model = PearsonUtility::new(diurnal_profile(TAGS, 6));

            let k1 = TagSelectConfig::greedy(1);
            let mut g_ctx = SolverContext::indexed(instance, &model);
            let greedy1 = select_tags(&mut g_ctx, &k1);
            let mut e_ctx = SolverContext::indexed(instance, &model);
            let exact1 = select_tags_exhaustive(&mut e_ctx, &k1);
            assert_eq!(&greedy1.chosen, &exact1.chosen, "k=1 chosen");
            assert_eq!(
                greedy1.utility.to_bits(),
                exact1.utility.to_bits(),
                "k=1 utility"
            );

            let k2 = TagSelectConfig::greedy(2);
            let mut g2_ctx = SolverContext::indexed(instance, &model);
            let greedy2 = select_tags(&mut g2_ctx, &k2);
            let mut e2_ctx = SolverContext::indexed(instance, &model);
            let exact2 = select_tags_exhaustive(&mut e2_ctx, &k2);
            assert!(
                greedy2.utility <= exact2.utility,
                "greedy k=2 utility {} exceeds the exhaustive optimum {}",
                greedy2.utility,
                exact2.utility
            );
        },
    );
}
