//! Property tests for the performance substrate (DESIGN.md §10): a
//! cached, parallel [`SolverContext`] must be observationally identical
//! to an uncached, sequential one — same assignments byte for byte,
//! same utilities bit for bit (0 ULP), for every solver.

use muaa_algorithms::{BatchedRecon, Greedy, NearestAssign, OfflineSolver, Recon, SolverContext};
use muaa_core::{par, PearsonUtility, ProblemInstance, TagVector, Vendor};
use muaa_testkit::{
    customer, diurnal_profile, for_all, instance, sparse_scores, vec_of, vendor, DetRng,
};

const TAGS: usize = 4;
const CASES: u32 = 64;

/// The tag universe of the sparse-vendor instances: three full 4-lane
/// blocks and a ragged tail of one.
const WIDE_TAGS: usize = 13;

fn gen_instance(rng: &mut DetRng) -> ProblemInstance {
    let customers = vec_of(rng, 0..10, |r| customer(r, TAGS, 0.0..1.0));
    let vendors = vec_of(rng, 0..6, |r| vendor(r, TAGS, 0.0..1.5, 0..700));
    instance(customers, vendors)
}

/// Customers with dense interests and vendors with random whole tag
/// blocks zeroed, over [`WIDE_TAGS`] tags.
fn gen_sparse_instance(rng: &mut DetRng) -> ProblemInstance {
    let customers = vec_of(rng, 0..10, |r| customer(r, WIDE_TAGS, 0.0..1.0));
    let vendors = vec_of(rng, 0..6, |r| Vendor {
        tags: TagVector::new(sparse_scores(r, WIDE_TAGS)).expect("scores in [0, 1)"),
        ..vendor(r, WIDE_TAGS, 0.0..1.5, 0..700)
    });
    instance(customers, vendors)
}

/// Every pair-base value out of the cached context (memo hit, memo
/// fill, and fused-moment paths alike) is bit-identical to the
/// uncached trait-object evaluation.
#[test]
fn pair_base_cache_is_zero_ulp() {
    for_all(
        "pair_base_cache_is_zero_ulp",
        CASES,
        gen_instance,
        |instance| {
            let model = PearsonUtility::new(diurnal_profile(TAGS, 6));
            let cached = SolverContext::indexed(instance, &model);
            let uncached = SolverContext::indexed(instance, &model).without_pair_cache();
            assert!(cached.has_pair_cache());
            assert!(!uncached.has_pair_cache());
            for (cid, _) in instance.customers_enumerated() {
                for (vid, _) in instance.vendors_enumerated() {
                    // First call fills the memo, second reads it.
                    let fill = cached.pair_base(cid, vid);
                    let hit = cached.pair_base(cid, vid);
                    let reference = uncached.pair_base(cid, vid);
                    assert_eq!(
                        fill.to_bits(),
                        reference.to_bits(),
                        "fill ({}, {})",
                        cid,
                        vid
                    );
                    assert_eq!(hit.to_bits(), reference.to_bits(), "hit ({}, {})", cid, vid);
                }
            }
        },
    );
}

/// GREEDY, RECON, NEAREST and BATCHED-RECON produce byte-identical
/// assignment sets (and bit-identical total utilities) whether they
/// run cached + parallel or uncached + sequential.
#[test]
fn solvers_match_uncached_sequential() {
    for_all(
        "solvers_match_uncached_sequential",
        CASES,
        gen_instance,
        |instance| {
            let model = PearsonUtility::new(diurnal_profile(TAGS, 6));
            let cached = SolverContext::indexed(instance, &model);

            let solvers: Vec<Box<dyn OfflineSolver>> = vec![
                Box::new(Greedy),
                Box::new(Recon::new()),
                Box::new(NearestAssign),
                Box::new(BatchedRecon::new(3)),
            ];
            for solver in &solvers {
                let fast = solver.assign(&cached);
                let slow = par::with_threads(1, || {
                    let ctx = SolverContext::indexed(instance, &model).without_pair_cache();
                    solver.assign(&ctx)
                });
                assert_eq!(
                    fast.assignments(),
                    slow.assignments(),
                    "{} diverged",
                    solver.name()
                );
                let fu = fast.total_utility(instance, &model);
                let su = slow.total_utility(instance, &model);
                assert_eq!(
                    fu.to_bits(),
                    su.to_bits(),
                    "{} utility drifted",
                    solver.name()
                );
            }
        },
    );
}

/// The brute-force (index-free) construction is subject to the same
/// guarantee: the cache must not change which pairs are considered
/// valid, only how fast their base utility is computed.
#[test]
fn brute_force_contexts_agree_with_indexed() {
    for_all(
        "brute_force_contexts_agree_with_indexed",
        CASES,
        gen_instance,
        |instance| {
            let model = PearsonUtility::new(diurnal_profile(TAGS, 6));
            let indexed = SolverContext::indexed(instance, &model);
            let brute = SolverContext::brute_force(instance, &model);
            let a = Greedy.assign(&indexed);
            let b = Greedy.assign(&brute);
            assert_eq!(a.assignments(), b.assignments());
        },
    );
}

/// The precomputed CSR eligibility index (DESIGN.md §11) holds
/// exactly the pairs `pair_valid` accepts, in both construction modes,
/// and every row is stored in canonical ascending-id order (checked
/// as stored, not after a sort, so release builds pin it too).
#[test]
fn eligibility_csr_agrees_with_pair_valid() {
    for_all(
        "eligibility_csr_agrees_with_pair_valid",
        CASES,
        gen_instance,
        |instance| {
            let model = PearsonUtility::new(diurnal_profile(TAGS, 6));
            for ctx in [
                SolverContext::indexed(instance, &model),
                SolverContext::brute_force(instance, &model),
            ] {
                for (vid, _) in instance.vendors_enumerated() {
                    let expect: Vec<_> = instance
                        .customers_enumerated()
                        .map(|(cid, _)| cid)
                        .filter(|&cid| ctx.pair_valid(cid, vid))
                        .collect();
                    assert_eq!(
                        ctx.eligible_customers(vid),
                        expect,
                        "vendor {} customers",
                        vid
                    );
                }
                for (cid, _) in instance.customers_enumerated() {
                    let expect: Vec<_> = instance
                        .vendors_enumerated()
                        .map(|(vid, _)| vid)
                        .filter(|&vid| ctx.pair_valid(cid, vid))
                        .collect();
                    assert_eq!(
                        ctx.eligible_vendors(cid),
                        expect,
                        "customer {} vendors",
                        cid
                    );
                }
            }
        },
    );
}

/// The batched pair-base kernel is bit-identical to per-pair
/// `pair_base` in every cache configuration: memoized, fused-only
/// (`with_pair_cache_cap(0)`), and fully uncached.
#[test]
fn pair_base_block_is_zero_ulp() {
    for_all(
        "pair_base_block_is_zero_ulp",
        CASES,
        gen_instance,
        |instance| {
            let model = PearsonUtility::new(diurnal_profile(TAGS, 6));
            let reference = SolverContext::indexed(instance, &model).without_pair_cache();
            let contexts = [
                SolverContext::indexed(instance, &model),
                SolverContext::indexed(instance, &model).with_pair_cache_cap(0),
                SolverContext::indexed(instance, &model).without_pair_cache(),
            ];
            let mut block = Vec::new();
            for ctx in &contexts {
                for (vid, _) in instance.vendors_enumerated() {
                    let cids = ctx.eligible_customers(vid).to_vec();
                    // Twice: fill pass then memo-hit pass.
                    for pass in 0..2 {
                        ctx.pair_base_block(vid, &cids, &mut block);
                        assert_eq!(block.len(), cids.len());
                        for (k, &cid) in cids.iter().enumerate() {
                            assert_eq!(
                                block[k].to_bits(),
                                reference.pair_base(cid, vid).to_bits(),
                                "pair ({}, {}) pass {}",
                                cid,
                                vid,
                                pass
                            );
                        }
                    }
                }
            }
        },
    );
}

/// Solver outputs are invariant to the pair-cache cap: a context
/// with memoization disabled must produce byte-identical assignments
/// to the default (memoized) one.
#[test]
fn solvers_invariant_to_cache_cap() {
    for_all(
        "solvers_invariant_to_cache_cap",
        CASES,
        gen_instance,
        |instance| {
            let model = PearsonUtility::new(diurnal_profile(TAGS, 6));
            let memoized = SolverContext::indexed(instance, &model);
            let capless = SolverContext::indexed(instance, &model).with_pair_cache_cap(0);
            let solvers: Vec<Box<dyn OfflineSolver>> = vec![
                Box::new(Greedy),
                Box::new(Recon::new()),
                Box::new(BatchedRecon::new(3)),
            ];
            for solver in &solvers {
                let a = solver.assign(&memoized);
                let b = solver.assign(&capless);
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

/// Vendors whose tags hold zero blocks, which the cached kernel skips:
/// every pair base (memo fill, memo hit and batched block alike) is
/// bit-identical to the uncached evaluation, which visits every block,
/// and every solver's output matches an uncached sequential run.
#[test]
fn sparse_vendor_tags_are_zero_ulp() {
    for_all(
        "sparse_vendor_tags_are_zero_ulp",
        CASES,
        gen_sparse_instance,
        |instance| {
            let model = PearsonUtility::new(diurnal_profile(WIDE_TAGS, 5));
            let cached = SolverContext::indexed(instance, &model);
            let uncached = SolverContext::indexed(instance, &model).without_pair_cache();
            let mut block = Vec::new();
            for (vid, _) in instance.vendors_enumerated() {
                let cids = cached.eligible_customers(vid).to_vec();
                cached.pair_base_block(vid, &cids, &mut block);
                for (k, &cid) in cids.iter().enumerate() {
                    let reference = uncached.pair_base(cid, vid).to_bits();
                    assert_eq!(block[k].to_bits(), reference, "block ({cid}, {vid})");
                }
            }
            for (cid, _) in instance.customers_enumerated() {
                for (vid, _) in instance.vendors_enumerated() {
                    let reference = uncached.pair_base(cid, vid).to_bits();
                    assert_eq!(cached.pair_base(cid, vid).to_bits(), reference);
                }
            }
            let solvers: Vec<Box<dyn OfflineSolver>> = vec![
                Box::new(Greedy),
                Box::new(Recon::new()),
                Box::new(NearestAssign),
                Box::new(BatchedRecon::new(3)),
            ];
            for solver in &solvers {
                let fresh = SolverContext::indexed(instance, &model);
                let fast = solver.assign(&fresh);
                let slow = par::with_threads(1, || solver.assign(&uncached));
                assert_eq!(
                    fast.assignments(),
                    slow.assignments(),
                    "{} diverged",
                    solver.name()
                );
            }
        },
    );
}
