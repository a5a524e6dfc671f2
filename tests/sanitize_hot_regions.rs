//! Sanitizer acceptance test (DESIGN.md §14): the `#[muaa::hot]`
//! regions that lint rule D6 checks statically must also be
//! allocation-free *at runtime* in their steady state, and the solver
//! pipeline must produce only finite utilities.
//!
//! Run with `cargo test --features muaa-sanitize` — the feature swaps
//! in muaa-core's counting global allocator, so every `AllocGuard`
//! region below reports real per-thread allocation counts. Without the
//! feature the guards are no-ops; the test then only smoke-checks the
//! API surface (and documents that fact), so a plain `cargo test` stays
//! green.
//!
//! Protocol: run the full solver stack once to warm every reusable
//! buffer (pair-base memo, thread-local scratch, query output vectors),
//! reset the region registry, run everything again, and require at
//! least five distinct guarded hot regions to have executed with **zero
//! allocations observed**. Everything is forced onto the calling thread
//! (`par::with_sequential`) so the thread-local scratch warmed in pass
//! one is the scratch measured in pass two; thread-count *equivalence*
//! is `tests/thread_determinism.rs`'s job, not this test's.

use muaa_algorithms::{BatchedRecon, Greedy, OfflineSolver, Recon, SolverContext};
use muaa_core::{par, sanitize, Point, UtilityModel};
use muaa_datagen::{generate_synthetic, Range, SyntheticConfig};
use muaa_spatial::{GridIndex, VendorIndex};

/// Regions that must be allocation-free at steady state. The counting
/// regions get their zero from warmed caller-owned buffers; the strict
/// ones would have panicked on drop already if they ever allocated.
const MUST_BE_ZERO: [&str; 7] = [
    "context.pair_base_block",
    "context.fill_memo",
    "context.best_ad_type",
    "grid.visit_candidates",
    "grid.range_query_into",
    "vendor_index.covering_into",
    "utility.similarity_fused",
];

#[test]
fn hot_regions_are_allocation_free_at_steady_state() {
    let cfg = SyntheticConfig {
        customers: 400,
        vendors: 12,
        budget: Range::new(4.0, 8.0),
        radius: Range::new(0.2, 0.4),
        seed: 0x5A11,
        ..Default::default()
    };
    let tags = cfg.tags;
    let inst = generate_synthetic(&cfg);
    let model = muaa_core::PearsonUtility::uniform(tags);
    let ctx = SolverContext::indexed(&inst, &model);
    let grid = GridIndex::new(inst.customers().iter().map(|c| c.location).collect(), 0.3);
    let vindex = VendorIndex::new(inst.vendors());
    let probe = Point::new(0.5, 0.5);
    let (cid, _) = inst.customers_enumerated().next().expect("nonempty");
    let (vid, vendor) = inst.vendors_enumerated().next().expect("nonempty");
    let customer = inst.customer(cid);

    let mut ids = Vec::new();
    let mut vids = Vec::new();
    let exercise = |ids: &mut Vec<u32>, vids: &mut Vec<muaa_core::VendorId>| {
        let _nan = sanitize::NanGuard::new("test.solver_pipeline");
        std::hint::black_box(Greedy.assign(&ctx));
        std::hint::black_box(Recon::new().assign(&ctx));
        std::hint::black_box(BatchedRecon::new(4).assign(&ctx));
        grid.range_query_into(probe, 0.3, ids);
        vindex.covering_into(probe, vids);
        std::hint::black_box(ctx.best_ad_type(cid, vid, inst.vendor(vid).budget));
        std::hint::black_box(model.similarity(cid, customer, vid, vendor));
    };

    par::with_sequential(|| {
        // Pass 1: warm the memo, the thread-local pair-base scratch and
        // the query output buffers on *this* thread.
        exercise(&mut ids, &mut vids);
        sanitize::reset_region_stats();
        // Pass 2: the steady state the zero-alloc claim is about.
        exercise(&mut ids, &mut vids);
    });

    let stats = sanitize::region_stats();
    if !sanitize::enabled() {
        assert!(
            stats.is_empty(),
            "no-op sanitize build must not record regions"
        );
        return;
    }

    for region in MUST_BE_ZERO {
        let (_, s) = stats
            .iter()
            .find(|(name, _)| *name == region)
            .unwrap_or_else(|| panic!("hot region `{region}` was never exercised"));
        assert!(s.entries > 0, "hot region `{region}` recorded no entries");
        assert_eq!(
            s.allocations, 0,
            "hot region `{region}` allocated at steady state: {s:?}"
        );
        assert_eq!(
            s.nonfinite, 0,
            "hot region `{region}` saw non-finite values"
        );
    }
    let clean = stats
        .iter()
        .filter(|(_, s)| s.entries > 0 && s.allocations == 0)
        .count();
    assert!(
        clean >= 5,
        "need ≥5 zero-allocation hot regions, got {clean}: {stats:?}"
    );
}

/// The solver pipeline must never produce NaN/Inf pair bases on real
/// models — `note_f64` feeds every memo-miss base into the thread's
/// non-finite counter, so a single bad value fails this test under
/// `--features muaa-sanitize`.
#[test]
fn solver_pipeline_produces_only_finite_utilities() {
    let cfg = SyntheticConfig {
        customers: 300,
        vendors: 10,
        budget: Range::new(4.0, 8.0),
        radius: Range::new(0.2, 0.4),
        seed: 0xF17E,
        ..Default::default()
    };
    let tags = cfg.tags;
    let inst = generate_synthetic(&cfg);
    let model = muaa_core::PearsonUtility::uniform(tags);
    let ctx = SolverContext::indexed(&inst, &model);
    let before = sanitize::thread_nonfinite_count();
    par::with_sequential(|| {
        let _nan = sanitize::NanGuard::new("test.finite_pipeline");
        std::hint::black_box(Greedy.assign(&ctx));
        std::hint::black_box(Recon::new().assign(&ctx));
    });
    assert_eq!(
        sanitize::thread_nonfinite_count(),
        before,
        "solver pipeline produced non-finite pair bases"
    );
}

/// A context build allocates per vendor and per index, not per
/// customer: c2v is the transpose of the per-vendor scans and the
/// customer moments are written in place into the flat arrays
/// (DESIGN.md §10–§11). At the Table IV defaults (500 vendors),
/// doubling the customers from 10 000 to 20 000 must add fewer than
/// 1 000 allocations. The build runs on the calling thread so the
/// per-thread counter sees all of it; without `muaa-sanitize` both
/// counts read 0 and the check holds trivially.
#[test]
fn context_build_allocations_do_not_scale_with_customers() {
    let build_allocs = |customers| {
        let cfg = SyntheticConfig {
            customers,
            ..Default::default()
        };
        assert_eq!(cfg.vendors, 500, "Table IV default vendor count");
        let inst = generate_synthetic(&cfg);
        let model = muaa_core::PearsonUtility::uniform(cfg.tags);
        par::with_sequential(|| {
            let before = sanitize::thread_alloc_count();
            let ctx = SolverContext::indexed(&inst, &model);
            let allocs = sanitize::thread_alloc_count() - before;
            drop(ctx);
            allocs
        })
    };
    let (small, large) = (build_allocs(10_000), build_allocs(20_000));
    assert!(
        large.saturating_sub(small) < 1_000,
        "10 000 more customers cost {} more allocations ({small} → {large})",
        large.saturating_sub(small)
    );
}

/// RECON's phase 1 allocates per vendor, not per MCKP class: each
/// problem keeps its classes in one flat item buffer and the LP-greedy
/// solver builds every class's hull in scratch reused across the solve
/// (DESIGN.md §3.1). On the Table IV synthetic fixture, doubling the
/// customers from 10 000 to 20 000 must add fewer than 5 000
/// allocations to a sequential RECON plan on a built context. Without
/// `muaa-sanitize` both counts read 0 and the check holds trivially.
#[test]
fn recon_allocations_do_not_scale_with_customers() {
    let plan_allocs = |customers| {
        let cfg = SyntheticConfig {
            customers,
            ..Default::default()
        };
        assert_eq!(cfg.vendors, 500, "Table IV default vendor count");
        let inst = generate_synthetic(&cfg);
        let model = muaa_core::PearsonUtility::uniform(cfg.tags);
        par::with_sequential(|| {
            let ctx = SolverContext::indexed(&inst, &model);
            let before = sanitize::thread_alloc_count();
            let set = Recon::new().assign(&ctx);
            let allocs = sanitize::thread_alloc_count() - before;
            drop(set);
            allocs
        })
    };
    let (small, large) = (plan_allocs(10_000), plan_allocs(20_000));
    assert!(
        large.saturating_sub(small) < 5_000,
        "10 000 more customers cost {} more allocations ({small} → {large})",
        large.saturating_sub(small)
    );
}
