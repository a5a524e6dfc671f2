//! Sanitizer acceptance test (DESIGN.md §14): the `#[muaa::hot]`
//! regions that lint rule D13 checks statically must also be
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
//! allocations observed**. Everything is pinned to the calling thread
//! (`par::with_threads(1, ..)`) so the thread-local scratch warmed in
//! pass one is the scratch measured in pass two; thread-count
//! *equivalence* is `tests/thread_determinism.rs`'s job, not this
//! test's.

use muaa_algorithms::{BatchedRecon, Greedy, OfflineSolver, Recon, SolverContext};
use muaa_core::{par, sanitize, Point, UtilityModel};
use muaa_datagen::{generate_synthetic, Range, SyntheticConfig};
use muaa_spatial::{GridIndex, VendorIndex};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// The region registry is process-wide, so a test that builds a context
/// while `hot_regions_are_allocation_free_at_steady_state` measures
/// would record its cold-path allocations there. Every test in this
/// binary holds this lock for its whole body.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Regions that must be allocation-free at steady state. The counting
/// regions get their zero from warmed caller-owned buffers; the strict
/// ones would have panicked on drop already if they ever allocated.
const MUST_BE_ZERO: [&str; 7] = [
    "context.pair_base_block",
    "context.walk_pairs",
    "context.best_ad_type",
    "grid.visit_candidates",
    "grid.range_query_into",
    "vendor_index.covering_into",
    "utility.similarity_fused",
];

#[test]
fn hot_regions_are_allocation_free_at_steady_state() {
    let _serial = serial();
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

    par::with_threads(1, || {
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
    let _serial = serial();
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
    par::with_threads(1, || {
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
    let _serial = serial();
    let build_allocs = |customers| {
        let cfg = SyntheticConfig {
            customers,
            ..Default::default()
        };
        assert_eq!(cfg.vendors, 500, "Table IV default vendor count");
        let inst = generate_synthetic(&cfg);
        let model = muaa_core::PearsonUtility::uniform(cfg.tags);
        par::with_threads(1, || {
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

/// The eligibility scan allocates per fan-out chunk, not per vendor:
/// each chunk scans every vendor of its range into one id buffer and
/// one grid-hit buffer, and both CSR directions are transposes of the
/// scans (DESIGN.md §11). A one-thread context build over the
/// Foursquare-sim defaults (10 000 check-ins × 500 venues) must make
/// fewer than 2 allocations per vendor, indexes and moments included.
/// Without `muaa-sanitize` the count reads 0 and the check holds
/// trivially.
#[test]
fn context_build_allocates_less_than_twice_per_vendor() {
    use muaa_datagen::{FoursquareConfig, FoursquareSim};

    let _serial = serial();
    let cfg = FoursquareConfig::default();
    assert_eq!(
        (cfg.checkins, cfg.venues),
        (10_000, 500),
        "Foursquare-sim defaults"
    );
    let sim = FoursquareSim::generate(&cfg);
    let vendors = sim.instance.num_vendors() as u64;
    assert_eq!(vendors, 500);
    par::with_threads(1, || {
        let before = sanitize::thread_alloc_count();
        let ctx = SolverContext::indexed(&sim.instance, &sim.model);
        let allocs = sanitize::thread_alloc_count() - before;
        drop(ctx);
        assert!(
            allocs < 2 * vendors,
            "a build over {vendors} vendors made {allocs} allocations"
        );
    });
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
    let _serial = serial();
    let plan_allocs = |customers| {
        let cfg = SyntheticConfig {
            customers,
            ..Default::default()
        };
        assert_eq!(cfg.vendors, 500, "Table IV default vendor count");
        let inst = generate_synthetic(&cfg);
        let model = muaa_core::PearsonUtility::uniform(cfg.tags);
        par::with_threads(1, || {
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

/// GREEDY allocates per walk chunk, not per vendor: its candidates come
/// from one customer-major walk into buffers each chunk sizes once
/// (DESIGN.md §10). On the Table IV synthetic fixture, doubling the
/// vendors from 500 to 1 000 must add fewer than 100 allocations to a
/// sequential GREEDY plan on a built context. Without `muaa-sanitize`
/// both counts read 0 and the check holds trivially.
#[test]
fn greedy_allocations_do_not_scale_with_vendors() {
    let _serial = serial();
    let plan_allocs = |vendors| {
        let cfg = SyntheticConfig {
            vendors,
            ..Default::default()
        };
        assert_eq!(cfg.customers, 10_000, "Table IV default customer count");
        let inst = generate_synthetic(&cfg);
        let model = muaa_core::PearsonUtility::uniform(cfg.tags);
        par::with_threads(1, || {
            let ctx = SolverContext::indexed(&inst, &model);
            let before = sanitize::thread_alloc_count();
            let set = Greedy.assign(&ctx);
            let allocs = sanitize::thread_alloc_count() - before;
            drop(set);
            allocs
        })
    };
    let (small, large) = (plan_allocs(500), plan_allocs(1_000));
    assert!(
        large.saturating_sub(small) < 100,
        "500 more vendors cost {} more allocations ({small} → {large})",
        large.saturating_sub(small)
    );
}

/// A warm stream of `Delta::VendorTags`, the update path of vendor tag
/// selection, allocates nothing: the instance copies each tag vector
/// into the vendor's own buffer, the context rescans the vendor's row
/// into buffers it keeps, and the memo column reset and the row patches
/// work in place (DESIGN.md §17.1). On a context over 2 000 synthetic
/// customers and 40 vendors covering ~60–250 customers each, one pass
/// over 120 deltas warms the buffers (its first write clones the
/// instance) and a second pass must allocate nothing. Without
/// `muaa-sanitize` the count reads 0 and the check holds trivially.
#[test]
fn vendor_tag_deltas_allocate_nothing_when_warm() {
    use muaa_core::{Delta, TagVector};

    let _serial = serial();
    let cfg = SyntheticConfig {
        customers: 2_000,
        vendors: 40,
        radius: Range::new(0.1, 0.2),
        seed: 0x7A65,
        ..Default::default()
    };
    let inst = generate_synthetic(&cfg);
    let model = muaa_core::PearsonUtility::uniform(cfg.tags);
    // Built before the count starts; each delta owns its tag vector.
    let deltas: Vec<Delta> = (inst.vendors_enumerated())
        .flat_map(|(vid, _)| {
            (0..3).map(move |k| {
                let tag = (vid.index() + k) % cfg.tags;
                let tags = TagVector::one_hot(cfg.tags, tag).expect("tag in range");
                Delta::VendorTags(vid, tags)
            })
        })
        .collect();
    par::with_threads(1, || {
        let mut ctx = SolverContext::indexed(&inst, &model);
        let mut stream = || {
            for delta in &deltas {
                ctx.apply(delta).expect("valid delta");
            }
        };
        stream();
        let before = sanitize::thread_alloc_count();
        stream();
        let allocs = sanitize::thread_alloc_count() - before;
        assert_eq!(
            allocs,
            0,
            "{} warm VendorTags deltas allocated {allocs} times",
            deltas.len()
        );
    });
}

/// A served arrival allocates only the `Vec` of ads it returns: its id
/// is appended to the covering vendors' rows in place, the covering
/// scan and O-AFA's candidates reuse buffers the context and solver
/// keep, and exhausted vendors skip the pair kernel (DESIGN.md §3.3,
/// §12). On a session over 1 000 synthetic customers and 2 000 vendors,
/// after one warm-up arrival (whose first write clones the instance),
/// 10 000 arrivals must make fewer than `arrivals / 100` allocations
/// beyond one per non-empty return. What still allocates is amortized
/// `Vec` growth of the session's tables (instance, moments, the CSR
/// arenas of the eligibility index and the customer grid, served
/// flags). Without `muaa-sanitize` the count reads 0 and the check
/// holds trivially.
#[test]
fn serve_arrivals_allocate_only_their_returns() {
    use muaa_algorithms::online::session::BrokerSession;
    use muaa_core::InstanceBuilder;

    const START: usize = 1_000;
    const ARRIVALS: usize = 10_000;
    let _serial = serial();
    let base = SyntheticConfig::default();
    let people = generate_synthetic(&SyntheticConfig {
        customers: START + 1 + ARRIVALS,
        vendors: 0,
        ..base.clone()
    });
    let market = generate_synthetic(&SyntheticConfig {
        customers: 0,
        vendors: 2_000,
        ..base.clone()
    });
    let (head, tail) = people.customers().split_at(START);
    let snapshot = InstanceBuilder::new()
        .customers(head.iter().cloned())
        .vendors(market.vendors().iter().cloned())
        .ad_types(market.ad_types().iter().cloned())
        .build()
        .expect("customers and vendors share the tag universe");
    let model = muaa_core::PearsonUtility::uniform(base.tags);
    // Cloned before the count starts; a clone inside it would allocate.
    let arrivals = tail.to_vec();
    par::with_threads(1, || {
        let mut arrivals = arrivals.into_iter();
        let mut session = BrokerSession::start(&snapshot, &model);
        session.serve_remaining();
        let warm_up = arrivals.next().expect("one warm-up arrival");
        session.serve_arrival(warm_up).expect("valid arrival");
        let (mut returns, mut ads) = (0u64, 0usize);
        let before = sanitize::thread_alloc_count();
        for customer in arrivals {
            let (_, made) = session.serve_arrival(customer).expect("valid arrival");
            returns += u64::from(!made.is_empty());
            ads += made.len();
        }
        let extra = (sanitize::thread_alloc_count() - before).saturating_sub(returns);
        assert!(ads > 0, "the stream must commit ads");
        assert!(
            extra < ARRIVALS as u64 / 100,
            "{ARRIVALS} arrivals made {extra} allocations beyond their {returns} non-empty returns"
        );
    });
}
