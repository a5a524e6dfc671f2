//! Standalone pair-cache benchmark report: measures the pair-base
//! memoization speedup over every eligible pair (the memo holds only
//! those) and the parallel candidate-generation scaling on a
//! pair_base-heavy synthetic workload, then writes the numbers to
//! `BENCH_pair_cache.json` in the current directory — plus the
//! arena-vs-alloc candidate-generation comparison (DESIGN.md §11) to
//! `BENCH_candidate_arena.json`.
//!
//! It needs no harness and runs in a few seconds, so it can gate the
//! ≥3× acceptance bar for DESIGN.md §10 (and the ≥2× candidate-arena
//! bar of §11).
//!
//! A third group (DESIGN.md §12) measures the epoch-based delta engine:
//! `SolverContext::apply_delta` at ~1% customer churn vs a from-scratch
//! context rebuild, written to `BENCH_incremental.json`.
//!
//! Usage: `pair_cache_report [customers] [vendors]` (default
//! 10000 × 100). Set `MUAA_BENCH_MIN_HIT_SPEEDUP` /
//! `MUAA_BENCH_MIN_ARENA_SPEEDUP` / `MUAA_BENCH_MIN_DELTA_SPEEDUP` to
//! fail the run (exit 1) when the corresponding speedup comes in under
//! the floor — the CI bench-smoke and dynamic-scenario jobs use this on
//! a small fixture.

use muaa_algorithms::{Greedy, OfflineSolver, Recon, SolverContext};
use muaa_core::{par, CustomerId, Delta, DeltaBatch, Point, ProblemInstance, VendorId};
use muaa_spatial::GridIndex;
use std::time::Instant;

/// Best-of-N wall clock for `f`, in seconds.
fn best_of<R>(n: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..n {
        let t = Instant::now();
        std::hint::black_box(f());
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

fn main() {
    let mut args = std::env::args().skip(1);
    let customers: usize = args
        .next()
        .map(|a| a.parse().expect("customers must be an integer"))
        .unwrap_or(10_000);
    let vendors: usize = args
        .next()
        .map(|a| a.parse().expect("vendors must be an integer"))
        .unwrap_or(100);
    let fixture = muaa_bench::synthetic_fixture(customers, vendors, (5.0, 10.0));
    let inst = &fixture.instance;

    let cached = SolverContext::indexed(inst, &fixture.model);
    let uncached = SolverContext::indexed(inst, &fixture.model).without_pair_cache();
    assert!(cached.has_pair_cache());
    let eligible_pairs: usize = inst
        .vendors_enumerated()
        .map(|(vid, _)| cached.eligible_customers(vid).len())
        .sum();
    let pairs = eligible_pairs as f64;

    // Only eligible pairs (the CSR rows) have memo slots; a sweep over
    // every customer × vendor pair would time the fused path on both
    // sides and stop measuring the memo.
    let sweep = |ctx: &SolverContext<'_>| -> f64 {
        let mut acc = 0.0;
        for (cid, _) in inst.customers_enumerated() {
            for &vid in ctx.eligible_vendors(cid) {
                acc += ctx.pair_base(cid, vid);
            }
        }
        acc
    };

    // Fill pass first (fused-moment path), then steady-state hits.
    let fill_s = best_of(1, || sweep(&cached));
    let hit_s = best_of(5, || sweep(&cached));
    let uncached_s = best_of(3, || sweep(&uncached));

    // Identity sanity: the two paths must agree bit-for-bit.
    assert_eq!(sweep(&cached).to_bits(), sweep(&uncached).to_bits());

    // Solver-level wall clock, all threads vs one thread, shared
    // warm cache so only the fan-out differs.
    let threads = par::max_threads();
    let greedy_par_s = best_of(3, || Greedy.assign(&cached));
    let greedy_seq_s = best_of(3, || par::with_threads(1, || Greedy.assign(&cached)));
    let recon_par_s = best_of(3, || Recon::new().assign(&cached));
    let recon_seq_s = best_of(3, || par::with_threads(1, || Recon::new().assign(&cached)));

    // End-to-end: cold cached context + solve vs cold uncached
    // sequential context + solve (what a user actually experiences).
    let e2e_cached_s = best_of(3, || {
        let ctx = SolverContext::indexed(inst, &fixture.model);
        Greedy.assign(&ctx)
    });
    let e2e_uncached_s = best_of(3, || {
        par::with_threads(1, || {
            let ctx = SolverContext::indexed(inst, &fixture.model).without_pair_cache();
            Greedy.assign(&ctx)
        })
    });

    // --- Candidate-arena group (DESIGN.md §11): per-vendor candidate
    // generation, old allocating path vs new zero-allocation path. ---
    //
    // Old path (pre-CSR): a grid range query per vendor (fresh Vec),
    // a pair_valid filter into a second fresh Vec, then one pair_base
    // call per candidate. New path: the precomputed CSR eligibility
    // slice plus one pair_base_block call into a reused scratch buffer.
    // Both run against the same warmed memo, so the delta is pure
    // candidate-generation overhead.
    let customer_points: Vec<_> = inst.customers().iter().map(|c| c.location).collect();
    let mean_radius =
        inst.vendors().iter().map(|v| v.radius).sum::<f64>() / inst.num_vendors().max(1) as f64;
    let grid = GridIndex::new(customer_points, mean_radius);

    let gen_old = || -> (f64, usize) {
        let mut acc = 0.0;
        let mut total = 0usize;
        for (vid, vendor) in inst.vendors_enumerated() {
            let hits = grid.range_query(vendor.location, vendor.radius);
            let valid: Vec<CustomerId> = hits
                .into_iter()
                .map(CustomerId::new)
                .filter(|&cid| cached.pair_valid(cid, vid))
                .collect();
            for &cid in &valid {
                acc += cached.pair_base(cid, vid);
            }
            total += valid.len();
        }
        (acc, total)
    };
    let mut scratch: Vec<f64> = Vec::new();
    let mut gen_new = || -> (f64, usize) {
        let mut acc = 0.0;
        let mut total = 0usize;
        for (vid, _) in inst.vendors_enumerated() {
            let cids = cached.eligible_customers(vid);
            cached.pair_base_block(vid, cids, &mut scratch);
            acc += scratch.iter().sum::<f64>();
            total += cids.len();
        }
        (acc, total)
    };
    // Sanity: both paths must see the same candidate set.
    let (old_acc, old_total) = gen_old();
    let (new_acc, new_total) = gen_new();
    assert_eq!(old_total, new_total, "candidate sets diverged");
    assert!(
        (old_acc - new_acc).abs() <= 1e-9 * old_acc.abs().max(1.0),
        "candidate base sums diverged: {old_acc} vs {new_acc}"
    );
    let arena_old_s = best_of(5, gen_old);
    let arena_new_s = best_of(5, &mut gen_new);
    let arena_speedup = arena_old_s / arena_new_s;
    let old_pairs_per_s = eligible_pairs as f64 / arena_old_s;
    let new_pairs_per_s = eligible_pairs as f64 / arena_new_s;

    let speedup_hit = uncached_s / hit_s;
    let speedup_fill = uncached_s / fill_s;
    let json = format!(
        concat!(
            "{{\n",
            "  \"fixture\": {{\"customers\": {}, \"vendors\": {}, \"tags\": 8}},\n",
            "  \"threads\": {},\n",
            "  \"eligible_pairs\": {},\n",
            "  \"pair_base_ns_per_pair\": {{\n",
            "    \"uncached\": {:.3},\n",
            "    \"cached_fill\": {:.3},\n",
            "    \"cached_hit\": {:.3}\n",
            "  }},\n",
            "  \"pair_base_speedup\": {{\"hit\": {:.2}, \"fill\": {:.2}}},\n",
            "  \"solver_wall_ms\": {{\n",
            "    \"greedy_parallel\": {:.3},\n",
            "    \"greedy_sequential\": {:.3},\n",
            "    \"recon_parallel\": {:.3},\n",
            "    \"recon_sequential\": {:.3},\n",
            "    \"greedy_end_to_end_cached_parallel\": {:.3},\n",
            "    \"greedy_end_to_end_uncached_sequential\": {:.3}\n",
            "  }}\n",
            "}}\n"
        ),
        customers,
        vendors,
        threads,
        eligible_pairs,
        uncached_s / pairs * 1e9,
        fill_s / pairs * 1e9,
        hit_s / pairs * 1e9,
        speedup_hit,
        speedup_fill,
        greedy_par_s * 1e3,
        greedy_seq_s * 1e3,
        recon_par_s * 1e3,
        recon_seq_s * 1e3,
        e2e_cached_s * 1e3,
        e2e_uncached_s * 1e3,
    );
    std::fs::write("BENCH_pair_cache.json", &json).expect("write BENCH_pair_cache.json");
    print!("{json}");

    let arena_json = format!(
        concat!(
            "{{\n",
            "  \"fixture\": {{\"customers\": {}, \"vendors\": {}, \"tags\": 8}},\n",
            "  \"threads\": {},\n",
            "  \"eligible_pairs\": {},\n",
            "  \"candidate_generation_pairs_per_s\": {{\n",
            "    \"old_alloc_per_vendor\": {:.0},\n",
            "    \"new_csr_arena\": {:.0}\n",
            "  }},\n",
            "  \"candidate_generation_ms\": {{\n",
            "    \"old_alloc_per_vendor\": {:.3},\n",
            "    \"new_csr_arena\": {:.3}\n",
            "  }},\n",
            "  \"speedup\": {:.2},\n",
            "  \"target_speedup\": 2.0\n",
            "}}\n"
        ),
        customers,
        vendors,
        threads,
        eligible_pairs,
        old_pairs_per_s,
        new_pairs_per_s,
        arena_old_s * 1e3,
        arena_new_s * 1e3,
        arena_speedup,
    );
    std::fs::write("BENCH_candidate_arena.json", &arena_json)
        .expect("write BENCH_candidate_arena.json");
    print!("{arena_json}");

    // --- Incremental-delta group (DESIGN.md §12): epoch-based
    // apply_delta at ~1% customer churn vs a from-scratch context
    // rebuild on the post-delta instance. The churn batch mixes
    // relocations (50%), departure+arrival pairs (25%) and vendor
    // radius updates (25%), sized to 1% of the customer population. ---
    let churn = (customers / 100).max(1);
    let churn_batch = |inst_now: &ProblemInstance, round: u64| -> DeltaBatch {
        let n = inst_now.num_customers() as u64;
        let v = inst_now.num_vendors() as u64;
        let mut batch = DeltaBatch::new();
        for k in 0..churn as u64 {
            let seed = round.wrapping_mul(churn as u64).wrapping_add(k);
            let pick = seed.wrapping_mul(2_654_435_761) % n;
            // Interior targets: churn relocates customers *within* the
            // served region. Points outside the current bounding box
            // would legitimately force grid-geometry rebuilds, which is
            // not the steady-state this benchmark measures.
            let x = 0.1 + 0.8 * ((seed as f64 * 0.618_033_988_749_895) % 1.0);
            let y = 0.1 + 0.8 * ((seed as f64 * 0.754_877_666_246_693) % 1.0);
            match k % 4 {
                0 | 1 => batch.push(Delta::MoveCustomer(
                    CustomerId::from(pick as usize),
                    Point::new(x, y),
                )),
                2 => {
                    let mut c = inst_now.customer(CustomerId::from(pick as usize)).clone();
                    c.location = Point::new(x, y);
                    batch.push(Delta::RemoveCustomer(CustomerId::from(pick as usize)));
                    batch.push(Delta::AddCustomer(c));
                }
                _ => {
                    let vid = VendorId::from((pick % v) as usize);
                    let r = inst_now.vendor(vid).radius;
                    batch.push(Delta::VendorRadius(vid, r * (0.9 + 0.2 * x)));
                }
            }
        }
        batch
    };
    let mut live = SolverContext::indexed(inst, &fixture.model);
    let rounds = 8u64;
    let mut delta_s = f64::INFINITY;
    let mut deltas_per_batch = 0usize;
    for round in 0..rounds {
        let batch = churn_batch(live.instance(), round);
        deltas_per_batch = batch.len();
        let t = Instant::now();
        live.apply_delta(&batch).expect("churn batch is valid");
        delta_s = delta_s.min(t.elapsed().as_secs_f64());
    }
    let post = live.instance().clone();
    let rebuild_s = best_of(3, || SolverContext::indexed(&post, &fixture.model));
    // Integrity: the patched engine must be solver-indistinguishable
    // from the rebuild it claims to replace.
    let fresh = SolverContext::indexed(&post, &fixture.model);
    assert_eq!(
        Greedy.assign(&live).assignments(),
        Greedy.assign(&fresh).assignments(),
        "delta engine diverged from a fresh rebuild"
    );
    let delta_speedup = rebuild_s / delta_s;

    let incremental_json = format!(
        concat!(
            "{{\n",
            "  \"fixture\": {{\"customers\": {}, \"vendors\": {}, \"tags\": 8}},\n",
            "  \"threads\": {},\n",
            "  \"churn\": {{\"customers_per_batch\": {}, \"deltas_per_batch\": {}, \"rounds\": {}}},\n",
            "  \"apply_delta_ms\": {:.3},\n",
            "  \"full_rebuild_ms\": {:.3},\n",
            "  \"speedup\": {:.2},\n",
            "  \"target_speedup\": 5.0\n",
            "}}\n"
        ),
        customers,
        vendors,
        threads,
        churn,
        deltas_per_batch,
        rounds,
        delta_s * 1e3,
        rebuild_s * 1e3,
        delta_speedup,
    );
    std::fs::write("BENCH_incremental.json", &incremental_json)
        .expect("write BENCH_incremental.json");
    print!("{incremental_json}");

    eprintln!(
        "pair_base memo-hit speedup: {speedup_hit:.2}x (target >= 3x); \
         fill speedup: {speedup_fill:.2}x; \
         candidate-arena speedup: {arena_speedup:.2}x (target >= 2x); \
         delta-vs-rebuild speedup: {delta_speedup:.2}x (target >= 5x); threads: {threads}"
    );

    // Optional CI floors: fail loudly when a speedup regresses below the
    // configured minimum.
    let floor = |var: &str| -> Option<f64> {
        std::env::var(var).ok().map(|v| {
            v.parse()
                .unwrap_or_else(|_| panic!("{var} must be a float"))
        })
    };
    let mut failed = false;
    if let Some(min) = floor("MUAA_BENCH_MIN_HIT_SPEEDUP") {
        if speedup_hit < min {
            eprintln!("FAIL: memo-hit speedup {speedup_hit:.2}x < floor {min:.2}x");
            failed = true;
        }
    }
    if let Some(min) = floor("MUAA_BENCH_MIN_ARENA_SPEEDUP") {
        if arena_speedup < min {
            eprintln!("FAIL: candidate-arena speedup {arena_speedup:.2}x < floor {min:.2}x");
            failed = true;
        }
    }
    if let Some(min) = floor("MUAA_BENCH_MIN_DELTA_SPEEDUP") {
        if delta_speedup < min {
            eprintln!("FAIL: delta-vs-rebuild speedup {delta_speedup:.2}x < floor {min:.2}x");
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}
