//! Thread-count determinism harness (DESIGN.md §14): re-run GREEDY,
//! RECON and BATCHED-RECON at 1/2/4/8 threads and diff the outputs
//! byte-for-byte.
//!
//! The workspace's core invariant is that every parallel path is
//! bit-identical to its sequential twin — `par_map` fans out in fixed
//! input order, `par_sort_by` is a stable merge sort, and D7 forbids
//! order-sensitive float reductions in `cfg(parallel)` code. This
//! harness is the end-to-end check of that claim: each solver's full
//! assignment list *and* its total utility are serialized to a byte
//! fingerprint (ids plus raw `f64` bits, so a 1-ULP drift fails), and
//! any fingerprint that differs from the 1-thread baseline — or from a
//! forced-sequential run — is a hard failure.
//!
//! Usage: `determinism_harness [customers] [vendors]` (default
//! 2000 × 40). Exit 0 when every solver is byte-identical across all
//! thread counts, 1 otherwise. CI runs this in the sanitize job; the
//! thread counts are pinned with [`par::with_threads`], so the harness
//! is meaningful even on single-core runners.

use muaa_algorithms::{BatchedRecon, Greedy, OfflineSolver, Recon, ShardedContext, SolverContext};
use muaa_core::par;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Byte fingerprint of an assignment set: each assignment's ids in
/// commit order, then the total utility as raw bits.
fn set_fingerprint(
    set: &muaa_core::AssignmentSet,
    inst: &muaa_core::ProblemInstance,
    model: &dyn muaa_core::UtilityModel,
) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(set.len() * 12 + 8);
    for a in set.assignments() {
        bytes.extend_from_slice(&(a.customer.index() as u32).to_le_bytes());
        bytes.extend_from_slice(&(a.vendor.index() as u32).to_le_bytes());
        bytes.extend_from_slice(&(a.ad_type.index() as u32).to_le_bytes());
    }
    bytes.extend_from_slice(&set.total_utility(inst, model).to_bits().to_le_bytes());
    bytes
}

/// Byte fingerprint of a solver run via the [`OfflineSolver`] surface.
fn fingerprint(solver: &dyn OfflineSolver, ctx: &SolverContext<'_>) -> Vec<u8> {
    let outcome = solver.run(ctx);
    let mut bytes = Vec::with_capacity(outcome.assignments.len() * 12 + 8);
    for a in outcome.assignments.assignments() {
        bytes.extend_from_slice(&(a.customer.index() as u32).to_le_bytes());
        bytes.extend_from_slice(&(a.vendor.index() as u32).to_le_bytes());
        bytes.extend_from_slice(&(a.ad_type.index() as u32).to_le_bytes());
    }
    bytes.extend_from_slice(&outcome.total_utility.to_bits().to_le_bytes());
    bytes
}

fn main() {
    let mut args = std::env::args().skip(1);
    let customers: usize = args
        .next()
        .map(|a| a.parse().expect("customers must be an integer"))
        .unwrap_or(2_000);
    let vendors: usize = args
        .next()
        .map(|a| a.parse().expect("vendors must be an integer"))
        .unwrap_or(40);
    let fixture = muaa_bench::synthetic_fixture(customers, vendors, (5.0, 10.0));
    let ctx = SolverContext::indexed(&fixture.instance, &fixture.model);

    if !cfg!(feature = "parallel") {
        println!(
            "determinism_harness: sequential build — thread counts are nominal, \
             run with --features parallel for the real check"
        );
    }

    let solvers: [(&str, &dyn OfflineSolver); 3] = [
        ("GREEDY", &Greedy),
        ("RECON", &Recon::new()),
        ("BATCHED-RECON(8)", &BatchedRecon::new(8)),
    ];

    let mut failures = 0u32;
    for (name, solver) in solvers {
        let baseline = par::with_threads(THREAD_COUNTS[0], || fingerprint(solver, &ctx));
        let sequential = par::with_sequential(|| fingerprint(solver, &ctx));
        if sequential != baseline {
            println!("FAIL {name}: forced-sequential differs from 1-thread run");
            failures += 1;
        }
        for &threads in &THREAD_COUNTS[1..] {
            let run = par::with_threads(threads, || fingerprint(solver, &ctx));
            if run == baseline {
                println!(
                    "ok   {name}: {threads} thread(s) byte-identical \
                     ({} bytes)",
                    run.len()
                );
            } else {
                let first = baseline
                    .iter()
                    .zip(&run)
                    .position(|(a, b)| a != b)
                    .unwrap_or(baseline.len().min(run.len()));
                println!(
                    "FAIL {name}: {threads} thread(s) diverges from 1 thread \
                     at byte {first} (lens {} vs {})",
                    baseline.len(),
                    run.len()
                );
                failures += 1;
            }
        }
    }

    // Tile-sharded engine (DESIGN.md §15): each sharded solver must be
    // byte-identical to its *unsharded* 1-thread baseline at every
    // thread count — the engine's headline claim, checked end to end.
    const TILES: usize = 25;
    let inst = &fixture.instance;
    let model = &fixture.model;
    type ShardedRun = fn(&mut ShardedContext<'_>) -> muaa_core::AssignmentSet;
    let sharded_runs: [(&str, ShardedRun); 3] = [
        ("SHARDED-GREEDY", |e| e.greedy()),
        ("SHARDED-RECON", |e| e.recon(&Recon::new())),
        ("SHARDED-BATCHED(8)", |e| {
            e.batched_recon(&BatchedRecon::new(8))
        }),
    ];
    let baselines: [&dyn OfflineSolver; 3] = [&Greedy, &Recon::new(), &BatchedRecon::new(8)];
    for ((name, run), solver) in sharded_runs.into_iter().zip(baselines) {
        let baseline = par::with_threads(1, || fingerprint(solver, &ctx));
        for &threads in &THREAD_COUNTS {
            let got = par::with_threads(threads, || {
                let mut engine = ShardedContext::new(inst, model, TILES);
                let set = run(&mut engine);
                set_fingerprint(&set, inst, model)
            });
            if got == baseline {
                println!(
                    "ok   {name}: {threads} thread(s), {TILES} tiles, \
                     byte-identical to unsharded ({} bytes)",
                    got.len()
                );
            } else {
                let first = baseline
                    .iter()
                    .zip(&got)
                    .position(|(a, b)| a != b)
                    .unwrap_or(baseline.len().min(got.len()));
                println!(
                    "FAIL {name}: {threads} thread(s), {TILES} tiles, diverges \
                     from unsharded at byte {first} (lens {} vs {})",
                    baseline.len(),
                    got.len()
                );
                failures += 1;
            }
        }
    }

    if failures > 0 {
        println!("determinism_harness: {failures} divergent run(s)");
        std::process::exit(1);
    }
    println!(
        "determinism_harness: all solvers (sharded and unsharded) \
         byte-identical at {THREAD_COUNTS:?} threads"
    );
}
