//! Tile-sharding benchmark report (DESIGN.md §15): time the unsharded
//! solver pipeline against the tile-sharded engine across thread counts
//! and tile counts, verify byte-identity of every configuration, and
//! write the numbers to `BENCH_sharding.json` in the current directory.
//!
//! Timings cover the full pipeline a scale-out caller pays: context (or
//! sharded-engine) construction plus a GREEDY solve, on the streamed
//! fixture of [`muaa_bench::streamed_fixture`]. Every timed run's
//! output is fingerprinted (ids + raw utility bits) and compared
//! against the unsharded single-thread baseline — a benchmark that
//! drifted by one ULP is a failed benchmark, not a fast one.
//!
//! The report is honest about its host: it records the machine's core
//! count and flags `thread_scaling_measurable: false` when the host
//! cannot actually run threads concurrently (pinned thread counts keep
//! the determinism check meaningful there, but wall-clock speedups are
//! nominal). The speedup floor is therefore opt-in: set
//! `MUAA_BENCH_MIN_SHARD_SPEEDUP` to fail the run (exit 1) when the
//! best sharded configuration comes in under the floor — CI enables it
//! only on multi-core runners.
//!
//! Usage: `shard_report [customers] [vendors]` (default 100000 × 1000).

use muaa_algorithms::{Greedy, OfflineSolver};
use muaa_algorithms::{ShardedContext, SolverContext};
use muaa_core::par;
use std::time::Instant;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const TILE_COUNTS: [usize; 2] = [16, 64];

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

/// Byte fingerprint: assignment ids in commit order + utility bits.
fn fingerprint(
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

fn main() {
    let mut args = std::env::args().skip(1);
    let customers: usize = args
        .next()
        .map(|a| a.parse().expect("customers must be an integer"))
        .unwrap_or(100_000);
    let vendors: usize = args
        .next()
        .map(|a| a.parse().expect("vendors must be an integer"))
        .unwrap_or(1_000);
    let fixture = muaa_bench::streamed_fixture(customers, vendors);
    let inst = &fixture.instance;
    let model = &fixture.model;
    let cores = par::max_threads();
    let measurable = cores >= 2;

    if !cfg!(feature = "parallel") {
        println!(
            "shard_report: sequential build — thread counts are nominal, \
             run with --features parallel for the real check"
        );
    }

    // Baseline: unsharded pipeline (indexed context + GREEDY) at one
    // pinned thread — the identity reference for every other run.
    let baseline = par::with_threads(1, || {
        let ctx = SolverContext::indexed(inst, model);
        fingerprint(&Greedy.assign(&ctx), inst, model)
    });

    let mut unsharded = Vec::new();
    for &threads in &THREAD_COUNTS {
        let secs = best_of(2, || {
            par::with_threads(threads, || {
                let ctx = SolverContext::indexed(inst, model);
                let set = Greedy.assign(&ctx);
                assert_eq!(
                    fingerprint(&set, inst, model),
                    baseline,
                    "unsharded run at {threads} thread(s) drifted"
                );
                set
            })
        });
        println!("unsharded  threads={threads}  {:.1} ms", secs * 1e3);
        unsharded.push(secs);
    }

    let mut sharded = Vec::new(); // (tiles, threads, secs)
    for &tiles in &TILE_COUNTS {
        for &threads in &THREAD_COUNTS {
            let secs = best_of(2, || {
                par::with_threads(threads, || {
                    let mut engine = ShardedContext::new(inst, model, tiles);
                    let set = engine.greedy();
                    assert_eq!(
                        fingerprint(&set, inst, model),
                        baseline,
                        "sharded run (tiles={tiles}, threads={threads}) drifted"
                    );
                    set
                })
            });
            println!(
                "sharded    tiles={tiles}  threads={threads}  {:.1} ms",
                secs * 1e3
            );
            sharded.push((tiles, threads, secs));
        }
    }

    // Headline speedup: best sharded configuration vs the unsharded run
    // at the same thread count (engine-vs-engine, not thread scaling),
    // and the cross-thread scaling of the best tile count.
    let &(best_tiles, best_threads, best_secs) = sharded
        .iter()
        .min_by(|a, b| a.2.total_cmp(&b.2))
        .expect("at least one sharded configuration");
    let unsharded_same_threads = unsharded[THREAD_COUNTS
        .iter()
        .position(|&t| t == best_threads)
        .expect("thread count present")];
    let speedup = unsharded_same_threads / best_secs;

    let mut sharded_json = String::new();
    for (i, &(tiles, threads, secs)) in sharded.iter().enumerate() {
        let sep = if i + 1 == sharded.len() { "" } else { "," };
        sharded_json.push_str(&format!(
            "    {{\"tiles\": {tiles}, \"threads\": {threads}, \"ms\": {:.3}}}{sep}\n",
            secs * 1e3
        ));
    }
    let unsharded_json = THREAD_COUNTS
        .iter()
        .zip(&unsharded)
        .map(|(t, s)| format!("    {{\"threads\": {t}, \"ms\": {:.3}}}", s * 1e3))
        .collect::<Vec<_>>()
        .join(",\n");

    let json = format!(
        concat!(
            "{{\n",
            "  \"fixture\": {{\"customers\": {}, \"vendors\": {}, \"generator\": \"streamed\"}},\n",
            "  \"machine_cores\": {},\n",
            "  \"thread_scaling_measurable\": {},\n",
            "  \"identity\": \"all runs byte-identical to unsharded 1-thread baseline\",\n",
            "  \"unsharded_greedy_ms\": [\n{}\n  ],\n",
            "  \"sharded_greedy_ms\": [\n{}  ],\n",
            "  \"best\": {{\"tiles\": {}, \"threads\": {}, \"ms\": {:.3}}},\n",
            "  \"speedup_vs_unsharded_same_threads\": {:.2}\n",
            "}}\n"
        ),
        customers,
        vendors,
        cores,
        measurable,
        unsharded_json,
        sharded_json,
        best_tiles,
        best_threads,
        best_secs * 1e3,
        speedup,
    );
    std::fs::write("BENCH_sharding.json", &json).expect("write BENCH_sharding.json");
    print!("{json}");

    eprintln!(
        "sharded-vs-unsharded speedup: {speedup:.2}x at tiles={best_tiles}, \
         threads={best_threads}; cores: {cores}; \
         thread scaling measurable: {measurable}"
    );

    if let Some(min) = std::env::var("MUAA_BENCH_MIN_SHARD_SPEEDUP").ok().map(|v| {
        v.parse::<f64>()
            .unwrap_or_else(|_| panic!("MUAA_BENCH_MIN_SHARD_SPEEDUP must be a float"))
    }) {
        if speedup < min {
            eprintln!("FAIL: sharded speedup {speedup:.2}x < floor {min:.2}x");
            std::process::exit(1);
        }
    }
}
