//! Thread-count byte-identity of the offline solvers (DESIGN.md §14):
//! GREEDY, RECON and BATCHED-RECON(8), re-run at 1/2/4/8 pinned
//! threads, must produce the same bytes, on a small synthetic fixture
//! with dense tags and on a Foursquare-sim fixture large enough for the
//! customer-major walk to split, with sparse vendor tags.
//!
//! The workspace's core invariant is that every parallel path is
//! bit-identical to its 1-thread run — `par_map` fans out in fixed
//! input order, and GREEDY's candidate order is a strict total order,
//! so any correct sort yields the same permutation. This test is the
//! end-to-end check of that claim: each solver's full assignment list
//! *and* its total utility are serialized to a byte fingerprint (ids
//! plus raw `f64` bits, so a 1-ULP drift fails), and every run must
//! match the 1-thread run, in which every fan-out runs inline. The
//! thread counts are pinned with [`par::with_threads`], so the check
//! holds meaning on a single-core host too. Under
//! `--features muaa-core/muaa-sanitize` the allocation and NaN guards
//! are live while it runs.

use muaa_algorithms::{BatchedRecon, Greedy, OfflineSolver, Recon, SolverContext};
use muaa_core::{par, simd, PearsonUtility};
use muaa_datagen::{generate_synthetic, FoursquareConfig, FoursquareSim, Range, SyntheticConfig};

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Byte fingerprint of a solver run: each assignment's ids in commit
/// order, then the total utility as raw bits.
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

/// Panic with the first differing byte unless `run` equals `baseline`.
fn assert_same_bytes(baseline: &[u8], run: &[u8], what: &str) {
    if run == baseline {
        return;
    }
    let first = baseline
        .iter()
        .zip(run)
        .position(|(a, b)| a != b)
        .unwrap_or(baseline.len().min(run.len()));
    panic!(
        "{what} diverges from the 1-thread run at byte {first} (lens {} vs {})",
        baseline.len(),
        run.len()
    );
}

/// Run GREEDY, RECON and BATCHED-RECON(8) on `ctx` at every thread
/// count and require each run's bytes to equal the 1-thread run's.
fn assert_thread_count_invariant(ctx: &SolverContext<'_>) {
    let solvers: [(&str, &dyn OfflineSolver); 3] = [
        ("GREEDY", &Greedy),
        ("RECON", &Recon::new()),
        ("BATCHED-RECON(8)", &BatchedRecon::new(8)),
    ];
    for (name, solver) in solvers {
        let baseline = par::with_threads(THREAD_COUNTS[0], || fingerprint(solver, ctx));
        assert!(
            baseline.len() > 8,
            "{name} assigned nothing, so the comparison would be vacuous"
        );
        for &threads in &THREAD_COUNTS[1..] {
            let run = par::with_threads(threads, || fingerprint(solver, ctx));
            assert_same_bytes(&baseline, &run, &format!("{name} at {threads} threads"));
        }
    }
}

#[test]
fn solvers_are_byte_identical_at_every_thread_count() {
    let cfg = SyntheticConfig {
        customers: 2_000,
        vendors: 40,
        budget: Range::new(5.0, 10.0),
        radius: Range::new(0.03, 0.06),
        seed: 0xBE7C,
        ..Default::default()
    };
    let instance = generate_synthetic(&cfg);
    let model = PearsonUtility::uniform(cfg.tags);
    assert_thread_count_invariant(&SolverContext::indexed(&instance, &model));
}

/// The same check on Foursquare-sim check-ins: 8,500 customers is over
/// twice the customer-major walk's per-chunk floor of 4,096, so
/// GREEDY's and RECON's walks split into chunks at 2 threads and more,
/// and the venues' category tags leave most 4-lane tag blocks zero, so
/// the pair kernel skips them.
#[test]
fn solvers_are_byte_identical_at_every_thread_count_on_foursquare_sim() {
    let sim = FoursquareSim::generate(&FoursquareConfig {
        checkins: 8_500,
        venues: 300,
        ..Default::default()
    });
    let instance = &sim.instance;
    assert!(instance.num_customers() >= 2 * 4_096, "walk must split");
    let sparse = (instance.vendors().iter())
        .filter(|v| {
            let tags = v.tags.as_slice();
            let blocks = tags.len() / simd::LANES;
            simd::nonzero_blocks(tags).count_ones() < blocks as u32
        })
        .count();
    assert!(sparse > 0, "some vendor must have a zero tag block");
    assert_thread_count_invariant(&SolverContext::indexed(instance, &sim.model));
}
