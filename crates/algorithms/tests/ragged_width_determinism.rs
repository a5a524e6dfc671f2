//! Thread-count determinism at ragged tag widths: every pair base and
//! every solver output must be byte-identical at 4 threads and
//! sequentially while the tag width sweeps every chunk/tail split of
//! the 4-lane moment schedule (DESIGN.md §16).
//!
//! Tag widths range over 0..=64 — covering the empty vector, widths
//! below one lane chunk, exact multiples of the 4-lane chunk, and every
//! ragged tail in between.

use muaa_algorithms::{BatchedRecon, Greedy, OfflineSolver, Recon, SolverContext};
use muaa_core::{par, PearsonUtility, ProblemInstance};
use muaa_testkit::{
    customer, diurnal_profile, for_all, instance, usize_in, vec_of, vendor, DetRng,
};

/// Instances with a drawn tag width 0..=64, so the kernels see every
/// chunk/tail split the 4-lane schedule distinguishes.
fn gen_ragged_instance(rng: &mut DetRng) -> (usize, ProblemInstance) {
    let tags = usize_in(rng, 0..65);
    let customers = vec_of(rng, 1..8, |r| customer(r, tags, 0.0..1.0));
    let vendors = vec_of(rng, 1..5, |r| vendor(r, tags, 0.0..1.5, 0..700));
    (tags, instance(customers, vendors))
}

/// Raw bits of every pair base out of a *fresh* context (no memo
/// laundering between the two runs under comparison).
fn pair_base_bits(instance: &ProblemInstance, model: &PearsonUtility) -> Vec<u64> {
    let ctx = SolverContext::indexed(instance, model);
    let mut bits = Vec::new();
    for (cid, _) in instance.customers_enumerated() {
        for (vid, _) in instance.vendors_enumerated() {
            bits.push(ctx.pair_base(cid, vid).to_bits());
        }
    }
    bits
}

/// Byte fingerprint of one solver run on a fresh context.
fn solver_bits(
    instance: &ProblemInstance,
    model: &PearsonUtility,
    s: &dyn OfflineSolver,
) -> Vec<u64> {
    let ctx = SolverContext::indexed(instance, model);
    let outcome = s.run(&ctx);
    let mut bits: Vec<u64> = outcome
        .assignments
        .assignments()
        .iter()
        .map(|a| {
            ((a.customer.index() as u64) << 40)
                | ((a.vendor.index() as u64) << 20)
                | a.ad_type.index() as u64
        })
        .collect();
    bits.push(outcome.total_utility.to_bits());
    bits
}

/// Pair bases and the three solvers, each byte-diffed at 4 threads
/// against a sequential run.
#[test]
fn thread_count_is_bitwise_invisible_at_every_ragged_width() {
    for_all(
        "thread_count_is_bitwise_invisible_at_every_ragged_width",
        24,
        gen_ragged_instance,
        |&(tags, ref instance)| {
            // Stride 5 is coprime to 24, so up to 24 tags get distinct
            // curves.
            let model = PearsonUtility::new(diurnal_profile(tags, 5));

            let pairs_par = par::with_threads(4, || pair_base_bits(instance, &model));
            let pairs_seq = par::with_threads(1, || pair_base_bits(instance, &model));
            assert_eq!(pairs_par, pairs_seq, "pair bases diverged at width {tags}");

            let solvers: [&dyn OfflineSolver; 3] = [&Greedy, &Recon::new(), &BatchedRecon::new(3)];
            for solver in solvers {
                let par_bits = par::with_threads(4, || solver_bits(instance, &model, solver));
                let seq_bits = par::with_threads(1, || solver_bits(instance, &model, solver));
                assert_eq!(
                    par_bits,
                    seq_bits,
                    "{} diverged at width {tags}",
                    solver.name()
                );
            }
        },
    );
}
