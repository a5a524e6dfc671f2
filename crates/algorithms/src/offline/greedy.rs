//! The GREEDY competitor: commit the feasible ad instance with the
//! currently highest budget efficiency, repeatedly.
//!
//! Budget efficiencies `γ_ijk = λ_ijk / c_k` are static, so the greedy
//! order never changes. [`Greedy`] therefore sorts all candidate
//! triples once and sweeps — `O(C log C)` with `C` candidates — which
//! produces *exactly* the same assignment as the naive loop.
//! [`NaiveGreedy`] re-scans every remaining candidate per committed
//! instance (`O(picks · C)`), matching the cost profile the paper
//! reports for GREEDY; the experiment harness uses it when reproducing
//! the paper's running-time figures and [`Greedy`] everywhere else (an
//! efficiency ablation the benches quantify).
//!
//! Both collect their candidates in one customer-major walk over the
//! eligible pairs (`SolverContext::walk_pairs`, which fills the memo
//! on the way) and order them by an integer key (DESIGN.md §10).

use crate::context::SolverContext;
use crate::offline::OfflineSolver;
use muaa_core::{Assignment, AssignmentSet, ProblemInstance};

/// The sort key of a candidate with efficiency `gamma` at walk rank
/// `rank`. The high word maps γ so that ascending `u64` order is
/// `f64::total_cmp` descending; the low word is the rank. The walk
/// visits customers, vendors and ad types in ascending id order, so
/// ascending keys are GREEDY's commit order: γ descending, ties by
/// customer, vendor and ad type ascending. Ranks are unique, so the
/// keys are too, and any sort lands on the one permutation.
///
/// `total_cmp`, not `<`, so that a pathological utility model producing
/// NaN gammas still gets a total order: +NaN first, −NaN last. For the
/// finite positive gammas of real models the two orders agree.
fn candidate_key(gamma: f64, rank: u64) -> u128 {
    let bits = gamma.to_bits();
    // `total_cmp` order as unsigned order: a negative value flips every
    // bit, a non-negative one sets the sign bit.
    let ascending = if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    };
    (u128::from(!ascending) << 64) | u128::from(rank)
}

/// One walk chunk's candidates in walk order: a sort key per candidate
/// and, at the same position, its triple. `rank_base` is the chunk
/// index in the high half of a rank, the position its low half.
struct Chunk {
    rank_base: u64,
    keys: Vec<u128>,
    triples: Vec<Assignment>,
}

/// Emit every (customer, vendor, ad type) triple with positive utility
/// in one customer-major walk over the eligible pairs (DESIGN.md §10),
/// which fills the memo on the way. Zero-allocation inner loop
/// (DESIGN.md §11): each chunk reserves one slot per eligible pair and
/// ad type up front, so no push reallocates inside the walk's strict
/// region.
#[cfg_attr(any(), muaa::hot)]
fn walk_candidates(ctx: &SolverContext<'_>) -> Vec<Chunk> {
    // Naming the type lets muaa-lint's call graph resolve
    // `inst.ad_types_enumerated()` to `ProblemInstance` alone.
    let inst: &ProblemInstance = ctx.instance();
    let types = inst.num_ad_types();
    ctx.walk_pairs(
        |c, pairs| {
            let cap = pairs * types;
            assert!(cap <= u32::MAX as usize, "candidate rank exceeds 32 bits");
            Chunk {
                rank_base: (c as u64) << 32,
                keys: Vec::with_capacity(cap),
                triples: Vec::with_capacity(cap),
            }
        },
        |chunk, cid, vid, base| {
            if base <= 0.0 {
                return;
            }
            for (tid, t) in inst.ad_types_enumerated() {
                let lambda = base * t.effectiveness;
                if lambda <= 0.0 {
                    continue;
                }
                let rank = chunk.rank_base | chunk.triples.len() as u64;
                let key = candidate_key(lambda / t.cost.as_dollars(), rank);
                // In-capacity: the chunk reserved a slot per pair and
                // ad type. lint: allow(hot_alloc)
                chunk.keys.push(key);
                // Same reserve. lint: allow(hot_alloc)
                chunk.triples.push(Assignment::new(cid, vid, tid));
            }
        },
    )
}

/// GREEDY's candidates: every chunk's keys in one array, and the
/// triples left in their chunks, where a key's rank finds them.
struct Candidates {
    keys: Vec<u128>,
    triples: Vec<Vec<Assignment>>,
}

impl Candidates {
    /// Walk the pairs and gather the chunks' keys; one chunk's keys
    /// are taken as they are.
    fn gather(ctx: &SolverContext<'_>) -> Self {
        let mut chunks = walk_candidates(ctx).into_iter();
        let first = chunks.next().expect("a walk has at least one chunk");
        let (mut keys, mut triples) = (first.keys, vec![first.triples]);
        for chunk in chunks {
            keys.extend_from_slice(&chunk.keys);
            triples.push(chunk.triples);
        }
        Candidates { keys, triples }
    }

    /// The triple a key stands for.
    #[inline]
    fn triple(&self, key: u128) -> Assignment {
        let rank = key as u64;
        self.triples[(rank >> 32) as usize][rank as u32 as usize]
    }
}

/// The GREEDY body: collect candidates, sort their keys into efficiency
/// order, sweep into a feasible set.
fn greedy_assign(ctx: &SolverContext<'_>) -> AssignmentSet {
    let inst = ctx.instance();
    let mut candidates = Candidates::gather(ctx);
    candidates.keys.sort_unstable();
    let mut set = AssignmentSet::new(inst);
    for &key in &candidates.keys {
        // Feasibility only ever degrades, so a one-pass sweep in
        // efficiency order is equivalent to re-selecting the best
        // feasible candidate each iteration.
        set.try_push(inst, candidates.triple(key));
    }
    set
}

/// Fast GREEDY: single sorted sweep over the static-efficiency order.
#[derive(Clone, Copy, Debug, Default)]
pub struct Greedy;

impl OfflineSolver for Greedy {
    fn assign(&self, ctx: &SolverContext<'_>) -> AssignmentSet {
        greedy_assign(ctx)
    }

    fn name(&self) -> &'static str {
        "GREEDY"
    }
}

/// Paper-faithful GREEDY: re-scan all remaining candidates on every
/// iteration to find the "currently best" one, the smallest key among
/// the feasible candidates. Identical output to [`Greedy`], quadratic
/// cost profile.
#[derive(Clone, Copy, Debug, Default)]
pub struct NaiveGreedy;

impl OfflineSolver for NaiveGreedy {
    fn assign(&self, ctx: &SolverContext<'_>) -> AssignmentSet {
        let inst = ctx.instance();
        let mut candidates = Candidates::gather(ctx);
        let mut set = AssignmentSet::new(inst);
        loop {
            let mut best: Option<(usize, u128)> = None;
            for (i, &key) in candidates.keys.iter().enumerate() {
                if best.is_none_or(|(_, b)| key < b) && set.fits(inst, candidates.triple(key)) {
                    best = Some((i, key));
                }
            }
            let Some((i, key)) = best else { break };
            candidates.keys.swap_remove(i);
            set.push_unchecked(inst, candidates.triple(key));
        }
        set
    }

    fn name(&self) -> &'static str {
        "GREEDY"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::{SolverContext, FILL_MIN_CUSTOMERS};
    use muaa_core::{
        par, AdType, AdTypeId, Customer, CustomerId, DeltaBatch, InstanceBuilder, Money,
        PearsonUtility, Point, ProblemInstance, TagVector, Timestamp, VendorId,
    };
    use std::cmp::Ordering;

    fn instance(m: usize, n: usize, budget: f64) -> ProblemInstance {
        // Deterministic spread of customers/vendors on a line; all tags
        // correlated so every pair has positive similarity.
        let tags = 3;
        let tagvec = |a: f64| TagVector::new(vec![a, 0.5, 1.0 - a]).unwrap();
        InstanceBuilder::new()
            .ad_types([
                AdType::new("TL", Money::from_dollars(1.0), 0.1),
                AdType::new("PL", Money::from_dollars(2.0), 0.4),
            ])
            .customers((0..m).map(|i| Customer {
                location: Point::new(i as f64 / m as f64, 0.5),
                capacity: 2,
                view_probability: 0.2 + 0.6 * (i as f64 / m as f64),
                interests: tagvec(0.2 + 0.6 * (i % 7) as f64 / 7.0),
                arrival: Timestamp::from_hours(i as f64),
            }))
            .vendors((0..n).map(|j| Vendorish::at(j, n, budget, tags)))
            .build()
            .unwrap()
    }

    struct Vendorish;
    impl Vendorish {
        fn at(j: usize, n: usize, budget: f64, _tags: usize) -> muaa_core::Vendor {
            muaa_core::Vendor {
                location: Point::new(j as f64 / n as f64, 0.45),
                radius: 0.3,
                budget: Money::from_dollars(budget),
                tags: TagVector::new(vec![0.2, 0.4, 0.9]).unwrap(),
            }
        }
    }

    #[test]
    fn greedy_output_is_feasible_and_nonempty() {
        let inst = instance(20, 4, 5.0);
        let model = PearsonUtility::uniform(3);
        let ctx = SolverContext::indexed(&inst, &model);
        let out = Greedy.run(&ctx);
        assert!(!out.assignments.is_empty());
        assert!(out.total_utility > 0.0);
        assert!(out
            .assignments
            .check_feasibility(&inst, &model)
            .is_feasible());
    }

    #[test]
    fn naive_and_fast_greedy_agree() {
        let inst = instance(25, 5, 4.0);
        let model = PearsonUtility::uniform(3);
        let ctx = SolverContext::indexed(&inst, &model);
        let fast = Greedy.assign(&ctx);
        let naive = NaiveGreedy.assign(&ctx);
        let fu = fast.total_utility(&inst, &model);
        let nu = naive.total_utility(&inst, &model);
        assert!((fu - nu).abs() < 1e-9, "fast {fu} vs naive {nu}");
        assert_eq!(fast.len(), naive.len());
    }

    #[test]
    fn greedy_respects_budgets_exactly() {
        let inst = instance(30, 3, 2.0);
        let model = PearsonUtility::uniform(3);
        let ctx = SolverContext::indexed(&inst, &model);
        let set = Greedy.assign(&ctx);
        for (vid, v) in inst.vendors_enumerated() {
            assert!(set.vendor_spend(vid) <= v.budget);
        }
    }

    #[test]
    fn greedy_prefers_high_efficiency_first() {
        // One customer, one vendor, budget exactly $2: PL (γ=0.2·base)
        // beats TL (γ=0.1·base), so PL is chosen even though two TLs
        // would not fit anyway (capacity 2 but one pair only).
        let inst = instance(1, 1, 2.0);
        let model = PearsonUtility::uniform(3);
        let ctx = SolverContext::indexed(&inst, &model);
        let set = Greedy.assign(&ctx);
        assert_eq!(set.len(), 1);
        let a = set.assignments()[0];
        assert_eq!(inst.ad_type(a.ad_type).name, "PL");
    }

    /// A utility model whose similarity is NaN for half the customers —
    /// NaN pair bases survive the `<= 0.0` filters (all comparisons
    /// with NaN are false), so NaN gammas reach the sort, where the
    /// keys' `total_cmp` order keeps it deterministic.
    struct NanUtility;

    impl muaa_core::UtilityModel for NanUtility {
        fn distance(
            &self,
            _cid: muaa_core::CustomerId,
            c: &Customer,
            _vid: muaa_core::VendorId,
            v: &muaa_core::Vendor,
        ) -> f64 {
            c.location.clamped_distance(&v.location, 1e-4)
        }

        fn similarity(
            &self,
            cid: muaa_core::CustomerId,
            _c: &Customer,
            _vid: muaa_core::VendorId,
            _v: &muaa_core::Vendor,
        ) -> f64 {
            if cid.index() & 1 == 0 {
                f64::NAN
            } else {
                0.5
            }
        }
    }

    #[test]
    fn nan_gammas_sort_deterministically() {
        let inst = instance(16, 3, 4.0);
        let model = NanUtility;
        let ctx = SolverContext::brute_force(&inst, &model);
        // Repeated runs must agree assignment-for-assignment, and the
        // naive scan takes the same smallest key as the sort.
        let a = Greedy.assign(&ctx);
        let b = Greedy.assign(&ctx);
        assert_eq!(a.assignments(), b.assignments());
        assert_eq!(NaiveGreedy.assign(&ctx).assignments(), a.assignments());
        // The NaN-free half of the instance still gets served.
        assert!(a
            .assignments()
            .iter()
            .any(|asg| asg.customer.index() % 2 == 1));
    }

    /// GREEDY's commit order as a comparator, the reference the keys
    /// must reproduce: γ descending under `total_cmp`, then customer,
    /// vendor and ad type ascending.
    fn candidate_order(a: &(f64, Assignment), b: &(f64, Assignment)) -> Ordering {
        let (x, y) = (a.1, b.1);
        b.0.total_cmp(&a.0)
            .then(x.customer.cmp(&y.customer))
            .then(x.vendor.cmp(&y.vendor))
            .then(x.ad_type.cmp(&y.ad_type))
    }

    /// Sort `candidates`, given in walk order (ascending triples), by
    /// their keys and by the reference comparator's stable sort; both
    /// must give the same sequence, and the sorted keys must ascend
    /// strictly.
    fn assert_keys_match_comparator(candidates: &[(f64, Assignment)]) {
        let mut keys: Vec<u128> = (candidates.iter().enumerate())
            .map(|(rank, &(gamma, _))| candidate_key(gamma, rank as u64))
            .collect();
        keys.sort_unstable();
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "keys must be unique");
        let mut reference = candidates.to_vec();
        reference.sort_by(candidate_order);
        let by_key = keys.iter().map(|&k| candidates[k as u64 as usize]);
        let bits = |(gamma, a): (f64, Assignment)| (gamma.to_bits(), a);
        assert!(
            by_key.map(bits).eq(reference.into_iter().map(bits)),
            "key order differs from the comparator's"
        );
    }

    /// Ascending keys are the comparator's order, on every kind of γ
    /// `total_cmp` distinguishes (NaN of both signs, ±0, ±∞, subnormals,
    /// the extremes) and on equal γ over distinct triples; and on a
    /// real context's candidates, where co-located identical customers
    /// tie on γ for every vendor and ad type, so only ids order them.
    #[test]
    fn candidate_keys_sort_in_comparator_order() {
        let specials = [
            f64::NAN,
            -f64::NAN,
            f64::from_bits(0x7ff0_0000_0000_0001),
            f64::from_bits(0xfff8_0000_0000_0001),
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
            f64::MIN,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::from_bits(0x000f_ffff_ffff_ffff),
            1.0,
            -1.0,
            0.1,
            0.1 + f64::EPSILON,
            -2.5e-3,
        ];
        // Every γ on four distinct triples, scattered over walk order.
        let n = specials.len() * 4;
        let candidates: Vec<(f64, Assignment)> = (0..n)
            .map(|k| {
                let triple = Assignment::new(
                    CustomerId::from(k / 4),
                    VendorId::from(k / 2 % 2),
                    AdTypeId::from(k % 2),
                );
                (specials[k * 7 % specials.len()], triple)
            })
            .collect();
        assert_keys_match_comparator(&candidates);

        let twin = Customer {
            location: Point::new(0.5, 0.5),
            capacity: 2,
            view_probability: 0.5,
            interests: TagVector::new(vec![0.3, 0.5, 0.7]).unwrap(),
            arrival: Timestamp::from_hours(9.0),
        };
        let inst = InstanceBuilder::new()
            .ad_types([
                AdType::new("TL", Money::from_dollars(1.0), 0.1),
                AdType::new("PL", Money::from_dollars(2.0), 0.2),
            ])
            .customers(std::iter::repeat_n(twin, 300))
            .vendors((0..6).map(|j| Vendorish::at(j, 6, 4.0, 3)))
            .build()
            .unwrap();
        let model = PearsonUtility::uniform(3);
        let ctx = SolverContext::indexed(&inst, &model);
        let collected = Candidates::gather(&ctx);
        assert_eq!(
            collected.triples.len(),
            1,
            "300 customers walk in one chunk"
        );
        let candidates: Vec<(f64, Assignment)> = (collected.triples[0].iter())
            .map(|&a| (ctx.efficiency(a.customer, a.vendor, a.ad_type), a))
            .collect();
        let gammas: std::collections::BTreeSet<u64> =
            candidates.iter().map(|c| c.0.to_bits()).collect();
        assert!(
            gammas.len() * 100 < candidates.len(),
            "{} distinct gammas over {} candidates: too few ties to test",
            gammas.len(),
            candidates.len()
        );
        assert!(
            candidates.windows(2).all(|w| {
                let key = |a: Assignment| (a.customer, a.vendor, a.ad_type);
                key(w[0].1) < key(w[1].1)
            }),
            "the walk must visit triples in ascending id order"
        );
        assert_keys_match_comparator(&candidates);
    }

    /// Ties follow ids, not c2v arena positions. Co-located identical
    /// customers tie on every γ; moves, arrivals and removals then
    /// leave rows at the arena tail, so a walk in arena order would
    /// rank a renamed customer after higher ids. GREEDY and NAIVE
    /// GREEDY on the patched context must match GREEDY on a fresh
    /// build, with the memo on and off, at 1, 2 and 8 threads, on
    /// enough customers that the walk splits.
    #[test]
    fn greedy_ties_follow_ids_after_deltas() {
        let twin = Customer {
            location: Point::new(0.5, 0.5),
            capacity: 2,
            view_probability: 0.5,
            interests: TagVector::new(vec![0.3, 0.5, 0.7]).unwrap(),
            arrival: Timestamp::from_hours(9.0),
        };
        let inst = InstanceBuilder::new()
            .ad_types([
                AdType::new("TL", Money::from_dollars(1.0), 0.1),
                AdType::new("PL", Money::from_dollars(2.0), 0.2),
            ])
            .customers(std::iter::repeat_n(
                twin.clone(),
                2 * FILL_MIN_CUSTOMERS + 64,
            ))
            .vendors((0..6).map(|j| Vendorish::at(j, 6, 4.0, 3)))
            .build()
            .unwrap();
        let model = PearsonUtility::uniform(3);
        let far = Point::new(0.5, 0.99);
        let mut batch = DeltaBatch::new();
        for i in [0usize, 7, 40] {
            batch = batch.move_customer(CustomerId::from(i), far);
        }
        for _ in 0..16 {
            batch = batch.add_customer(twin.clone());
        }
        for i in [3usize, 11, 12, 500] {
            batch = batch.remove_customer(CustomerId::from(i));
        }
        for i in [0usize, 7] {
            batch = batch.move_customer(CustomerId::from(i), twin.location);
        }
        for cap in [None, Some(0)] {
            let mut patched = SolverContext::indexed(&inst, &model);
            if let Some(bytes) = cap {
                patched = patched.with_pair_cache_cap(bytes);
            }
            patched.apply_delta(&batch).unwrap();
            patched.debug_validate();
            assert!(patched.c2v_rows_out_of_id_order(), "cap {cap:?}");
            let fresh = SolverContext::indexed(patched.instance(), &model);
            let expect = par::with_threads(1, || Greedy.assign(&fresh));
            assert!(expect.len() > 1, "budgets must pick among the ties");
            for threads in [1, 2, 8] {
                par::with_threads(threads, || {
                    let what = format!("cap {cap:?}, {threads} threads");
                    let fast = Greedy.assign(&patched);
                    assert_eq!(fast.assignments(), expect.assignments(), "{what}");
                    let naive = NaiveGreedy.assign(&patched);
                    assert_eq!(naive.assignments(), expect.assignments(), "{what}");
                });
            }
        }
    }

    #[test]
    fn empty_instance_yields_empty_set() {
        let inst = InstanceBuilder::new()
            .ad_type(AdType::new("TL", Money::from_dollars(1.0), 0.1))
            .build()
            .unwrap();
        let model = PearsonUtility::uniform(0);
        let ctx = SolverContext::indexed(&inst, &model);
        assert!(Greedy.assign(&ctx).is_empty());
        assert!(NaiveGreedy.assign(&ctx).is_empty());
    }
}
