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
use muaa_core::{
    AdTypeId, Assignment, AssignmentSet, CustomerId, Money, ProblemInstance, VendorId,
};

/// `gamma`'s bits mapped so that ascending `u64` order is
/// `f64::total_cmp` descending.
///
/// `total_cmp`, not `<`, so that a pathological utility model producing
/// NaN gammas still gets a total order: +NaN first, −NaN last. For the
/// finite positive gammas of real models the two orders agree.
fn descending(gamma: f64) -> u64 {
    let bits = gamma.to_bits();
    // `total_cmp` order as unsigned order: a negative value flips every
    // bit, a non-negative one sets the sign bit.
    let ascending = if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    };
    !ascending
}

/// How a candidate's `u128` sort key carries it. The high word is its
/// γ, [`descending`]; the low word packs its triple, customer id above
/// vendor id above ad-type id, each field as wide as the instance's
/// largest id of its kind needs. Ascending keys are therefore GREEDY's
/// commit order: γ descending, ties by customer, vendor and ad type
/// ascending. Triples are unique, so the keys are too, and any sort
/// lands on the one permutation.
#[derive(Clone, Copy, Debug)]
struct TripleCodec {
    /// Width of the vendor field.
    vendor_bits: u32,
    /// Width of the ad-type field.
    type_bits: u32,
}

impl TripleCodec {
    /// The codec for ids below `customers`, `vendors` and `ad_types`.
    /// Panics if the three fields need more than 64 bits together.
    fn new(customers: usize, vendors: usize, ad_types: usize) -> Self {
        // Bits to hold every id below `n`: none for one id or none.
        let bits = |n: usize| usize::BITS - n.saturating_sub(1).leading_zeros();
        let (c, v, t) = (bits(customers), bits(vendors), bits(ad_types));
        assert!(c + v + t <= 64, "candidate triples need {} bits", c + v + t);
        TripleCodec {
            vendor_bits: v,
            type_bits: t,
        }
    }

    /// The codec for `inst`'s ids.
    fn for_instance(inst: &ProblemInstance) -> Self {
        TripleCodec::new(
            inst.num_customers(),
            inst.num_vendors(),
            inst.num_ad_types(),
        )
    }

    /// The sort key of candidate `a` with efficiency `gamma`. Shifts go
    /// up to 64 (one customer), so the fields are placed in `u128`.
    #[inline]
    fn key(self, gamma: f64, a: Assignment) -> u128 {
        let (v, t) = (self.vendor_bits, self.type_bits);
        (u128::from(descending(gamma)) << 64)
            | (u128::from(a.customer.0) << (v + t))
            | (u128::from(a.vendor.0) << t)
            | u128::from(a.ad_type.0)
    }

    /// The triple `key` carries.
    #[inline]
    fn triple(self, key: u128) -> Assignment {
        let (v, t) = (self.vendor_bits, self.type_bits);
        let low = key & u128::from(u64::MAX);
        let field = |shift: u32, bits: u32| ((low >> shift) & ((1 << bits) - 1)) as u32;
        Assignment::new(
            CustomerId::new((low >> (v + t)) as u32),
            VendorId::new(field(t, v)),
            AdTypeId::new(field(0, t)),
        )
    }
}

/// Emit the sort key of every (customer, vendor, ad type) triple with
/// positive utility in one customer-major walk over the eligible pairs
/// (DESIGN.md §10), which fills the memo on the way; one key buffer per
/// walk chunk, in walk order. Zero-allocation inner loop (DESIGN.md
/// §11): each chunk reserves one slot per eligible pair and ad type up
/// front, so no push reallocates inside the walk's strict region.
#[cfg_attr(any(), muaa::hot)]
fn walk_candidates(ctx: &SolverContext<'_>, codec: TripleCodec) -> Vec<Vec<u128>> {
    // Naming the type lets muaa-lint's call graph resolve
    // `inst.ad_types_enumerated()` to `ProblemInstance` alone.
    let inst: &ProblemInstance = ctx.instance();
    let types = inst.num_ad_types();
    ctx.walk_pairs(
        |_, pairs| Vec::with_capacity(pairs * types),
        |keys, cid, vid, base| {
            if base <= 0.0 {
                return;
            }
            for (tid, t) in inst.ad_types_enumerated() {
                let lambda = base * t.effectiveness;
                if lambda <= 0.0 {
                    continue;
                }
                let key = codec.key(lambda / t.cost.as_dollars(), Assignment::new(cid, vid, tid));
                // In-capacity: the chunk reserved a slot per pair and
                // ad type. lint: allow(hot_alloc)
                keys.push(key);
            }
        },
    )
}

/// GREEDY's candidates: every chunk's keys in one array, each carrying
/// its triple.
struct Candidates {
    keys: Vec<u128>,
    codec: TripleCodec,
}

impl Candidates {
    /// Walk the pairs and gather the chunks' keys; one chunk's keys
    /// are taken as they are.
    fn gather(ctx: &SolverContext<'_>) -> Self {
        let codec = TripleCodec::for_instance(ctx.instance());
        let mut chunks = walk_candidates(ctx, codec).into_iter();
        let mut keys = chunks.next().expect("a walk has at least one chunk");
        for chunk in chunks {
            keys.extend_from_slice(&chunk);
        }
        Candidates { keys, codec }
    }
}

/// The GREEDY body: collect candidates, sort their keys into efficiency
/// order, sweep into a feasible set.
fn greedy_assign(ctx: &SolverContext<'_>) -> AssignmentSet {
    let inst = ctx.instance();
    let mut candidates = Candidates::gather(ctx);
    candidates.keys.sort_unstable();
    // `AssignmentSet::fits`'s capacity and budget tests on dense
    // per-solve arrays: most candidates fail one of them, and these
    // reads stay in cache where the instance's customer and vendor
    // records would not. The pair test still asks the set.
    let costs: Vec<Money> = inst.ad_types().iter().map(|t| t.cost).collect();
    let mut room: Vec<u32> = inst.customers().iter().map(|c| c.capacity).collect();
    let mut budget: Vec<Money> = inst.vendors().iter().map(|v| v.budget).collect();
    let mut set = AssignmentSet::new(inst);
    for &key in &candidates.keys {
        // Feasibility only ever degrades, so a one-pass sweep in
        // efficiency order is equivalent to re-selecting the best
        // feasible candidate each iteration.
        let a = candidates.codec.triple(key);
        let (c, v) = (a.customer.index(), a.vendor.index());
        let cost = costs[a.ad_type.index()];
        if room[c] == 0 || budget[v] < cost || set.pair_used(a.customer, a.vendor) {
            continue;
        }
        room[c] -= 1;
        budget[v] -= cost;
        set.push_unchecked(inst, a);
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
                if best.is_none_or(|(_, b)| key < b) && set.fits(inst, candidates.codec.triple(key))
                {
                    best = Some((i, key));
                }
            }
            let Some((i, key)) = best else { break };
            candidates.keys.swap_remove(i);
            set.push_unchecked(inst, candidates.codec.triple(key));
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

    /// Key `candidates` (distinct triples) with `codec`: every key must
    /// give back its triple, and the keys sorted must give the sequence
    /// the reference comparator's stable sort gives.
    fn assert_keys_match_comparator(codec: TripleCodec, candidates: &[(f64, Assignment)]) {
        let mut keys: Vec<u128> = (candidates.iter())
            .map(|&(gamma, a)| codec.key(gamma, a))
            .collect();
        for (&key, &(_, a)) in keys.iter().zip(candidates) {
            assert_eq!(codec.triple(key), a, "{codec:?} does not round-trip {a}");
        }
        keys.sort_unstable();
        let mut reference = candidates.to_vec();
        reference.sort_by(candidate_order);
        assert!(
            keys.iter()
                .map(|&k| codec.triple(k))
                .eq(reference.iter().map(|c| c.1)),
            "{codec:?}: key order differs from the comparator's"
        );
    }

    /// The γ kinds `total_cmp` distinguishes: NaN of both signs, ±0,
    /// ±∞, subnormals, the extremes, and near-equal values.
    const SPECIAL_GAMMAS: [f64; 20] = [
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

    /// Every triple over ids 0, 1 and the largest below each count, the
    /// special γs dealt out two triples apiece.
    fn edge_candidates(customers: usize, vendors: usize, types: usize) -> Vec<(f64, Assignment)> {
        let ids = |n: usize| {
            let mut ids = vec![0, 1.min(n - 1), n - 1];
            ids.dedup();
            ids
        };
        let mut candidates = Vec::new();
        for c in ids(customers) {
            for v in ids(vendors) {
                for t in ids(types) {
                    let gamma = SPECIAL_GAMMAS[candidates.len() / 2 * 7 % SPECIAL_GAMMAS.len()];
                    let triple =
                        Assignment::new(CustomerId::from(c), VendorId::from(v), AdTypeId::from(t));
                    candidates.push((gamma, triple));
                }
            }
        }
        candidates
    }

    /// Ascending keys are the comparator's order, and every key gives
    /// back its triple: on every kind of γ `total_cmp` distinguishes,
    /// on equal γ over distinct triples, at field widths from one id
    /// (no bits) to widths that fill all 64 bits of the low word,
    /// including a customer or vendor field shifted by the full 64 or
    /// 32; and on a real context's candidates, where co-located
    /// identical customers tie on γ for every vendor and ad type, so
    /// only ids order them.
    #[test]
    fn candidate_keys_sort_in_comparator_order() {
        let n = SPECIAL_GAMMAS.len() * 4;
        let candidates: Vec<(f64, Assignment)> = (0..n)
            .map(|k| {
                let triple = Assignment::new(
                    CustomerId::from(k / 4),
                    VendorId::from(k / 2 % 2),
                    AdTypeId::from(k % 2),
                );
                (SPECIAL_GAMMAS[k * 7 % SPECIAL_GAMMAS.len()], triple)
            })
            .collect();
        assert_keys_match_comparator(TripleCodec::new(n / 4, 2, 2), &candidates);
        let full = 1usize << 32;
        for (customers, vendors, types) in [
            (1, 1, 1),
            (3, 5, 2),
            (full, 1 << 30, 4),
            (1, full, full),
            (full, 1, full),
            (full, full, 1),
            (1, 1, full),
        ] {
            let codec = TripleCodec::new(customers, vendors, types);
            assert_keys_match_comparator(codec, &edge_candidates(customers, vendors, types));
        }

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
        let codec = TripleCodec::for_instance(&inst);
        assert_eq!(
            walk_candidates(&ctx, codec).len(),
            1,
            "300 customers walk in one chunk"
        );
        let collected = Candidates::gather(&ctx);
        let candidates: Vec<(f64, Assignment)> = (collected.keys.iter())
            .map(|&key| {
                let a = collected.codec.triple(key);
                let gamma = ctx.efficiency(a.customer, a.vendor, a.ad_type);
                assert_eq!(key, codec.key(gamma, a), "the walk keyed {a} off its γ");
                (gamma, a)
            })
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
        assert_keys_match_comparator(codec, &candidates);
    }

    /// Three fields wider than 64 bits together cannot be keyed.
    #[test]
    #[should_panic(expected = "candidate triples need 65 bits")]
    fn triples_wider_than_the_low_word_are_refused() {
        TripleCodec::new(1 << 32, 1 << 32, 2);
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
