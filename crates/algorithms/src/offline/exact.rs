//! Exact MUAA solver by branch-and-bound, for small instances.
//!
//! MUAA is NP-hard (paper Theorem II.1), so this solver is meant for
//! the evaluation-model experiments: measuring the *empirical*
//! approximation ratio of RECON/GREEDY and the competitive ratio of
//! O-AFA against the true optimum (paper §II-D), and verifying the
//! worked Example 1.
//!
//! Search space: every valid (customer, vendor) pair is a variable
//! whose domain is {null} ∪ ad types. Pairs are explored in
//! descending-max-utility order; the upper bound at a node is the
//! current utility plus, per customer, the sum of the top
//! `remaining capacity` utilities among its unexplored pairs (budget
//! constraints relaxed) — admissible and cheap.

use crate::context::SolverContext;
use crate::offline::OfflineSolver;
use muaa_core::{AdTypeId, Assignment, AssignmentSet, CustomerId, Money, VendorId};

/// Search nodes [`ExactBnB`] visits at most (10⁸) — far more than the
/// intended instance sizes need.
const NODE_LIMIT: u64 = 100_000_000;

/// The branch-and-bound exact solver.
///
/// The search visits at most 10⁸ nodes; when that is exhausted the
/// best-found solution is returned (debug builds assert the limit was
/// not hit). Size your instances so the limit holds — ≲ 30 valid pairs
/// with 2–3 ad types is instantaneous.
#[derive(Clone, Copy, Debug, Default)]
pub struct ExactBnB;

impl ExactBnB {
    /// The exact solver.
    pub fn new() -> Self {
        ExactBnB
    }
}

/// One valid pair with its per-ad-type utilities, sorted for search.
struct Pair {
    customer: CustomerId,
    vendor: VendorId,
    /// `(ad type, cost, λ)` sorted by λ descending; only positive λ.
    options: Vec<(AdTypeId, Money, f64)>,
    max_utility: f64,
}

struct Search<'c, 'a> {
    ctx: &'c SolverContext<'a>,
    pairs: Vec<Pair>,
    /// Remaining capacity per customer.
    cap: Vec<u32>,
    /// Remaining budget per vendor.
    budget: Vec<Money>,
    /// Per pair index: suffix bound helper — the best utility obtainable
    /// from pairs[i..] for each customer is recomputed cheaply via
    /// `suffix_customer_top`: for customer c and suffix start i, the
    /// sorted utilities of c's pairs at positions ≥ i.
    best_value: f64,
    best_choice: Vec<Option<(AdTypeId, Money, f64)>>,
    current_choice: Vec<Option<(AdTypeId, Money, f64)>>,
    nodes: u64,
    truncated: bool,
    /// `suffix_sets[i][c]`: utilities (descending) of customer c's pairs
    /// at positions ≥ i. Precomputed once; memory O(pairs²) worst case
    /// but instances are small by contract.
    suffix_tops: Vec<Vec<f64>>,
}

impl<'c, 'a> Search<'c, 'a> {
    /// Admissible upper bound for the suffix starting at `i`: for each
    /// customer, sum of its top `remaining capacity` pair utilities in
    /// the suffix (budget relaxed).
    fn suffix_bound(&self, i: usize) -> f64 {
        // suffix_tops[i] is flattened: per customer, its top utilities
        // were pre-aggregated; see `build_suffix_tops`.
        let tops = &self.suffix_tops[i];
        let mut bound = 0.0;
        let mut idx = 0usize;
        for (c, &cap) in self.cap.iter().enumerate() {
            let list_len = tops[idx] as usize;
            let start = idx + 1;
            let take = (cap as usize).min(list_len);
            for k in 0..take {
                bound += tops[start + k];
            }
            idx = start + list_len;
            let _ = c;
        }
        bound
    }

    fn dfs(&mut self, i: usize, value: f64) {
        self.nodes += 1;
        if self.nodes > NODE_LIMIT {
            self.truncated = true;
            return;
        }
        if value > self.best_value {
            self.best_value = value;
            self.best_choice = self.current_choice.clone();
        }
        if i == self.pairs.len() {
            return;
        }
        if value + self.suffix_bound(i) <= self.best_value + 1e-15 {
            return; // prune
        }
        let (cid_idx, vid_idx) = {
            let p = &self.pairs[i];
            (p.customer.index(), p.vendor.index())
        };
        // Try each ad type (best first), then the null choice.
        if self.cap[cid_idx] > 0 {
            for oi in 0..self.pairs[i].options.len() {
                let (tid, cost, lambda) = self.pairs[i].options[oi];
                if cost > self.budget[vid_idx] {
                    continue;
                }
                self.cap[cid_idx] -= 1;
                self.budget[vid_idx] -= cost;
                self.current_choice[i] = Some((tid, cost, lambda));
                self.dfs(i + 1, value + lambda);
                self.current_choice[i] = None;
                self.cap[cid_idx] += 1;
                self.budget[vid_idx] += cost;
                if self.truncated {
                    return;
                }
            }
        }
        self.current_choice[i] = None;
        self.dfs(i + 1, value);
        let _ = self.ctx;
    }
}

/// Precompute, for every suffix start `i`, a flattened per-customer
/// list of descending utilities: `[len_c0, u…, len_c1, u…, …]`.
fn build_suffix_tops(pairs: &[Pair], num_customers: usize) -> Vec<Vec<f64>> {
    let mut result = Vec::with_capacity(pairs.len() + 1);
    for i in 0..=pairs.len() {
        let mut per_customer: Vec<Vec<f64>> = vec![Vec::new(); num_customers];
        for p in &pairs[i..] {
            per_customer[p.customer.index()].push(p.max_utility);
        }
        let mut flat = Vec::new();
        for list in &mut per_customer {
            list.sort_by(|a, b| b.total_cmp(a));
            flat.push(list.len() as f64);
            flat.extend_from_slice(list);
        }
        result.push(flat);
    }
    result
}

impl OfflineSolver for ExactBnB {
    fn assign(&self, ctx: &SolverContext<'_>) -> AssignmentSet {
        let inst = ctx.instance();
        // Enumerate valid pairs with positive utility options.
        let mut pairs: Vec<Pair> = Vec::new();
        for (vid, _) in inst.vendors_enumerated() {
            for &cid in ctx.eligible_customers(vid) {
                let base = ctx.pair_base(cid, vid);
                if base <= 0.0 {
                    continue;
                }
                let mut options: Vec<(AdTypeId, Money, f64)> = inst
                    .ad_types_enumerated()
                    .map(|(tid, t)| (tid, t.cost, base * t.effectiveness))
                    .filter(|&(_, _, l)| l > 0.0)
                    .collect();
                options.sort_by(|a, b| b.2.total_cmp(&a.2));
                if options.is_empty() {
                    continue;
                }
                let max_utility = options[0].2;
                pairs.push(Pair {
                    customer: cid,
                    vendor: vid,
                    options,
                    max_utility,
                });
            }
        }
        // Explore big-fish pairs first.
        pairs.sort_by(|a, b| b.max_utility.total_cmp(&a.max_utility));

        let suffix_tops = build_suffix_tops(&pairs, inst.num_customers());
        let n_pairs = pairs.len();
        let mut search = Search {
            ctx,
            cap: inst.customers().iter().map(|c| c.capacity).collect(),
            budget: inst.vendors().iter().map(|v| v.budget).collect(),
            pairs,
            best_value: 0.0,
            best_choice: vec![None; n_pairs],
            current_choice: vec![None; n_pairs],
            nodes: 0,
            truncated: false,
            suffix_tops,
        };
        search.dfs(0, 0.0);
        debug_assert!(
            !search.truncated,
            "ExactBnB node limit hit; result may be suboptimal"
        );

        let mut set = AssignmentSet::new(inst);
        for (i, choice) in search.best_choice.iter().enumerate() {
            if let Some((tid, _, _)) = *choice {
                let p = &search.pairs[i];
                let ok = set.try_push(inst, Assignment::new(p.customer, p.vendor, tid));
                debug_assert!(ok, "exact solution must be feasible");
            }
        }
        set
    }

    fn name(&self) -> &'static str {
        "EXACT"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::offline::greedy::Greedy;
    use crate::offline::recon::Recon;
    use muaa_core::{
        AdType, Customer, InstanceBuilder, PearsonUtility, Point, ProblemInstance, TagVector,
        Timestamp, Vendor,
    };

    fn small_instance(m: usize, n: usize, seed: u64) -> ProblemInstance {
        use muaa_core::DetRng;
        let mut rng = DetRng::seed_from_u64(seed);
        InstanceBuilder::new()
            .ad_types([
                AdType::new("TL", Money::from_dollars(1.0), 0.1),
                AdType::new("PL", Money::from_dollars(2.0), 0.4),
            ])
            .customers((0..m).map(|_| Customer {
                location: Point::new(rng.gen_f64(), rng.gen_f64()),
                capacity: rng.gen_range(1, 3) as u32,
                view_probability: rng.gen_range_f64(0.1, 0.9),
                interests:
                    TagVector::new(vec![rng.gen_f64(), rng.gen_f64(), rng.gen_f64()]).unwrap(),
                arrival: Timestamp::from_hours(rng.gen_range_f64(0.0, 24.0)),
            }))
            .vendors((0..n).map(|_| Vendor {
                location: Point::new(rng.gen_f64(), rng.gen_f64()),
                radius: rng.gen_range_f64(0.3, 0.8),
                budget: Money::from_dollars(rng.gen_range_f64(2.0, 5.0)),
                tags: TagVector::new(vec![rng.gen_f64(), rng.gen_f64(), rng.gen_f64()]).unwrap(),
            }))
            .build()
            .unwrap()
    }

    /// Brute-force optimum by recursion over pairs without pruning.
    fn brute_force(ctx: &SolverContext<'_>) -> f64 {
        let inst = ctx.instance();
        let mut pairs = Vec::new();
        for (vid, _) in inst.vendors_enumerated() {
            for &cid in ctx.eligible_customers(vid) {
                if ctx.pair_base(cid, vid) > 0.0 {
                    pairs.push((cid, vid));
                }
            }
        }
        fn rec(
            ctx: &SolverContext<'_>,
            pairs: &[(CustomerId, VendorId)],
            i: usize,
            cap: &mut Vec<u32>,
            budget: &mut Vec<Money>,
            value: f64,
            best: &mut f64,
        ) {
            if value > *best {
                *best = value;
            }
            if i == pairs.len() {
                return;
            }
            let (cid, vid) = pairs[i];
            rec(ctx, pairs, i + 1, cap, budget, value, best);
            if cap[cid.index()] > 0 {
                for (tid, t) in ctx.instance().ad_types_enumerated() {
                    if t.cost <= budget[vid.index()] {
                        let lambda = ctx.utility(cid, vid, tid);
                        if lambda <= 0.0 {
                            continue;
                        }
                        cap[cid.index()] -= 1;
                        budget[vid.index()] -= t.cost;
                        rec(ctx, pairs, i + 1, cap, budget, value + lambda, best);
                        cap[cid.index()] += 1;
                        budget[vid.index()] += t.cost;
                    }
                }
            }
        }
        let mut cap: Vec<u32> = inst.customers().iter().map(|c| c.capacity).collect();
        let mut budget: Vec<Money> = inst.vendors().iter().map(|v| v.budget).collect();
        let mut best = 0.0;
        rec(ctx, &pairs, 0, &mut cap, &mut budget, 0.0, &mut best);
        best
    }

    #[test]
    fn matches_brute_force_on_tiny_instances() {
        let model = PearsonUtility::uniform(3);
        for seed in 0..8 {
            let inst = small_instance(3, 3, seed);
            let ctx = SolverContext::brute_force(&inst, &model);
            let exact = ExactBnB::new().run(&ctx);
            let brute = brute_force(&ctx);
            assert!(
                (exact.total_utility - brute).abs() < 1e-9,
                "seed {seed}: bnb {} vs brute {}",
                exact.total_utility,
                brute
            );
            assert!(exact
                .assignments
                .check_feasibility(&inst, &model)
                .is_feasible());
        }
    }

    #[test]
    fn dominates_heuristics() {
        let model = PearsonUtility::uniform(3);
        for seed in 0..5 {
            let inst = small_instance(4, 3, 100 + seed);
            let ctx = SolverContext::brute_force(&inst, &model);
            let exact = ExactBnB::new().run(&ctx).total_utility;
            let greedy = Greedy.run(&ctx).total_utility;
            let recon = Recon::new().run(&ctx).total_utility;
            assert!(exact >= greedy - 1e-9, "seed {seed}");
            assert!(exact >= recon - 1e-9, "seed {seed}");
        }
    }

    #[test]
    fn empty_instance() {
        let inst = InstanceBuilder::new()
            .ad_type(AdType::new("TL", Money::from_dollars(1.0), 0.1))
            .build()
            .unwrap();
        let model = PearsonUtility::uniform(0);
        let ctx = SolverContext::brute_force(&inst, &model);
        assert!(ExactBnB::new().assign(&ctx).is_empty());
    }
}
