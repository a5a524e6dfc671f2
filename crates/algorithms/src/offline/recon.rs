//! RECON: the paper's reconciliation algorithm (Algorithm 1).
//!
//! Phase 1 solves one multi-choice knapsack per vendor over its valid
//! customers (§III-A), ignoring customer capacities across vendors.
//! Phase 2 reconciles the resulting capacity violations: for each
//! over-loaded customer (in random order), repeatedly delete their
//! lowest-utility instance and let the freed vendor greedily re-assign
//! the recovered budget to other valid customers (lines 6–11).
//!
//! With a `(1 − ε)`-approximate single-vendor backend, the overall
//! approximation ratio is `(1 − ε) · θ` with
//! `θ = min_i a_i / n_i^c` (Theorem III.1).

use crate::context::SolverContext;
use crate::offline::OfflineSolver;
use muaa_core::{
    AdTypeId, Assignment, AssignmentSet, CustomerId, DetRng, Money, ProblemInstance, VendorId,
};
use muaa_knapsack::{MckpExactDp, MckpFptas, MckpItem, MckpLpGreedy, MckpProblem, MckpSolver};

/// Which single-vendor MCKP solver RECON uses (DESIGN.md §9's backend
/// ablation).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum MckpBackend {
    /// Dyer–Zemel LP-relaxation greedy — the paper-faithful default.
    LpGreedy,
    /// Exact DP over the budget axis.
    ExactDp,
    /// `(1 − ε)` FPTAS with the given ε.
    Fptas(f64),
}

impl MckpBackend {
    pub(crate) fn solve(&self, problem: &MckpProblem) -> muaa_knapsack::MckpSolution {
        match *self {
            MckpBackend::LpGreedy => MckpLpGreedy.solve(problem),
            MckpBackend::ExactDp => MckpExactDp.solve(problem),
            MckpBackend::Fptas(eps) => MckpFptas::new(eps).solve(problem),
        }
    }
}

/// The MCKP class of a pair with base utility `base` (paper §III-A):
/// one item per ad type, costing `c_k` in cents and worth
/// `λ = base · β_k`, clamped at 0.
pub(crate) fn ad_type_items(
    inst: &ProblemInstance,
    base: f64,
) -> impl Iterator<Item = MckpItem> + '_ {
    inst.ad_types()
        .iter()
        .map(move |t| MckpItem::new(t.cost.as_cents(), (base * t.effectiveness).max(0.0)))
}

/// The RECON solver. Randomness only affects the order violated
/// customers are visited in (Alg. 1 line 7), as in the paper.
///
/// ```
/// use muaa_algorithms::{OfflineSolver, Recon, SolverContext};
/// use muaa_core::*;
///
/// let instance = InstanceBuilder::new()
///     .ad_type(AdType::new("TL", Money::from_dollars(1.0), 0.1))
///     .customer(Customer {
///         location: Point::new(0.5, 0.5),
///         capacity: 1,
///         view_probability: 0.5,
///         interests: TagVector::new(vec![1.0, 0.2]).unwrap(),
///         arrival: Timestamp::MIDNIGHT,
///     })
///     .vendor(Vendor {
///         location: Point::new(0.5, 0.55),
///         radius: 0.2,
///         budget: Money::from_dollars(3.0),
///         tags: TagVector::new(vec![0.9, 0.1]).unwrap(),
///     })
///     .build()
///     .unwrap();
/// let model = PearsonUtility::uniform(2);
/// let ctx = SolverContext::indexed(&instance, &model);
/// let outcome = Recon::new().run(&ctx);
/// assert_eq!(outcome.assignments.len(), 1);
/// assert!(outcome.total_utility > 0.0);
/// ```
#[derive(Clone, Debug)]
pub struct Recon {
    backend: MckpBackend,
    seed: u64,
}

impl Recon {
    /// RECON with the paper-faithful LP-greedy backend.
    pub fn new() -> Self {
        Recon {
            backend: MckpBackend::LpGreedy,
            seed: 0xC0FFEE,
        }
    }

    /// Override the single-vendor backend.
    pub fn with_backend(mut self, backend: MckpBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Override the violation-order seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

impl Default for Recon {
    fn default() -> Self {
        Self::new()
    }
}

/// Mutable reconciliation state: per-vendor solutions with global
/// (possibly capacity-violating) customer loads, plus a per-customer
/// pick index so phase 2 never rescans every vendor's solution.
struct ReconState<'i, 'a> {
    inst: &'i ProblemInstance,
    ctx: &'i SolverContext<'a>,
    /// Instances per vendor: `(customer, ad type, λ)`.
    per_vendor: Vec<Vec<(CustomerId, AdTypeId, f64)>>,
    /// Per customer: `(vendor, λ)` of every instance currently serving
    /// them, ascending by vendor id. Each (vendor, customer) pair holds
    /// at most one instance (one MCKP class per customer in phase 1;
    /// refills guard on `vendor_has_pair`), so the vendor id is a
    /// unique key within each row.
    picks_of: Vec<Vec<(u32, f64)>>,
    /// Total ads currently assigned to each customer (may exceed a_i
    /// before reconciliation).
    load: Vec<u32>,
    /// Money spent per vendor.
    spend: Vec<Money>,
}

impl ReconState<'_, '_> {
    fn vendor_has_pair(&self, vid: VendorId, cid: CustomerId) -> bool {
        self.picks_of[cid.index()]
            .binary_search_by_key(&(vid.index() as u32), |&(j, _)| j)
            .is_ok()
    }

    /// The vendor holding this customer's lowest-λ instance (Alg. 1
    /// line 8's sort, realised as a min-scan over the customer's own
    /// pick row — O(load) instead of the former O(vendors · picks)
    /// rescan of every vendor solution).
    #[cfg_attr(any(), muaa::hot)]
    fn worst_vendor_for(&self, cid: CustomerId) -> Option<VendorId> {
        let _hot = muaa_core::sanitize::AllocGuard::strict("recon.worst_vendor_for");
        let mut worst: Option<(u32, f64)> = None;
        // Ascending vendor order with a strict `<` keeps the first
        // minimum — the same vendor the old full rescan chose, since
        // that scan also visited vendors in ascending order.
        for &(j, lambda) in &self.picks_of[cid.index()] {
            if worst.is_none_or(|(_, wl)| lambda < wl) {
                worst = Some((j, lambda));
            }
        }
        worst.map(|(j, _)| VendorId::from(j as usize))
    }

    /// Remove the instance of `cid` with the lowest utility from vendor
    /// `vid`'s solution (Alg. 1 line 10); returns the freed cost.
    #[cfg_attr(any(), muaa::hot)]
    fn remove_lowest_for(&mut self, vid: VendorId, cid: CustomerId) -> Option<Money> {
        let list = &mut self.per_vendor[vid.index()];
        let pos = list.iter().position(|&(c, _, _)| c == cid)?;
        let (_, tid, _) = list.swap_remove(pos);
        let picks = &mut self.picks_of[cid.index()];
        let at = picks
            .binary_search_by_key(&(vid.index() as u32), |&(j, _)| j)
            .expect("pick index out of sync with vendor solutions");
        picks.remove(at);
        let cost = self.inst.ad_type(tid).cost;
        self.load[cid.index()] -= 1;
        self.spend[vid.index()] -= cost;
        Some(cost)
    }

    /// Greedily refill vendor `vid`'s remaining budget with the best
    /// budget-efficiency instances among its valid customers that are
    /// not yet served by this vendor and still have spare capacity
    /// (Alg. 1 line 11).
    #[cfg_attr(any(), muaa::hot)]
    fn refill(&mut self, vid: VendorId, valid_customers: &[CustomerId]) {
        // Counting (not strict): the rare successful refill pushes into
        // the vendor's pick list, which may grow.
        let _hot = muaa_core::sanitize::AllocGuard::counting("recon.refill");
        loop {
            let remaining = self.inst.vendor(vid).budget - self.spend[vid.index()];
            if remaining < self.inst.min_ad_cost() {
                return;
            }
            let mut best: Option<(CustomerId, AdTypeId, f64, f64)> = None;
            for &cid in valid_customers {
                if self.load[cid.index()] >= self.inst.customer(cid).capacity {
                    continue;
                }
                if self.vendor_has_pair(vid, cid) {
                    continue;
                }
                if let Some((tid, lambda, gamma)) = self.ctx.best_ad_type(cid, vid, remaining) {
                    if best.is_none_or(|(_, _, _, bg)| gamma > bg) {
                        best = Some((cid, tid, lambda, gamma));
                    }
                }
            }
            let Some((cid, tid, lambda, _)) = best else {
                return;
            };
            // Growing the pick list is the point of a refill; the
            // counting guard above tracks it. lint: allow(hot_alloc)
            self.per_vendor[vid.index()].push((cid, tid, lambda));
            let picks = &mut self.picks_of[cid.index()];
            let at = picks.partition_point(|&(j, _)| j < vid.index() as u32);
            // The pick index mirrors the grow, staying vendor-sorted;
            // the same counting guard covers it.
            picks.insert(at, (vid.index() as u32, lambda));
            self.load[cid.index()] += 1;
            self.spend[vid.index()] += self.inst.ad_type(tid).cost;
        }
    }
}

/// The full RECON pipeline: phase-1 per-vendor MCKPs, phase-2
/// reconciliation, final materialisation.
fn recon_assign(ctx: &SolverContext<'_>, backend: MckpBackend, seed: u64) -> AssignmentSet {
    let inst = ctx.instance();
    use std::cell::RefCell;
    thread_local! {
        static BASES: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
    }
    // Phase 1 reads every eligible pair vendor by vendor; fill the memo
    // customer by customer first (DESIGN.md §10).
    ctx.fill_memo();
    let n_vendors = inst.num_vendors();
    let mut per_vendor: Vec<Vec<(CustomerId, AdTypeId, f64)>> = Vec::with_capacity(n_vendors);
    let mut picks_of: Vec<Vec<(u32, f64)>> = vec![Vec::new(); inst.num_customers()];
    let mut load = vec![0u32; inst.num_customers()];
    let mut spend = vec![Money::ZERO; n_vendors];

    // ---- Phase 1: single-vendor MCKPs (Alg. 1 lines 2–5). ----
    // Each vendor's MCKP is independent, so the solves fan out in
    // parallel; the load/spend bookkeeping is merged sequentially in
    // vendor-id order, giving the same state as the sequential loop.
    // Eligible customers come from the CSR row slice and pair bases
    // from one batched-kernel call into a thread-local scratch
    // (DESIGN.md §11) — nothing per-vendor is allocated beyond the MCKP
    // problem itself.
    let phase1 = muaa_core::par::par_map(inst.vendors(), 1, |j, vendor| {
        let vid = VendorId::from(j);
        let valid = ctx.eligible_customers(vid);
        let mut problem = MckpProblem::new(vendor.budget.as_cents());
        BASES.with(|scratch| {
            let bases = &mut *scratch.borrow_mut();
            ctx.pair_base_block(vid, valid, bases);
            // Class order ↔ valid-customer order.
            for &base in bases.iter() {
                problem.add_class(ad_type_items(inst, base));
            }
            let solution = backend.solve(&problem);
            let mut picked = Vec::new();
            for (class, item) in solution.picks() {
                let cid = valid[class];
                let tid = AdTypeId::from(item);
                let lambda = bases[class] * inst.ad_type(tid).effectiveness;
                if lambda <= 0.0 {
                    continue;
                }
                picked.push((cid, tid, lambda));
            }
            picked
        })
    });
    for (j, picked) in phase1.into_iter().enumerate() {
        for &(cid, tid, lambda) in &picked {
            load[cid.index()] += 1;
            spend[j] += inst.ad_type(tid).cost;
            // Vendors arrive in ascending id order, so every pick row
            // is born sorted by vendor id.
            picks_of[cid.index()].push((j as u32, lambda));
        }
        per_vendor.push(picked);
    }

    // ---- Phase 2: reconcile violations (Alg. 1 lines 6–11). ----
    let mut violated: Vec<CustomerId> = inst
        .customers_enumerated()
        .filter(|&(cid, c)| load[cid.index()] > c.capacity)
        .map(|(cid, _)| cid)
        .collect();
    // DetRng keeps the reconciliation order — and with it the solver's
    // byte-exact output — identical across build environments.
    DetRng::seed_from_u64(seed).shuffle(&mut violated);

    let mut state = ReconState {
        inst,
        ctx,
        per_vendor,
        picks_of,
        load,
        spend,
    };
    for cid in violated {
        let capacity = inst.customer(cid).capacity;
        while state.load[cid.index()] > capacity {
            let Some(vid) = state.worst_vendor_for(cid) else {
                break;
            };
            state.remove_lowest_for(vid, cid);
            // Line 11: the freed vendor re-assigns greedily, over the
            // same eligibility row phase 1 used.
            state.refill(vid, ctx.eligible_customers(vid));
        }
    }

    // ---- Materialise the union set (line 12). ----
    let mut set = AssignmentSet::new(inst);
    for (j, list) in state.per_vendor.iter().enumerate() {
        for &(cid, tid, _) in list {
            let ok = set.try_push(inst, Assignment::new(cid, VendorId::from(j), tid));
            debug_assert!(ok, "reconciled solution must be feasible");
        }
    }
    set
}

impl OfflineSolver for Recon {
    fn assign(&self, ctx: &SolverContext<'_>) -> muaa_core::AssignmentSet {
        recon_assign(ctx, self.backend, self.seed)
    }

    fn name(&self) -> &'static str {
        "RECON"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::offline::greedy::Greedy;
    use crate::offline::random::RandomAssign;
    use muaa_core::{
        AdType, Customer, InstanceBuilder, PearsonUtility, Point, ProblemInstance, TagVector,
        Timestamp, Vendor,
    };

    fn instance(m: usize, n: usize, capacity: u32, budget: f64) -> ProblemInstance {
        InstanceBuilder::new()
            .ad_types([
                AdType::new("TL", Money::from_dollars(1.0), 0.1),
                AdType::new("PL", Money::from_dollars(2.0), 0.4),
            ])
            .customers((0..m).map(|i| {
                Customer {
                    location: Point::new((i as f64 + 0.5) / m as f64, 0.5),
                    capacity,
                    view_probability: 0.2 + 0.6 * ((i * 13 % 17) as f64 / 17.0),
                    interests: TagVector::new(vec![
                        0.3 + 0.5 * ((i % 5) as f64 / 5.0),
                        0.9 - 0.6 * ((i % 3) as f64 / 3.0),
                        0.5,
                    ])
                    .unwrap(),
                    arrival: Timestamp::from_hours(i as f64 * 0.1),
                }
            }))
            .vendors((0..n).map(|j| Vendor {
                location: Point::new((j as f64 + 0.5) / n as f64, 0.48),
                radius: 0.35,
                budget: Money::from_dollars(budget),
                tags: TagVector::new(vec![0.8, 0.2, 0.6]).unwrap(),
            }))
            .build()
            .unwrap()
    }

    #[test]
    fn recon_is_feasible() {
        let inst = instance(30, 5, 2, 4.0);
        let model = PearsonUtility::uniform(3);
        let ctx = SolverContext::indexed(&inst, &model);
        let out = Recon::new().run(&ctx);
        assert!(out
            .assignments
            .check_feasibility(&inst, &model)
            .is_feasible());
        assert!(out.total_utility > 0.0);
    }

    #[test]
    fn phase1_violations_get_reconciled() {
        // Tight capacities (1 ad each) with many overlapping vendors
        // guarantee phase-1 violations; the final set must respect them.
        let inst = instance(10, 8, 1, 6.0);
        let model = PearsonUtility::uniform(3);
        let ctx = SolverContext::indexed(&inst, &model);
        let set = Recon::new().assign(&ctx);
        for (cid, c) in inst.customers_enumerated() {
            assert!(
                set.customer_load(cid) <= c.capacity,
                "customer {cid} over capacity"
            );
        }
    }

    #[test]
    fn recon_beats_random_on_utility() {
        let inst = instance(40, 6, 2, 5.0);
        let model = PearsonUtility::uniform(3);
        let ctx = SolverContext::indexed(&inst, &model);
        let recon = Recon::new().run(&ctx).total_utility;
        let random = RandomAssign::seeded(2).run(&ctx).total_utility;
        assert!(recon > random, "recon {recon} vs random {random}");
    }

    #[test]
    fn exact_backend_at_least_matches_lp_backend() {
        let inst = instance(25, 4, 2, 4.0);
        let model = PearsonUtility::uniform(3);
        let ctx = SolverContext::indexed(&inst, &model);
        let lp = Recon::new().run(&ctx).total_utility;
        let exact = Recon::new()
            .with_backend(MckpBackend::ExactDp)
            .run(&ctx)
            .total_utility;
        // Phase 2 interactions can shuffle things slightly, but the
        // exact backend shouldn't lose more than a whisker.
        assert!(exact >= 0.95 * lp, "exact {exact} vs lp {lp}");
    }

    #[test]
    fn recon_competitive_with_greedy() {
        let inst = instance(40, 6, 2, 5.0);
        let model = PearsonUtility::uniform(3);
        let ctx = SolverContext::indexed(&inst, &model);
        let recon = Recon::new().run(&ctx).total_utility;
        let greedy = Greedy.run(&ctx).total_utility;
        // The paper finds RECON ≥ GREEDY; allow a small tolerance since
        // phase-2 randomness can cost a little on tiny instances.
        assert!(recon >= 0.9 * greedy, "recon {recon} vs greedy {greedy}");
    }

    #[test]
    fn deterministic_given_seed() {
        let inst = instance(20, 6, 1, 4.0);
        let model = PearsonUtility::uniform(3);
        let ctx = SolverContext::indexed(&inst, &model);
        let a = Recon::new().with_seed(9).assign(&ctx);
        let b = Recon::new().with_seed(9).assign(&ctx);
        assert_eq!(a.assignments(), b.assignments());
    }

    #[test]
    fn empty_instance() {
        let inst = InstanceBuilder::new()
            .ad_type(AdType::new("TL", Money::from_dollars(1.0), 0.1))
            .build()
            .unwrap();
        let model = PearsonUtility::uniform(0);
        let ctx = SolverContext::indexed(&inst, &model);
        assert!(Recon::new().assign(&ctx).is_empty());
    }
}
