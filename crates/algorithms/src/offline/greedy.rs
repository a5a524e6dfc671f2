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

use crate::context::SolverContext;
use crate::offline::OfflineSolver;
use muaa_core::{AdTypeId, Assignment, AssignmentSet, CustomerId, ProblemInstance, VendorId};

/// One candidate triple with its static efficiency.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Candidate {
    pub(crate) customer: CustomerId,
    pub(crate) vendor: VendorId,
    pub(crate) ad_type: AdTypeId,
    pub(crate) gamma: f64,
}

/// Collect every valid (customer, vendor, ad type) triple with positive
/// utility. Vendors are scanned in parallel; per-vendor candidate lists
/// are concatenated in vendor-id order, so the output is identical to
/// the sequential scan.
///
/// Zero-allocation inner loop (DESIGN.md §11): each vendor's eligible
/// customers come from its CSR row slice and their pair bases from one
/// [`SolverContext::pair_base_block`] call into a thread-local scratch
/// buffer reused across vendors. The memo is filled customer-major
/// first, so those calls only read it (DESIGN.md §10).
#[cfg_attr(any(), muaa::hot)]
fn collect_candidates(ctx: &SolverContext<'_>) -> Vec<Candidate> {
    ctx.fill_memo();
    // Naming the type lets muaa-lint's call graph resolve
    // `inst.vendors()` to `ProblemInstance` alone, not to every
    // `vendors` in the workspace.
    let inst: &ProblemInstance = ctx.instance();
    use std::cell::RefCell;
    thread_local! {
        // Scratch reused across vendors. lint: allow(hot_alloc): one-time
        // thread-local init, not per-vendor work.
        static BASES: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
    }
    let per_vendor = muaa_core::par::par_map(inst.vendors(), 1, |j, _| {
        let vid = VendorId::from(j);
        let cids = ctx.eligible_customers(vid);
        BASES.with(|scratch| {
            let mut bases = scratch.borrow_mut();
            ctx.pair_base_block(vid, cids, &mut bases);
            // lint: allow(hot_alloc): par_map requires an owned
            // per-vendor result list — the one §11-sanctioned
            // allocation of this loop.
            let mut out = Vec::new();
            for (k, &cid) in cids.iter().enumerate() {
                let base = bases[k];
                if base <= 0.0 {
                    continue;
                }
                for (tid, t) in inst.ad_types_enumerated() {
                    let lambda = base * t.effectiveness;
                    if lambda <= 0.0 {
                        continue;
                    }
                    // Into the owned per-vendor list justified
                    // above. lint: allow(hot_alloc)
                    out.push(Candidate {
                        customer: cid,
                        vendor: vid,
                        ad_type: tid,
                        gamma: lambda / t.cost.as_dollars(),
                    });
                }
            }
            out
        })
    });
    let mut out = Vec::with_capacity(per_vendor.iter().map(Vec::len).sum());
    for list in per_vendor {
        out.extend(list);
    }
    out
}

/// Sort candidates into GREEDY's commit order: efficiency descending,
/// ties by ids for determinism.
///
/// `total_cmp` (not `partial_cmp(..).unwrap_or(Equal)`) so that a
/// pathological utility model producing NaN gammas still yields a
/// strict weak order — `sort_by` may panic on an inconsistent
/// comparator, and `Equal`-on-NaN breaks transitivity. For the finite
/// positive gammas of real models the two orders agree exactly (total
/// order matches `<` on same-sign finite floats).
///
/// `par_sort_by` is a stable parallel merge sort producing the
/// identical permutation to `sort_by` for any thread count (and falling
/// back to it below its run threshold), so the global candidate order —
/// and therefore the sweep — stays byte-identical between feature
/// configurations.
pub(crate) fn sort_candidates(candidates: &mut [Candidate]) {
    muaa_core::par::par_sort_by(candidates, |a, b| {
        b.gamma
            .total_cmp(&a.gamma)
            .then(a.customer.cmp(&b.customer))
            .then(a.vendor.cmp(&b.vendor))
            .then(a.ad_type.cmp(&b.ad_type))
    });
}

/// The GREEDY body: collect candidates, sort into efficiency order,
/// sweep into a feasible set.
fn greedy_assign(ctx: &SolverContext<'_>) -> AssignmentSet {
    let inst = ctx.instance();
    let mut candidates = collect_candidates(ctx);
    sort_candidates(&mut candidates);
    let mut set = AssignmentSet::new(inst);
    for cand in candidates {
        // Feasibility only ever degrades, so a one-pass sweep in
        // efficiency order is equivalent to re-selecting the best
        // feasible candidate each iteration.
        set.try_push(
            inst,
            Assignment::new(cand.customer, cand.vendor, cand.ad_type),
        );
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
/// iteration to find the "currently best" one. Identical output to
/// [`Greedy`], quadratic cost profile.
#[derive(Clone, Copy, Debug, Default)]
pub struct NaiveGreedy;

impl OfflineSolver for NaiveGreedy {
    fn assign(&self, ctx: &SolverContext<'_>) -> AssignmentSet {
        let mut candidates = collect_candidates(ctx);
        let mut set = AssignmentSet::new(ctx.instance());
        loop {
            // Scan for the best feasible candidate.
            let mut best: Option<(usize, f64)> = None;
            for (i, cand) in candidates.iter().enumerate() {
                let a = Assignment::new(cand.customer, cand.vendor, cand.ad_type);
                if set.fits(ctx.instance(), a) {
                    let better = match best {
                        None => true,
                        Some((bi, bg)) => {
                            cand.gamma > bg
                                || (cand.gamma == bg && tie_break(cand, &candidates[bi]))
                        }
                    };
                    if better {
                        best = Some((i, cand.gamma));
                    }
                }
            }
            let Some((idx, _)) = best else { break };
            let cand = candidates.swap_remove(idx);
            set.push_unchecked(
                ctx.instance(),
                Assignment::new(cand.customer, cand.vendor, cand.ad_type),
            );
        }
        set
    }

    fn name(&self) -> &'static str {
        "GREEDY"
    }
}

/// Deterministic tie-break matching [`Greedy`]'s sort order.
fn tie_break(a: &Candidate, b: &Candidate) -> bool {
    (a.customer, a.vendor, a.ad_type) < (b.customer, b.vendor, b.ad_type)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::SolverContext;
    use muaa_core::{
        AdType, Customer, InstanceBuilder, Money, PearsonUtility, Point, ProblemInstance,
        TagVector, Timestamp,
    };

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
    /// with NaN are false), so NaN gammas reach the sort. With the old
    /// `partial_cmp(..).unwrap_or(Equal)` comparator that broke strict
    /// weak ordering; `total_cmp` keeps the sort deterministic (and
    /// panic-free).
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
        // Must not panic (strict weak order holds under total_cmp), and
        // repeated runs must agree assignment-for-assignment.
        let a = Greedy.assign(&ctx);
        let b = Greedy.assign(&ctx);
        assert_eq!(a.assignments(), b.assignments());
        // The NaN-free half of the instance still gets served.
        assert!(a
            .assignments()
            .iter()
            .any(|asg| asg.customer.index() % 2 == 1));
    }

    /// The global candidate order must be thread-count invariant: a run
    /// big enough to engage `par_sort_by`'s parallel merge path (above
    /// its 4096-element run threshold) commits the exact assignment
    /// sequence of a forced-sequential run.
    #[test]
    fn parallel_candidate_sort_matches_sequential() {
        let inst = instance(600, 20, 4.0);
        let model = PearsonUtility::uniform(3);
        let ctx = SolverContext::indexed(&inst, &model);
        assert!(
            collect_candidates(&ctx).len() > 4096,
            "instance too small to exercise the parallel sort path"
        );
        let parallel = Greedy.assign(&ctx);
        let sequential = muaa_core::par::with_sequential(|| Greedy.assign(&ctx));
        assert_eq!(parallel.assignments(), sequential.assignments());
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
