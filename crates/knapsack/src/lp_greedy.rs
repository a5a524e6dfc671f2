//! LP-relaxation greedy solver for MCKP (Dyer–Zemel / Sinha–Zoltners).
//!
//! After per-class [dominance reduction](crate::hull_indices) each class
//! is a sequence of *increments* with strictly decreasing incremental
//! efficiency. The LP optimum of MCKP takes increments globally in
//! efficiency order until the budget is exhausted, splitting at most
//! one increment fractionally. The integral rounding here keeps the
//! fully-taken increments and compares against the best single item
//! that fits, which guarantees a profit of at least half the LP optimum
//! (hence ≥ ½ · OPT) — in practice far closer, because MUAA increments
//! are tiny relative to the budget.

use crate::dominance::{hull_into, HullScratch};
use crate::problem::{MckpProblem, MckpSolution, MckpSolver};

/// The LP-relaxation greedy solver. See the module docs.
///
/// ```
/// use muaa_knapsack::{MckpItem, MckpLpGreedy, MckpProblem, MckpSolver};
///
/// let mut problem = MckpProblem::new(300); // budget: 300 cents
/// problem.add_class(vec![MckpItem::new(100, 1.0), MckpItem::new(200, 1.8)]);
/// problem.add_class(vec![MckpItem::new(100, 0.9)]);
/// let solution = MckpLpGreedy.solve(&problem);
/// assert!(solution.validate(&problem));
/// assert!((solution.profit - 2.7).abs() < 1e-12); // 1.8 + 0.9
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct MckpLpGreedy;

/// Extended output of [`MckpLpGreedy::solve_detailed`]: the integral
/// solution plus the LP (fractional) optimum value, which upper-bounds
/// the integral optimum and is handy for measuring solution quality.
#[derive(Clone, Debug)]
pub struct MckpLpResult {
    /// The integral solution.
    pub solution: MckpSolution,
    /// The LP relaxation's optimal value (≥ the integral optimum).
    pub lp_bound: f64,
}

/// One hull increment of a class.
#[derive(Clone, Copy, Debug)]
struct Increment {
    class: u32,
    /// Index of the hull item this increment upgrades *to*.
    item: u32,
    delta_cost: u64,
    delta_profit: f64,
}

impl MckpLpGreedy {
    /// Solve and also report the LP bound.
    pub fn solve_detailed(&self, problem: &MckpProblem) -> MckpLpResult {
        let mut increments: Vec<Increment> = Vec::new();
        // Track the best single item that fits, as rounding fallback.
        let mut best_single: Option<(usize, usize, f64)> = None;
        // One set of hull buffers for every class of this solve.
        let mut scratch = HullScratch::default();

        for (ci, class) in problem.classes().enumerate() {
            let mut prev_cost = 0u64;
            let mut prev_profit = 0.0f64;
            for &(cost, profit, ii) in hull_into(class, &mut scratch) {
                increments.push(Increment {
                    class: ci as u32,
                    item: ii as u32,
                    delta_cost: cost - prev_cost,
                    delta_profit: profit - prev_profit,
                });
                prev_cost = cost;
                prev_profit = profit;
            }
            for (ii, item) in class.iter().enumerate() {
                if item.cost <= problem.capacity()
                    && item.profit > best_single.map_or(0.0, |(_, _, p)| p)
                {
                    best_single = Some((ci, ii, item.profit));
                }
            }
        }

        // Sort by efficiency descending. Within a class efficiencies
        // strictly decrease along the hull, so a stable sort preserves
        // the prerequisite order for equal efficiencies across classes;
        // intra-class ties cannot occur.
        increments.sort_by(|a, b| {
            let ea = eff(a);
            let eb = eff(b);
            eb.total_cmp(&ea)
        });

        let mut remaining = problem.capacity();
        let mut current: Vec<Option<usize>> = vec![None; problem.num_classes()];
        let mut profit = 0.0f64;
        let mut cost = 0u64;
        let mut lp_bound = 0.0f64;
        let mut lp_budget = problem.capacity();
        let mut lp_open = true;

        for inc in &increments {
            // LP bound bookkeeping: fill fractionally.
            if lp_open {
                if inc.delta_cost <= lp_budget {
                    lp_bound += inc.delta_profit;
                    lp_budget -= inc.delta_cost;
                } else {
                    lp_bound += inc.delta_profit * lp_budget as f64 / inc.delta_cost as f64;
                    lp_budget = 0;
                    lp_open = false;
                }
            }
            // Integral greedy: upgrades within a class refund the
            // previous increment's cost implicitly because increments
            // arrive in intra-class order; an upgrade only applies if
            // the class is currently at the increment's predecessor.
            // Since we process increments in global efficiency order and
            // intra-class order coincides with it, the class is always
            // at the predecessor when its next increment arrives.
            if inc.delta_cost <= remaining {
                // Apply the upgrade.
                current[inc.class as usize] = Some(inc.item as usize);
                profit += inc.delta_profit;
                cost += inc.delta_cost;
                remaining -= inc.delta_cost;
            } else {
                // First increment that does not fit: the LP splits here;
                // the integral greedy stops (taking later, less
                // efficient increments could still fit, but they may be
                // upgrades whose predecessor we skipped — stopping keeps
                // the classic guarantee and the implementation honest).
                break;
            }
        }

        let mut solution = MckpSolution {
            choices: current,
            profit,
            cost,
        };

        // Fallback: the best single item can beat the truncated greedy
        // (classic ½-approximation argument).
        if let Some((ci, ii, p)) = best_single {
            if p > solution.profit {
                let item = problem.class(ci)[ii];
                let mut choices = vec![None; problem.num_classes()];
                choices[ci] = Some(ii);
                solution = MckpSolution {
                    choices,
                    profit: p,
                    cost: item.cost,
                };
            }
        }
        debug_assert!(
            solution.validate(problem),
            "lp-greedy produced an invalid solution"
        );
        MckpLpResult {
            lp_bound: lp_bound.max(solution.profit),
            solution,
        }
    }
}

#[inline]
fn eff(inc: &Increment) -> f64 {
    if inc.delta_cost == 0 {
        f64::INFINITY
    } else {
        inc.delta_profit / inc.delta_cost as f64
    }
}

impl MckpSolver for MckpLpGreedy {
    fn solve(&self, problem: &MckpProblem) -> MckpSolution {
        self.solve_detailed(problem).solution
    }

    fn name(&self) -> &'static str {
        "mckp-lp-greedy"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::MckpExactDp;
    use crate::problem::MckpItem;

    fn problem(cap: u64, classes: &[&[(u64, f64)]]) -> MckpProblem {
        let mut p = MckpProblem::new(cap);
        for class in classes {
            p.add_class(class.iter().map(|&(c, pr)| MckpItem::new(c, pr)));
        }
        p
    }

    #[test]
    fn matches_exact_on_easy_instances() {
        let p = problem(
            300,
            &[
                &[(100, 1.0), (200, 1.8)],
                &[(100, 0.9), (200, 1.7)],
                &[(100, 0.2)],
            ],
        );
        let lp = MckpLpGreedy.solve(&p);
        let ex = MckpExactDp.solve(&p);
        assert!(
            (lp.profit - ex.profit).abs() < 1e-12,
            "lp {} exact {}",
            lp.profit,
            ex.profit
        );
    }

    #[test]
    fn lp_bound_upper_bounds_exact() {
        use muaa_core::DetRng;
        let mut rng = DetRng::seed_from_u64(5);
        for _ in 0..100 {
            let cap = rng.gen_range(50, 500) as u64;
            let mut p = MckpProblem::new(cap);
            for _ in 0..rng.gen_range(1, 6) {
                p.add_class(
                    (0..rng.gen_range(1, 4))
                        .map(|_| MckpItem::new(rng.gen_range(1, 300) as u64, rng.gen_f64())),
                );
            }
            let detail = MckpLpGreedy.solve_detailed(&p);
            let exact = MckpExactDp.solve(&p);
            assert!(detail.solution.validate(&p));
            assert!(
                detail.lp_bound >= exact.profit - 1e-9,
                "lp bound {} below exact {}",
                detail.lp_bound,
                exact.profit
            );
            // Half-approximation guarantee.
            assert!(
                detail.solution.profit >= 0.5 * exact.profit - 1e-9,
                "greedy {} below half of exact {}",
                detail.solution.profit,
                exact.profit
            );
        }
    }

    #[test]
    fn near_optimal_when_items_are_small_vs_budget() {
        use muaa_core::DetRng;
        let mut rng = DetRng::seed_from_u64(17);
        // 40 classes of cheap items against a large budget: the greedy
        // should be within 5% of exact.
        let mut p = MckpProblem::new(2000);
        for _ in 0..40 {
            p.add_class(
                (0..3).map(|_| MckpItem::new(rng.gen_range(50, 250) as u64, rng.gen_f64())),
            );
        }
        let lp = MckpLpGreedy.solve(&p);
        let ex = MckpExactDp.solve(&p);
        assert!(
            lp.profit >= 0.95 * ex.profit,
            "lp {} exact {}",
            lp.profit,
            ex.profit
        );
    }

    #[test]
    fn single_item_fallback_engages() {
        // Greedy takes the efficient cheap item (cost 10, profit 1),
        // then cannot afford the big one; but the big item alone (cost
        // 100, profit 5) is better than the greedy prefix.
        let p = problem(100, &[&[(10, 1.0)], &[(100, 5.0)]]);
        let sol = MckpLpGreedy.solve(&p);
        assert!((sol.profit - 5.0).abs() < 1e-12);
        assert_eq!(sol.choices, vec![None, Some(0)]);
    }

    #[test]
    fn empty_and_infeasible_cases() {
        let p = problem(0, &[&[(10, 1.0)]]);
        let sol = MckpLpGreedy.solve(&p);
        assert_eq!(sol.profit, 0.0);
        assert_eq!(sol.choices, vec![None]);

        let p = problem(100, &[]);
        assert_eq!(MckpLpGreedy.solve(&p).profit, 0.0);
    }
}
