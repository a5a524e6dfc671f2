//! `(1 − ε)` FPTAS for MCKP via profit scaling.
//!
//! Profits are scaled by `δ = ε · P / n` (with `P` the maximum single
//! item profit and `n` the number of classes), rounded *down* to
//! integers, and an exact minimum-cost dynamic program runs over the
//! scaled-profit axis. The total rounding loss is at most `n · δ =
//! ε · P ≤ ε · OPT` whenever some single item attains `P ≤ OPT`, so the
//! returned profit is at least `(1 − ε) · OPT` — the guarantee assumed
//! by the paper's Theorem III.1.

use crate::problem::{MckpProblem, MckpSolution};

/// The profit-scaling FPTAS. `epsilon` trades accuracy for time:
/// runtime is `O(classes² · items / ε)`.
#[derive(Clone, Copy, Debug)]
pub struct MckpFptas {
    epsilon: f64,
}

impl MckpFptas {
    /// Create a solver with the given `ε ∈ (0, 1)`.
    pub fn new(epsilon: f64) -> Self {
        assert!(epsilon > 0.0 && epsilon < 1.0, "epsilon must be in (0,1)");
        MckpFptas { epsilon }
    }

    /// The configured `ε`.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }
}

impl Default for MckpFptas {
    fn default() -> Self {
        MckpFptas::new(0.1)
    }
}

const INFINITE_COST: u64 = u64::MAX;

impl MckpFptas {
    /// Solve the problem to within `(1 − ε)` of the optimum.
    pub fn solve(&self, problem: &MckpProblem) -> MckpSolution {
        let n = problem.num_classes();
        let max_profit = problem
            .classes()
            .flatten()
            .filter(|i| i.cost <= problem.capacity())
            .map(|i| i.profit)
            .fold(0.0_f64, f64::max);
        if n == 0 || max_profit <= 0.0 {
            return MckpSolution::empty(problem);
        }
        let delta = self.epsilon * max_profit / n as f64;

        // Scaled profit of each item; per-class max bounds the DP axis.
        let scaled: Vec<Vec<u64>> = problem
            .classes()
            .map(|class| {
                class
                    .iter()
                    .map(|i| {
                        if i.cost > problem.capacity() || i.profit <= 0.0 {
                            0
                        } else {
                            (i.profit / delta).floor() as u64
                        }
                    })
                    .collect()
            })
            .collect();
        let max_total: u64 = scaled
            .iter()
            .map(|c| c.iter().copied().max().unwrap_or(0))
            .sum();
        let states = (max_total + 1) as usize;

        // dp[p]: minimal cost to reach scaled profit exactly p.
        let mut dp = vec![INFINITE_COST; states];
        dp[0] = 0;
        let mut next = vec![INFINITE_COST; states];
        // choice[class][p]: item chosen for `class` when at scaled
        // profit p (u8::MAX = null choice).
        let mut choice_rows: Vec<Vec<u8>> = Vec::with_capacity(n);
        assert!(
            problem.classes().all(|c| c.len() < u8::MAX as usize),
            "MckpFptas supports at most {} items per class",
            u8::MAX - 1
        );

        for (ci, class) in problem.classes().enumerate() {
            next.copy_from_slice(&dp);
            let mut row = vec![u8::MAX; states];
            for (ii, item) in class.iter().enumerate() {
                let sp = scaled[ci][ii] as usize;
                if sp == 0 || item.cost > problem.capacity() {
                    continue;
                }
                for p in (sp..states).rev() {
                    let base = dp[p - sp];
                    if base == INFINITE_COST {
                        continue;
                    }
                    let cand = base + item.cost;
                    if cand <= problem.capacity() && cand < next[p] {
                        next[p] = cand;
                        row[p] = ii as u8;
                    }
                }
            }
            std::mem::swap(&mut dp, &mut next);
            choice_rows.push(row);
        }

        // Highest reachable scaled profit within budget.
        let mut best_p = 0usize;
        for (p, &c) in dp.iter().enumerate() {
            if c != INFINITE_COST {
                best_p = p;
            }
        }

        // Reconstruct. Walking classes in reverse: row[ci][p] tells the
        // item chosen at this state (if the state was improved at class
        // ci); otherwise the state passed through unchanged.
        let mut sol = MckpSolution::empty(problem);
        let mut p = best_p;
        for ci in (0..n).rev() {
            let ch = choice_rows[ci][p];
            if ch != u8::MAX {
                let ii = ch as usize;
                let item = problem.class(ci)[ii];
                sol.choices[ci] = Some(ii);
                sol.profit += item.profit;
                sol.cost += item.cost;
                p -= scaled[ci][ii] as usize;
            }
        }
        debug_assert!(sol.validate(problem), "fptas produced an invalid solution");
        sol
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::MckpExactDp;
    use crate::problem::MckpItem;

    #[test]
    fn empty_problem() {
        let p = MckpProblem::new(100);
        let sol = MckpFptas::new(0.2).solve(&p);
        assert_eq!(sol.profit, 0.0);
    }

    #[test]
    fn exactness_on_trivial_instance() {
        let mut p = MckpProblem::new(300);
        p.add_class(vec![MckpItem::new(100, 1.0), MckpItem::new(200, 2.5)]);
        p.add_class(vec![MckpItem::new(100, 0.8)]);
        let sol = MckpFptas::new(0.1).solve(&p);
        let exact = MckpExactDp.solve(&p);
        assert!(sol.profit >= (1.0 - 0.1) * exact.profit);
        assert!(sol.validate(&p));
    }

    #[test]
    #[should_panic(expected = "epsilon")]
    fn rejects_bad_epsilon() {
        let _ = MckpFptas::new(1.5);
    }

    #[test]
    fn guarantee_holds_on_random_instances() {
        use muaa_core::DetRng;
        let mut rng = DetRng::seed_from_u64(23);
        for &eps in &[0.05_f64, 0.15, 0.35] {
            for _ in 0..40 {
                let cap = rng.gen_range(50, 600) as u64;
                let mut p = MckpProblem::new(cap);
                for _ in 0..rng.gen_range(1, 7) {
                    p.add_class((0..rng.gen_range(1, 4)).map(|_| {
                        MckpItem::new(rng.gen_range(1, 400) as u64, rng.gen_f64() * 10.0)
                    }));
                }
                let sol = MckpFptas::new(eps).solve(&p);
                let exact = MckpExactDp.solve(&p);
                assert!(sol.validate(&p));
                assert!(
                    sol.profit >= (1.0 - eps) * exact.profit - 1e-9,
                    "ε={eps}: fptas {} below (1-ε)·{}",
                    sol.profit,
                    exact.profit
                );
            }
        }
    }

    #[test]
    fn tighter_epsilon_is_at_least_as_good() {
        use muaa_core::DetRng;
        let mut rng = DetRng::seed_from_u64(31);
        let mut p = MckpProblem::new(500);
        for _ in 0..8 {
            p.add_class((0..3).map(|_| MckpItem::new(rng.gen_range(1, 300) as u64, rng.gen_f64())));
        }
        let loose = MckpFptas::new(0.5).solve(&p);
        let tight = MckpFptas::new(0.01).solve(&p);
        let exact = MckpExactDp.solve(&p);
        assert!(tight.profit >= loose.profit - 1e-9);
        assert!(tight.profit >= 0.99 * exact.profit - 1e-9);
    }
}
