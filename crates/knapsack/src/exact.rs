//! Exact MCKP dynamic program over the integral budget axis.

use crate::problem::{MckpProblem, MckpSolution, MckpSolver};

/// Exact MCKP solver: `dp[b]` = best profit achievable with cost
/// exactly ≤ `b`, processed class by class with full choice tracking.
///
/// Time `O(classes · capacity · items_per_class)`, memory
/// `O(classes · capacity)` bytes for choice reconstruction. MUAA
/// budgets are tens of dollars (thousands of cents) and classes number
/// in the hundreds per vendor, so this is comfortably affordable — but
/// see [`MckpLpGreedy`](crate::MckpLpGreedy) for the paper's faster
/// LP-relaxation route.
#[derive(Clone, Copy, Debug, Default)]
pub struct MckpExactDp;

/// Sentinel meaning "no item chosen for this class at this budget".
const NO_CHOICE: u8 = u8::MAX;

impl MckpSolver for MckpExactDp {
    fn solve(&self, problem: &MckpProblem) -> MckpSolution {
        let cap = problem.capacity() as usize;
        assert!(
            problem.classes().all(|c| c.len() < NO_CHOICE as usize),
            "MckpExactDp supports at most {} items per class",
            NO_CHOICE - 1
        );

        // dp[b]: best profit with budget b after the classes processed
        // so far. choice[class][b]: item picked for `class` at state b.
        let mut dp = vec![0.0_f64; cap + 1];
        let mut next = vec![0.0_f64; cap + 1];
        let mut choices: Vec<Vec<u8>> = Vec::with_capacity(problem.num_classes());

        for class in problem.classes() {
            let mut choice_row = vec![NO_CHOICE; cap + 1];
            // Null choice: carry dp forward.
            next.copy_from_slice(&dp);
            for (item_idx, item) in class.iter().enumerate() {
                if item.profit <= 0.0 {
                    continue; // never beats the null choice
                }
                let cost = item.cost as usize;
                if cost > cap {
                    continue;
                }
                for b in cost..=cap {
                    let cand = dp[b - cost] + item.profit;
                    if cand > next[b] {
                        next[b] = cand;
                        choice_row[b] = item_idx as u8;
                    }
                }
            }
            std::mem::swap(&mut dp, &mut next);
            choices.push(choice_row);
        }

        // The DP is monotone in b, so the best state is at full capacity.
        let mut b = cap;
        let mut sol = MckpSolution::empty(problem);
        for (class_idx, class) in problem.classes().enumerate().rev() {
            let ch = choices[class_idx][b];
            if ch != NO_CHOICE {
                let item = &class[ch as usize];
                sol.choices[class_idx] = Some(ch as usize);
                sol.profit += item.profit;
                sol.cost += item.cost;
                b -= item.cost as usize;
            }
        }
        debug_assert!(
            sol.validate(problem),
            "exact DP produced an invalid solution"
        );
        sol
    }

    fn name(&self) -> &'static str {
        "mckp-exact-dp"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::MckpItem;

    fn problem(cap: u64, classes: &[&[(u64, f64)]]) -> MckpProblem {
        let mut p = MckpProblem::new(cap);
        for class in classes {
            p.add_class(class.iter().map(|&(c, pr)| MckpItem::new(c, pr)));
        }
        p
    }

    #[test]
    fn empty_problem() {
        let p = problem(100, &[]);
        let sol = MckpExactDp.solve(&p);
        assert_eq!(sol.profit, 0.0);
        assert_eq!(sol.cost, 0);
    }

    #[test]
    fn picks_best_single_item() {
        let p = problem(200, &[&[(100, 1.0), (200, 3.0)]]);
        let sol = MckpExactDp.solve(&p);
        assert_eq!(sol.choices, vec![Some(1)]);
        assert_eq!(sol.profit, 3.0);
    }

    #[test]
    fn respects_capacity_across_classes() {
        // Cap 300: can't take both 200-cost items; best is 200+100.
        let p = problem(300, &[&[(200, 3.0), (100, 1.4)], &[(200, 2.0), (100, 1.5)]]);
        let sol = MckpExactDp.solve(&p);
        assert!((sol.profit - 4.5).abs() < 1e-12, "profit {}", sol.profit);
        assert_eq!(sol.choices, vec![Some(0), Some(1)]);
        assert!(sol.cost <= 300);
    }

    #[test]
    fn null_choice_allowed_when_nothing_fits() {
        let p = problem(50, &[&[(100, 5.0)]]);
        let sol = MckpExactDp.solve(&p);
        assert_eq!(sol.choices, vec![None]);
        assert_eq!(sol.profit, 0.0);
    }

    #[test]
    fn zero_profit_items_ignored() {
        let p = problem(100, &[&[(10, 0.0), (20, 2.0)]]);
        let sol = MckpExactDp.solve(&p);
        assert_eq!(sol.choices, vec![Some(1)]);
    }

    #[test]
    fn knapsack_paper_example_single_vendor() {
        // Vendor v2 of the paper's Example 1: budget $3, customers
        // u1 (PL util .012, TL .003), u2 (PL .0096, TL .0024),
        // u3 (PL .0072, TL .0018).  Best: PL to u1 ($2) + TL to u2 ($1)?
        // Profit .012 + .0024 = .0144, vs PL u1 + TL u3 = .0138,
        // vs PL u2 + TL u1 = .0126. Exact must find .0144.
        let p = problem(
            300,
            &[
                &[(100, 0.003), (200, 0.012)],
                &[(100, 0.0024), (200, 0.0096)],
                &[(100, 0.0018), (200, 0.0072)],
            ],
        );
        let sol = MckpExactDp.solve(&p);
        assert!((sol.profit - 0.0144).abs() < 1e-12, "profit {}", sol.profit);
        assert_eq!(sol.choices, vec![Some(1), Some(0), None]);
    }

    #[test]
    fn exhaustive_agreement_on_small_random_problems() {
        use muaa_core::DetRng;
        let mut rng = DetRng::seed_from_u64(99);
        for _ in 0..50 {
            let cap = rng.gen_range(0, 400) as u64;
            let n_classes = rng.gen_range(0, 5);
            let mut p = MckpProblem::new(cap);
            for _ in 0..n_classes {
                let n_items = rng.gen_range(1, 4);
                p.add_class(
                    (0..n_items)
                        .map(|_| MckpItem::new(rng.gen_range(1, 300) as u64, rng.gen_f64())),
                );
            }
            let sol = MckpExactDp.solve(&p);
            assert!(sol.validate(&p));
            let brute = brute_force(&p);
            assert!(
                (sol.profit - brute).abs() < 1e-9,
                "dp {} vs brute {}",
                sol.profit,
                brute
            );
        }
    }

    /// Enumerate every choice combination (small problems only).
    fn brute_force(p: &MckpProblem) -> f64 {
        fn rec(p: &MckpProblem, class: usize, cost: u64, profit: f64, best: &mut f64) {
            if cost > p.capacity() {
                return;
            }
            if profit > *best {
                *best = profit;
            }
            if class == p.num_classes() {
                return;
            }
            rec(p, class + 1, cost, profit, best);
            for item in p.class(class) {
                rec(p, class + 1, cost + item.cost, profit + item.profit, best);
            }
        }
        let mut best = 0.0;
        rec(p, 0, 0, 0.0, &mut best);
        best
    }
}
