//! Property-based tests for the knapsack substrate: solver agreement,
//! guarantee bounds, and structural invariants under arbitrary inputs.

use muaa_knapsack::{
    hull_indices, zero_one, MckpExactDp, MckpFptas, MckpItem, MckpLpGreedy, MckpProblem, MckpSolver,
};
use muaa_testkit::{f64_in, for_all, u64_in, vec_of, DetRng};

const CASES: u32 = 128;

fn gen_item(rng: &mut DetRng) -> MckpItem {
    MckpItem::new(u64_in(rng, 1..400), f64_in(rng, 0.0..5.0))
}

fn gen_problem(rng: &mut DetRng) -> MckpProblem {
    let mut p = MckpProblem::new(u64_in(rng, 0..800));
    for class in vec_of(rng, 0..7, |r| vec_of(r, 1..5, gen_item)) {
        p.add_class(class);
    }
    p
}

#[test]
fn exact_dp_is_optimal_and_feasible() {
    for_all(
        "exact_dp_is_optimal_and_feasible",
        CASES,
        gen_problem,
        check_exact_dp,
    );
}

fn check_exact_dp(p: &MckpProblem) {
    let sol = MckpExactDp.solve(p);
    assert!(sol.validate(p));
    // Exhaustive check on these small sizes.
    let brute = brute_force(p);
    assert!(
        (sol.profit - brute).abs() < 1e-9,
        "dp {} brute {}",
        sol.profit,
        brute
    );
}

#[test]
fn lp_greedy_holds_half_guarantee_and_bound() {
    for_all(
        "lp_greedy_holds_half_guarantee_and_bound",
        CASES,
        gen_problem,
        check_lp_greedy,
    );
}

fn check_lp_greedy(p: &MckpProblem) {
    let detail = MckpLpGreedy.solve_detailed(p);
    let exact = MckpExactDp.solve(p);
    assert!(detail.solution.validate(p));
    assert!(detail.solution.profit >= 0.5 * exact.profit - 1e-9);
    assert!(detail.lp_bound >= exact.profit - 1e-9);
}

#[test]
fn fptas_honours_epsilon() {
    let gen = |r: &mut DetRng| (gen_problem(r), f64_in(r, 0.02..0.6));
    for_all("fptas_honours_epsilon", CASES, gen, |(p, eps)| {
        check_fptas(p, *eps)
    });
}

fn check_fptas(p: &MckpProblem, eps: f64) {
    let sol = MckpFptas::new(eps).solve(p);
    let exact = MckpExactDp.solve(p);
    assert!(sol.validate(p));
    assert!(
        sol.profit >= (1.0 - eps) * exact.profit - 1e-9,
        "ε={eps}: {} < (1-ε)·{}",
        sol.profit,
        exact.profit
    );
}

#[test]
fn hull_is_subset_with_decreasing_increments() {
    let gen = |r: &mut DetRng| vec_of(r, 0..12, gen_item);
    for_all(
        "hull_is_subset_with_decreasing_increments",
        CASES,
        gen,
        |items| {
            let hull = hull_indices(items);
            // Subset of valid indices, strictly increasing cost.
            let mut prev_cost = 0u64;
            let mut prev_profit = 0.0f64;
            let mut prev_eff = f64::INFINITY;
            for (pos, &i) in hull.iter().enumerate() {
                assert!(i < items.len());
                let it = items[i];
                if pos > 0 {
                    assert!(it.cost > prev_cost, "hull costs must strictly increase");
                }
                assert!(
                    it.profit > prev_profit,
                    "hull profits must strictly increase"
                );
                let eff = (it.profit - prev_profit) / (it.cost - prev_cost).max(1) as f64;
                assert!(
                    eff <= prev_eff + 1e-12,
                    "increments must not gain efficiency"
                );
                prev_cost = it.cost;
                prev_profit = it.profit;
                prev_eff = eff;
            }
        },
    );
}

#[test]
fn hull_preserves_the_lp_optimum() {
    for_all(
        "hull_preserves_the_lp_optimum",
        CASES,
        gen_problem,
        check_hull_lp,
    );
}

fn check_hull_lp(p: &MckpProblem) {
    // The hull reduction is exact for the *LP relaxation*: the
    // fractional optimum only ever mixes hull points. (It is NOT
    // exact for the integral optimum — an LP-dominated cheap item
    // can be the only thing that fits a tight budget — which is
    // precisely why the rounding step needs its best-single-item
    // fallback.)
    let mut reduced = MckpProblem::new(p.capacity());
    for class in p.classes() {
        let hull = hull_indices(class);
        reduced.add_class(hull.iter().map(|&i| class[i]));
    }
    let full_lp = MckpLpGreedy.solve_detailed(p).lp_bound;
    let red_lp = MckpLpGreedy.solve_detailed(&reduced).lp_bound;
    assert!(
        (full_lp - red_lp).abs() < 1e-9 * full_lp.abs().max(1.0),
        "full LP {full_lp} vs hull-reduced LP {red_lp}"
    );
    // And the reduced integral optimum can only be ≤ the full one.
    let full = MckpExactDp.solve(p).profit;
    let red = MckpExactDp.solve(&reduced).profit;
    assert!(red <= full + 1e-9, "reduced {red} exceeds full {full}");
}

/// A past failure, kept as a fixed input: one class whose better item
/// (cost 219) is just over the capacity (218).
#[test]
fn saved_problem_passes_every_problem_property() {
    let mut p = MckpProblem::new(218);
    p.add_class(vec![
        MckpItem::new(219, 4.606762642951374),
        MckpItem::new(17, 0.3458735421891765),
    ]);
    check_exact_dp(&p);
    check_lp_greedy(&p);
    for eps in [0.02, 0.3, 0.59] {
        check_fptas(&p, eps);
    }
    check_hull_lp(&p);
}

#[test]
fn zero_one_dp_matches_subset_enumeration() {
    let gen = |r: &mut DetRng| {
        let items = vec_of(r, 0..10, |r| (u64_in(r, 1..25), f64_in(r, 0.0..3.0)));
        (items, u64_in(r, 0..60))
    };
    for_all(
        "zero_one_dp_matches_subset_enumeration",
        CASES,
        gen,
        |(items, cap)| {
            let items: Vec<zero_one::Item> = items
                .iter()
                .map(|&(w, v)| zero_one::Item::new(w, v))
                .collect();
            let cap = *cap;
            let sol = zero_one::solve(&items, cap);
            let mut best = 0.0f64;
            for mask in 0u32..(1 << items.len()) {
                let (mut w, mut v) = (0u64, 0.0);
                for (i, item) in items.iter().enumerate() {
                    if mask >> i & 1 == 1 {
                        w += item.weight;
                        v += item.value;
                    }
                }
                if w <= cap {
                    best = best.max(v);
                }
            }
            assert!((sol.value - best).abs() < 1e-9);
            let w: u64 = sol.chosen.iter().map(|&i| items[i].weight).sum();
            assert!(w <= cap);
            assert_eq!(w, sol.weight);
        },
    );
}

/// Enumerate every choice combination.
fn brute_force(p: &MckpProblem) -> f64 {
    fn rec(p: &MckpProblem, class: usize, cost: u64, profit: f64, best: &mut f64) {
        if cost > p.capacity() {
            return;
        }
        *best = best.max(profit);
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
