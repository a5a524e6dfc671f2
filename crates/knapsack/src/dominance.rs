//! Per-class dominance reduction for MCKP.
//!
//! The LP relaxation of MCKP only ever uses the items on the *upper
//! convex hull* of each class's (cost, profit) point set, with the null
//! choice `(0, 0)` as the hull's base point:
//!
//! * an item is **dominated** when another item costs no more and
//!   profits at least as much;
//! * an item is **LP-dominated** when a convex combination of two other
//!   items (possibly the null choice) beats it.
//!
//! [`hull_indices`] removes both kinds and returns the surviving item
//! indices in increasing cost order, so incremental efficiencies are
//! strictly decreasing along the hull — the property the greedy LP
//! solver relies on.

use crate::problem::MckpItem;

/// Indices of the items on the upper convex hull of `(cost, profit)`
/// with the implicit `(0, 0)` null item as base, sorted by increasing
/// cost. Items with zero profit (no better than null) never appear;
/// among items of equal cost only the most profitable (lowest index on
/// ties) survives.
pub fn hull_indices(items: &[MckpItem]) -> Vec<usize> {
    hull_into(items, &mut HullScratch::default())
        .iter()
        .map(|&(_, _, i)| i)
        .collect()
}

/// Buffers [`hull_into`] reuses from one class to the next, so a solve
/// over many classes allocates them once.
#[derive(Debug, Default)]
pub(crate) struct HullScratch {
    /// Item indices in `(cost asc, profit desc, index asc)` order.
    order: Vec<usize>,
    /// Hull entries `(cost, profit, original index)`, the virtual
    /// `(0, 0)` base first.
    hull: Vec<(u64, f64, usize)>,
}

/// The hull of [`hull_indices`] as `(cost, profit, index)` entries in
/// increasing cost order, built in `scratch`.
pub(crate) fn hull_into<'s>(
    items: &[MckpItem],
    scratch: &'s mut HullScratch,
) -> &'s [(u64, f64, usize)] {
    // Sort by (cost asc, profit desc, index asc). Strictly ascending
    // costs are that order already: a RECON class whose instance lists
    // its ad types by ascending cost, as the built-in tables do.
    let order = &mut scratch.order;
    order.clear();
    order.extend(0..items.len());
    if !items.windows(2).all(|w| w[0].cost < w[1].cost) {
        order.sort_by(|&a, &b| {
            items[a]
                .cost
                .cmp(&items[b].cost)
                .then(items[b].profit.total_cmp(&items[a].profit))
                .then(a.cmp(&b))
        });
    }

    // Monotone chain over (cost, profit), starting at the virtual
    // (0, 0) point. Keep only strictly-improving profits, then enforce
    // concavity of the efficiency sequence.
    // The virtual base is represented by cost = 0, profit = 0,
    // index = usize::MAX; nothing below pops it.
    let hull = &mut scratch.hull;
    hull.clear();
    hull.push((0, 0.0, usize::MAX));
    for &i in order.iter() {
        let it = items[i];
        if it.profit <= 0.0 || it.profit.is_nan() {
            continue; // never better than the null choice
        }
        // Skip if not strictly more profitable than the current top
        // (same or higher cost with no profit gain = dominated).
        if it.profit <= hull.last().expect("non-empty").1 {
            continue;
        }
        // Equal cost to current top but more profit: replace (can only
        // happen via the virtual base at cost 0).
        // Pop while the new point makes the previous hull point concave
        // (LP-dominated): slope(prev2→prev) <= slope(prev→new).
        while hull.len() >= 2 {
            let (c1, p1, _) = hull[hull.len() - 2];
            let (c2, p2, _) = hull[hull.len() - 1];
            let (c3, p3) = (it.cost, it.profit);
            // All costs strictly increase along the hull except possibly
            // a zero-cost first item; use cross-product form to avoid
            // division.
            let lhs = (p2 - p1) * (c3 - c2) as f64;
            let rhs = (p3 - p2) * (c2 - c1) as f64;
            if lhs <= rhs {
                hull.pop();
            } else {
                break;
            }
        }
        // If the new item has the same cost as the hull top (and more
        // profit, per the check above), drop the top.
        if let Some(&(tc, _, ti)) = hull.last() {
            if tc == it.cost && ti != usize::MAX {
                hull.pop();
            }
        }
        hull.push((it.cost, it.profit, i));
    }
    &hull[1..]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn items(spec: &[(u64, f64)]) -> Vec<MckpItem> {
        spec.iter().map(|&(c, p)| MckpItem::new(c, p)).collect()
    }

    #[test]
    fn keeps_all_of_a_clean_hull() {
        // Decreasing incremental efficiency: (1,1), (2,1.8), (3,2.4).
        let its = items(&[(100, 1.0), (200, 1.8), (300, 2.4)]);
        assert_eq!(hull_indices(&its), vec![0, 1, 2]);
    }

    #[test]
    fn removes_dominated_items() {
        // Item 1 costs more but profits less than item 0.
        let its = items(&[(100, 2.0), (200, 1.5)]);
        assert_eq!(hull_indices(&its), vec![0]);
    }

    #[test]
    fn removes_lp_dominated_items() {
        // (2, 1.0) is beaten by mixing null and (4, 3.0):
        // at cost 2 the mix yields profit 1.5 > 1.0.
        let its = items(&[(200, 1.0), (400, 3.0)]);
        assert_eq!(hull_indices(&its), vec![1]);
    }

    #[test]
    fn zero_profit_items_vanish() {
        let its = items(&[(100, 0.0), (200, 0.0)]);
        assert!(hull_indices(&its).is_empty());
    }

    #[test]
    fn equal_cost_keeps_most_profitable() {
        let its = items(&[(100, 1.0), (100, 2.0), (100, 1.5)]);
        assert_eq!(hull_indices(&its), vec![1]);
    }

    #[test]
    fn efficiencies_strictly_decrease_along_hull() {
        let its = items(&[
            (100, 0.9),
            (150, 1.0),
            (200, 1.9),
            (250, 1.95),
            (400, 2.5),
            (500, 2.4),
        ]);
        let hull = hull_indices(&its);
        // Check the decreasing-increment property with the (0,0) base.
        let mut prev = (0u64, 0.0f64);
        let mut prev_eff = f64::INFINITY;
        for &i in &hull {
            let it = its[i];
            let eff = (it.profit - prev.1) / (it.cost - prev.0) as f64;
            assert!(eff < prev_eff + 1e-12, "hull increments must decrease");
            assert!(eff > 0.0);
            prev = (it.cost, it.profit);
            prev_eff = eff;
        }
        assert!(!hull.is_empty());
    }

    #[test]
    fn empty_class_yields_empty_hull() {
        assert!(hull_indices(&[]).is_empty());
    }
}
