//! MCKP problem representation and the solver trait.

/// One item of an MCKP class: an (ad type) choice with an integral cost
/// in cents and a real-valued profit (utility).
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct MckpItem {
    /// Cost in integer cents.
    pub cost: u64,
    /// Profit (utility `λ`); must be finite and non-negative.
    pub profit: f64,
}

impl MckpItem {
    /// Construct an item.
    pub fn new(cost: u64, profit: f64) -> Self {
        debug_assert!(
            profit.is_finite() && profit >= 0.0,
            "profit must be finite and >= 0"
        );
        MckpItem { cost, profit }
    }

    /// Efficiency (profit per cent); `+inf` for zero-cost items with
    /// positive profit.
    pub fn efficiency(&self) -> f64 {
        if self.cost == 0 {
            if self.profit > 0.0 {
                f64::INFINITY
            } else {
                0.0
            }
        } else {
            self.profit / self.cost as f64
        }
    }
}

/// A multi-choice knapsack problem: pick at most one item from each
/// class, total cost ≤ capacity, maximize total profit.
///
/// Choosing *nothing* from a class is always allowed (in MUAA a vendor
/// may simply not advertise to a customer), so the implicit `(0, 0)`
/// null item is part of every class.
///
/// The classes live in one flat item buffer with an end offset per
/// class, so a problem of any size holds two allocations, not one per
/// class.
#[derive(Clone, Debug, Default)]
pub struct MckpProblem {
    /// Every class's items, back to back.
    items: Vec<MckpItem>,
    /// `ends[k]` is one past class `k`'s last item in `items`.
    ends: Vec<usize>,
    capacity: u64,
}

impl MckpProblem {
    /// Create a problem with the given capacity (budget in cents).
    pub fn new(capacity: u64) -> Self {
        MckpProblem {
            items: Vec::new(),
            ends: Vec::new(),
            capacity,
        }
    }

    /// Add a class of items; returns its index. Items with zero profit
    /// are kept (solvers will simply never pick them over the null
    /// choice unless free).
    pub fn add_class(&mut self, items: impl IntoIterator<Item = MckpItem>) -> usize {
        let start = self.items.len();
        self.items.extend(items);
        debug_assert!(
            self.items[start..]
                .iter()
                .all(|i| i.profit.is_finite() && i.profit >= 0.0),
            "item profits must be finite and non-negative"
        );
        self.ends.push(self.items.len());
        self.ends.len() - 1
    }

    /// The items of class `k`.
    pub fn class(&self, k: usize) -> &[MckpItem] {
        let start = if k == 0 { 0 } else { self.ends[k - 1] };
        &self.items[start..self.ends[k]]
    }

    /// The classes, in index order.
    pub fn classes(&self) -> impl ExactSizeIterator<Item = &[MckpItem]> + DoubleEndedIterator {
        (0..self.num_classes()).map(move |k| self.class(k))
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.ends.len()
    }

    /// The capacity (budget) in cents.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Sum of each class's maximum profit — an (unreachable in general)
    /// upper bound used for scaling.
    pub fn profit_upper_bound(&self) -> f64 {
        self.classes()
            .map(|c| c.iter().map(|i| i.profit).fold(0.0_f64, f64::max))
            .sum()
    }
}

/// A solution: one optional item choice per class.
#[derive(Clone, Debug, PartialEq)]
pub struct MckpSolution {
    /// `choices[class]` is `Some(item index)` or `None` (null choice).
    pub choices: Vec<Option<usize>>,
    /// Total profit of the chosen items.
    pub profit: f64,
    /// Total cost of the chosen items, in cents.
    pub cost: u64,
}

impl MckpSolution {
    /// The empty solution for `problem`.
    pub fn empty(problem: &MckpProblem) -> Self {
        MckpSolution {
            choices: vec![None; problem.num_classes()],
            profit: 0.0,
            cost: 0,
        }
    }

    /// Recompute profit/cost from the choices and verify feasibility
    /// against `problem`; returns `false` on any inconsistency.
    pub fn validate(&self, problem: &MckpProblem) -> bool {
        if self.choices.len() != problem.num_classes() {
            return false;
        }
        let mut profit = 0.0;
        let mut cost: u64 = 0;
        for (class, choice) in problem.classes().zip(&self.choices) {
            if let Some(idx) = *choice {
                let Some(item) = class.get(idx) else {
                    return false;
                };
                profit += item.profit;
                cost += item.cost;
            }
        }
        cost <= problem.capacity()
            && cost == self.cost
            && (profit - self.profit).abs() <= 1e-9 * profit.abs().max(1.0)
    }

    /// Iterate over `(class, item)` picks.
    pub fn picks(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.choices
            .iter()
            .enumerate()
            .filter_map(|(c, ch)| ch.map(|i| (c, i)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn item_efficiency() {
        assert_eq!(MckpItem::new(100, 2.0).efficiency(), 0.02);
        assert_eq!(MckpItem::new(0, 1.0).efficiency(), f64::INFINITY);
        assert_eq!(MckpItem::new(0, 0.0).efficiency(), 0.0);
    }

    #[test]
    fn problem_accumulates_classes() {
        let mut p = MckpProblem::new(500);
        let a = p.add_class(vec![MckpItem::new(100, 1.0)]);
        let b = p.add_class(vec![MckpItem::new(200, 3.0), MckpItem::new(100, 0.5)]);
        assert_eq!((a, b), (0, 1));
        assert_eq!(p.num_classes(), 2);
        assert_eq!(p.capacity(), 500);
        assert!((p.profit_upper_bound() - 4.0).abs() < 1e-12);
        // Flat storage keeps each class's items in order, empty classes
        // included.
        let c = p.add_class([]);
        assert_eq!(c, 2);
        assert_eq!(
            p.class(1),
            &[MckpItem::new(200, 3.0), MckpItem::new(100, 0.5)]
        );
        assert!(p.class(2).is_empty());
        let lens: Vec<usize> = p.classes().map(<[MckpItem]>::len).collect();
        assert_eq!(lens, vec![1, 2, 0]);
    }

    #[test]
    fn solution_validation() {
        let mut p = MckpProblem::new(250);
        p.add_class(vec![MckpItem::new(100, 1.0), MckpItem::new(200, 2.5)]);
        p.add_class(vec![MckpItem::new(100, 0.75)]);

        let ok = MckpSolution {
            choices: vec![Some(0), Some(0)],
            profit: 1.75,
            cost: 200,
        };
        assert!(ok.validate(&p));
        assert_eq!(ok.picks().collect::<Vec<_>>(), vec![(0, 0), (1, 0)]);

        // Over capacity.
        let over = MckpSolution {
            choices: vec![Some(1), Some(0)],
            profit: 3.25,
            cost: 300,
        };
        assert!(!over.validate(&p));

        // Wrong bookkeeping.
        let lies = MckpSolution {
            choices: vec![Some(0), None],
            profit: 99.0,
            cost: 100,
        };
        assert!(!lies.validate(&p));

        // Dangling item index.
        let dangling = MckpSolution {
            choices: vec![Some(7), None],
            profit: 0.0,
            cost: 0,
        };
        assert!(!dangling.validate(&p));

        let empty = MckpSolution::empty(&p);
        assert!(empty.validate(&p));
    }
}
