//! Exact money arithmetic in integer cents.
//!
//! Ad costs `c_k` and vendor budgets `B_j` are money amounts. Keeping
//! them in integer cents makes budget feasibility checks exact (no
//! floating-point drift when many small costs are summed against a
//! budget) and lets the knapsack solvers run dynamic programs over an
//! integral cost axis.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul, Sub, SubAssign};

/// A non-negative amount of money in integer cents.
///
/// ```
/// use muaa_core::Money;
/// let budget = Money::from_dollars(3.0);
/// let cost = Money::from_cents(200);
/// assert_eq!((budget - cost).as_cents(), 100);
/// assert!(cost <= budget);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Money(u64);

impl Money {
    /// Zero dollars.
    pub const ZERO: Money = Money(0);

    /// Largest representable amount; useful as an "unbounded" budget.
    pub const MAX: Money = Money(u64::MAX);

    /// Construct from an integer number of cents.
    #[inline]
    pub const fn from_cents(cents: u64) -> Self {
        Money(cents)
    }

    /// Construct from a dollar amount, rounding to the nearest cent.
    ///
    /// Negative or non-finite inputs saturate to zero: money amounts in
    /// MUAA (costs, budgets) are non-negative by definition.
    #[inline]
    pub fn from_dollars(dollars: f64) -> Self {
        if !dollars.is_finite() || dollars <= 0.0 {
            return Money::ZERO;
        }
        Money((dollars * 100.0).round() as u64)
    }

    /// The amount in integer cents.
    #[inline]
    pub const fn as_cents(self) -> u64 {
        self.0
    }

    /// The amount in (possibly fractional) dollars.
    #[inline]
    pub fn as_dollars(self) -> f64 {
        self.0 as f64 / 100.0
    }

    /// `true` iff the amount is zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction: `a.saturating_sub(b)` is zero when `b > a`.
    #[inline]
    pub const fn saturating_sub(self, rhs: Money) -> Money {
        Money(self.0.saturating_sub(rhs.0))
    }

    /// Checked subtraction; `None` when `rhs > self`.
    #[inline]
    pub const fn checked_sub(self, rhs: Money) -> Option<Money> {
        match self.0.checked_sub(rhs.0) {
            Some(v) => Some(Money(v)),
            None => None,
        }
    }

    /// The smaller of two amounts.
    #[inline]
    pub fn min(self, other: Money) -> Money {
        Money(self.0.min(other.0))
    }

    /// The larger of two amounts.
    #[inline]
    pub fn max(self, other: Money) -> Money {
        Money(self.0.max(other.0))
    }
}

impl Add for Money {
    type Output = Money;
    #[inline]
    #[expect(clippy::expect_used, reason = "overflow is a caller bug by contract")]
    fn add(self, rhs: Money) -> Money {
        Money(self.0.checked_add(rhs.0).expect("money overflow"))
    }
}

impl AddAssign for Money {
    #[inline]
    fn add_assign(&mut self, rhs: Money) {
        *self = *self + rhs;
    }
}

impl Sub for Money {
    type Output = Money;
    /// Panics on underflow: subtracting a cost larger than the remaining
    /// budget is always a caller bug in this codebase (feasibility is
    /// checked before committing an assignment).
    #[inline]
    #[expect(
        clippy::expect_used,
        reason = "a caller bug, per the doc above; saturating would hide budget-accounting errors"
    )]
    fn sub(self, rhs: Money) -> Money {
        Money(self.0.checked_sub(rhs.0).expect("money underflow"))
    }
}

impl SubAssign for Money {
    #[inline]
    fn sub_assign(&mut self, rhs: Money) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for Money {
    type Output = Money;
    #[inline]
    #[expect(clippy::expect_used, reason = "overflow is a caller bug by contract")]
    fn mul(self, rhs: u64) -> Money {
        Money(self.0.checked_mul(rhs).expect("money overflow"))
    }
}

impl Sum for Money {
    fn sum<I: Iterator<Item = Money>>(iter: I) -> Money {
        iter.fold(Money::ZERO, |acc, m| acc + m)
    }
}

impl fmt::Debug for Money {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Money({})", self.0)
    }
}

impl fmt::Display for Money {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "${}.{:02}", self.0 / 100, self.0 % 100)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_dollars_rounds_to_cents() {
        assert_eq!(Money::from_dollars(1.0).as_cents(), 100);
        assert_eq!(Money::from_dollars(1.006).as_cents(), 101);
        assert_eq!(Money::from_dollars(0.004).as_cents(), 0);
        assert_eq!(Money::from_dollars(2.5).as_cents(), 250);
    }

    #[test]
    fn from_dollars_saturates_bad_input() {
        assert_eq!(Money::from_dollars(-3.0), Money::ZERO);
        assert_eq!(Money::from_dollars(f64::NAN), Money::ZERO);
        assert_eq!(Money::from_dollars(f64::NEG_INFINITY), Money::ZERO);
    }

    #[test]
    fn arithmetic_roundtrip() {
        let a = Money::from_cents(250);
        let b = Money::from_cents(100);
        assert_eq!((a + b).as_cents(), 350);
        assert_eq!((a - b).as_cents(), 150);
        assert_eq!((a * 3).as_cents(), 750);
        assert!((a.as_dollars() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn saturating_and_checked_sub() {
        let a = Money::from_cents(100);
        let b = Money::from_cents(300);
        assert_eq!(a.saturating_sub(b), Money::ZERO);
        assert_eq!(b.saturating_sub(a).as_cents(), 200);
        assert_eq!(a.checked_sub(b), None);
        assert_eq!(b.checked_sub(a), Some(Money::from_cents(200)));
    }

    #[test]
    #[should_panic(expected = "money underflow")]
    fn sub_underflow_panics() {
        let _ = Money::from_cents(1) - Money::from_cents(2);
    }

    #[test]
    fn ordering_and_sum() {
        let v = [
            Money::from_cents(1),
            Money::from_cents(2),
            Money::from_cents(3),
        ];
        assert_eq!(v.iter().copied().sum::<Money>().as_cents(), 6);
        assert!(v[0] < v[1]);
        assert_eq!(v[2].min(v[0]), v[0]);
        assert_eq!(v[2].max(v[0]), v[2]);
    }

    #[test]
    fn display_formats_dollars() {
        assert_eq!(Money::from_cents(1234).to_string(), "$12.34");
        assert_eq!(Money::from_cents(5).to_string(), "$0.05");
        assert_eq!(Money::ZERO.to_string(), "$0.00");
    }
}
