//! Tag vectors `ψ` over the tag universe `Ψ = {g_1, …, g_w}`.
//!
//! Every customer and vendor carries a vector of per-tag scores in
//! `[0, 1]` (Definitions 1 and 2). The vector length is the size of the
//! tag universe and must agree across every entity in a problem
//! instance; [`crate::InstanceBuilder`] enforces this.

use crate::error::CoreError;
use std::ops::Index;

/// A per-tag score vector with entries in `[0, 1]`.
#[derive(PartialEq, Debug, Default)]
pub struct TagVector {
    scores: Vec<f64>,
}

impl Clone for TagVector {
    fn clone(&self) -> Self {
        TagVector {
            scores: self.scores.clone(),
        }
    }

    /// Copy `source`'s scores into this vector's buffer, which a
    /// `Delta::VendorTags` over a fixed tag universe always fits: the
    /// derive would allocate a fresh one.
    fn clone_from(&mut self, source: &Self) {
        self.scores.clone_from(&source.scores);
    }
}

impl TagVector {
    /// Build a tag vector, validating every entry is finite and within
    /// `[0, 1]`.
    pub fn new(scores: Vec<f64>) -> Result<Self, CoreError> {
        for (idx, &s) in scores.iter().enumerate() {
            if !s.is_finite() || !(0.0..=1.0).contains(&s) {
                return Err(CoreError::InvalidTagScore {
                    index: idx,
                    value: s,
                });
            }
        }
        Ok(TagVector { scores })
    }

    /// Build a tag vector without validation.
    ///
    /// Intended for generators that construct scores already known to be
    /// valid; debug builds still assert the invariant.
    pub fn new_unchecked(scores: Vec<f64>) -> Self {
        debug_assert!(
            scores
                .iter()
                .all(|s| s.is_finite() && (0.0..=1.0).contains(s)),
            "tag scores out of [0,1]"
        );
        TagVector { scores }
    }

    /// An all-zero vector over `len` tags.
    pub fn zeros(len: usize) -> Self {
        TagVector {
            scores: vec![0.0; len],
        }
    }

    /// A one-hot vector: score 1 for `tag`, 0 elsewhere — the paper's
    /// fallback for vendors whose only known information is their
    /// category ("we can simply set ψ_j^{(k)} = 1 if the vendor has been
    /// classified into category g_k").
    pub fn one_hot(len: usize, tag: usize) -> Result<Self, CoreError> {
        if tag >= len {
            return Err(CoreError::TagIndexOutOfRange { index: tag, len });
        }
        let mut scores = vec![0.0; len];
        scores[tag] = 1.0;
        Ok(TagVector { scores })
    }

    /// Number of tags in the universe this vector is defined over.
    #[inline]
    pub fn len(&self) -> usize {
        self.scores.len()
    }

    /// `true` iff the tag universe is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.scores.is_empty()
    }

    /// The underlying scores.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.scores
    }

    /// Iterate over `(tag index, score)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.scores.iter().copied().enumerate()
    }

    /// Sum of all scores.
    pub fn total(&self) -> f64 {
        self.scores.iter().sum()
    }

    /// Rescale so the maximum entry becomes 1 (no-op for the zero
    /// vector). Useful after additive score propagation, which can
    /// produce arbitrary positive magnitudes.
    pub fn normalized_to_unit_max(&self) -> TagVector {
        let max = self.scores.iter().copied().fold(0.0_f64, f64::max);
        if max <= 0.0 {
            return self.clone();
        }
        TagVector {
            scores: self.scores.iter().map(|s| s / max).collect(),
        }
    }
}

impl Index<usize> for TagVector {
    type Output = f64;
    #[inline]
    fn index(&self, idx: usize) -> &f64 {
        &self.scores[idx]
    }
}

impl<'a> IntoIterator for &'a TagVector {
    type Item = &'a f64;
    type IntoIter = std::slice::Iter<'a, f64>;
    fn into_iter(self) -> Self::IntoIter {
        self.scores.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_validates_range() {
        assert!(TagVector::new(vec![0.0, 0.5, 1.0]).is_ok());
        assert!(matches!(
            TagVector::new(vec![0.0, 1.5]),
            Err(CoreError::InvalidTagScore { index: 1, .. })
        ));
        assert!(TagVector::new(vec![-0.1]).is_err());
        assert!(TagVector::new(vec![f64::NAN]).is_err());
    }

    #[test]
    fn one_hot_sets_single_tag() {
        let v = TagVector::one_hot(4, 2).unwrap();
        assert_eq!(v.as_slice(), &[0.0, 0.0, 1.0, 0.0]);
        assert!(TagVector::one_hot(4, 4).is_err());
    }

    #[test]
    fn zeros_and_total() {
        let v = TagVector::zeros(3);
        assert_eq!(v.len(), 3);
        assert_eq!(v.total(), 0.0);
        let w = TagVector::new(vec![0.25, 0.5]).unwrap();
        assert!((w.total() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn normalization_scales_max_to_one() {
        let v = TagVector::new(vec![0.2, 0.4])
            .unwrap()
            .normalized_to_unit_max();
        assert!((v[1] - 1.0).abs() < 1e-12);
        assert!((v[0] - 0.5).abs() < 1e-12);
        // zero vector is left alone
        let z = TagVector::zeros(2).normalized_to_unit_max();
        assert_eq!(z.as_slice(), &[0.0, 0.0]);
    }

    #[test]
    fn iteration_yields_indexed_scores() {
        let v = TagVector::new(vec![0.1, 0.9]).unwrap();
        let pairs: Vec<_> = v.iter().collect();
        assert_eq!(pairs, vec![(0, 0.1), (1, 0.9)]);
    }
}
