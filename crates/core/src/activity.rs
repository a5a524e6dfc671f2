//! Timestamps and per-tag temporal activity `α_x(φ)`.
//!
//! The paper weights the Pearson correlation of Equation (5) with a
//! per-tag *active level* `α_x(φ)` — e.g. "coffee" is active in the
//! morning, "Chinese food" at lunch and dinner. We model a timestamp as
//! a time of day (the paper folds real check-in timestamps modulo 24 h)
//! and an [`ActivityProfile`] as a piecewise-hourly activity curve per
//! tag.

use crate::error::CoreError;

/// Hours in a day; timestamps live in `[0, 24)`.
pub const HOURS_PER_DAY: f64 = 24.0;

/// A time of day in fractional hours, wrapped into `[0, 24)`.
///
/// The paper observes that for the online algorithm only the *order* of
/// customer arrivals matters; the timestamp additionally drives the
/// temporal activity weights of Equation (5).
#[derive(Clone, Copy, PartialEq, PartialOrd, Debug, Default)]
pub struct Timestamp(f64);

impl Timestamp {
    /// Construct from fractional hours; any finite value is folded into
    /// `[0, 24)` (matching the paper's "modulo the arrival times ... into
    /// 24 hours"). Non-finite input yields midnight.
    pub fn from_hours(hours: f64) -> Self {
        if !hours.is_finite() {
            return Timestamp(0.0);
        }
        Timestamp(hours.rem_euclid(HOURS_PER_DAY))
    }

    /// Construct from seconds since (any) midnight.
    pub fn from_seconds(seconds: f64) -> Self {
        Timestamp::from_hours(seconds / 3600.0)
    }

    /// The time in fractional hours, in `[0, 24)`.
    #[inline]
    pub fn hours(self) -> f64 {
        self.0
    }

    /// The containing hour slot, in `0..24`.
    #[inline]
    pub fn hour_slot(self) -> usize {
        (self.0.floor() as usize).min(23)
    }

    /// Midnight.
    pub const MIDNIGHT: Timestamp = Timestamp(0.0);
}

/// Per-tag, per-hour activity levels `α_x(φ) ∈ [0, 1]`.
///
/// Stored as a dense `24 × tags` matrix of hourly levels, one row per
/// hour, so [`levels_at_slice`](Self::levels_at_slice) reads every tag
/// at a time from two contiguous rows; lookups linearly interpolate
/// between hour slots so that activity varies smoothly over the day.
#[derive(Clone, Debug)]
pub struct ActivityProfile {
    /// `levels[hour * tags + tag]`.
    levels: Vec<f64>,
    tags: usize,
}

impl ActivityProfile {
    /// A profile in which every tag is fully active at all times — this
    /// reduces Equation (5) to the plain (unweighted) Pearson
    /// correlation and is the right default when no temporal data is
    /// available.
    pub fn uniform(tags: usize) -> Self {
        ActivityProfile {
            levels: vec![1.0; tags * 24],
            tags,
        }
    }

    /// Build from explicit per-tag hourly curves. Each inner slice must
    /// have exactly 24 entries in `[0, 1]`.
    pub fn from_hourly(curves: &[Vec<f64>]) -> Result<Self, CoreError> {
        let tags = curves.len();
        let mut levels = vec![0.0; tags * 24];
        for (tag, curve) in curves.iter().enumerate() {
            if curve.len() != 24 {
                return Err(CoreError::InvalidActivityCurve {
                    tag,
                    reason: format!("expected 24 hourly levels, got {}", curve.len()),
                });
            }
            for (hour, &lvl) in curve.iter().enumerate() {
                if !lvl.is_finite() || !(0.0..=1.0).contains(&lvl) {
                    return Err(CoreError::InvalidActivityCurve {
                        tag,
                        reason: format!("activity level {lvl} outside [0,1]"),
                    });
                }
                levels[hour * tags + tag] = lvl;
            }
        }
        Ok(ActivityProfile { levels, tags })
    }

    /// The levels of every tag at `hour`.
    #[inline]
    fn hour_row(&self, hour: usize) -> &[f64] {
        &self.levels[hour * self.tags..(hour + 1) * self.tags]
    }

    /// Number of tags covered.
    #[inline]
    pub fn tags(&self) -> usize {
        self.tags
    }

    /// Activity level of `tag` at time `at`, linearly interpolated
    /// between hourly samples (wrapping around midnight).
    pub fn level(&self, tag: usize, at: Timestamp) -> f64 {
        debug_assert!(tag < self.tags, "tag {tag} out of range ({})", self.tags);
        let h = at.hours();
        let lo = h.floor() as usize % 24;
        let hi = (lo + 1) % 24;
        let frac = h - h.floor();
        let a = self.levels[lo * self.tags + tag];
        let b = self.levels[hi * self.tags + tag];
        a + (b - a) * frac
    }

    /// Fill `out` with the activity level of every tag at time `at`.
    /// `out` is resized to the number of tags.
    pub fn levels_at(&self, at: Timestamp, out: &mut Vec<f64>) {
        out.clear();
        out.resize(self.tags, 0.0);
        self.levels_at_slice(at, out);
    }

    /// Scratch-free sibling of [`levels_at`](Self::levels_at): write the
    /// per-tag activity levels at time `at` into a caller-owned buffer
    /// (stack array or reusable `Vec`) of length exactly
    /// [`tags`](Self::tags). The interpolation factors are hoisted out
    /// of the per-tag loop, the two hour rows are read front to back,
    /// and each written value is bit-identical to the corresponding
    /// [`level`](Self::level) call.
    pub fn levels_at_slice(&self, at: Timestamp, out: &mut [f64]) {
        assert_eq!(
            out.len(),
            self.tags,
            "levels_at_slice buffer length must equal the tag count"
        );
        let h = at.hours();
        let lo = h.floor() as usize % 24;
        let hi = (lo + 1) % 24;
        let frac = h - h.floor();
        let rows = self.hour_row(lo).iter().zip(self.hour_row(hi));
        for (slot, (&a, &b)) in out.iter_mut().zip(rows) {
            *slot = a + (b - a) * frac;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timestamp_wraps_into_day() {
        assert!((Timestamp::from_hours(25.5).hours() - 1.5).abs() < 1e-12);
        assert!((Timestamp::from_hours(-1.0).hours() - 23.0).abs() < 1e-12);
        assert_eq!(Timestamp::from_hours(f64::NAN).hours(), 0.0);
        assert_eq!(Timestamp::from_seconds(3600.0).hours(), 1.0);
    }

    #[test]
    fn hour_slot_is_clamped() {
        assert_eq!(Timestamp::from_hours(5.9).hour_slot(), 5);
        assert_eq!(Timestamp::from_hours(23.999).hour_slot(), 23);
        assert_eq!(Timestamp::MIDNIGHT.hour_slot(), 0);
    }

    #[test]
    fn uniform_profile_is_all_ones() {
        let p = ActivityProfile::uniform(3);
        for tag in 0..3 {
            assert_eq!(p.level(tag, Timestamp::from_hours(13.37)), 1.0);
        }
    }

    #[test]
    fn from_hourly_validates() {
        assert!(ActivityProfile::from_hourly(&[vec![0.5; 23]]).is_err());
        assert!(ActivityProfile::from_hourly(&[vec![1.5; 24]]).is_err());
        assert!(ActivityProfile::from_hourly(&[vec![0.5; 24]]).is_ok());
    }

    #[test]
    fn level_interpolates_between_hours() {
        let mut curve = vec![0.0; 24];
        curve[6] = 0.0;
        curve[7] = 1.0;
        let p = ActivityProfile::from_hourly(&[curve]).unwrap();
        assert!((p.level(0, Timestamp::from_hours(6.5)) - 0.5).abs() < 1e-12);
        assert!((p.level(0, Timestamp::from_hours(6.25)) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn level_wraps_around_midnight() {
        let mut curve = vec![0.0; 24];
        curve[23] = 1.0;
        curve[0] = 0.0;
        let p = ActivityProfile::from_hourly(&[curve]).unwrap();
        assert!((p.level(0, Timestamp::from_hours(23.5)) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn levels_at_fills_all_tags() {
        let p = ActivityProfile::uniform(4);
        let mut out = Vec::new();
        p.levels_at(Timestamp::MIDNIGHT, &mut out);
        assert_eq!(out, vec![1.0; 4]);
    }

    #[test]
    fn levels_at_slice_matches_per_tag_level_exactly() {
        let curves: Vec<Vec<f64>> = (0..5)
            .map(|t| {
                (0..24)
                    .map(|h| ((h * (t + 1)) % 24) as f64 / 23.0)
                    .collect()
            })
            .collect();
        let p = ActivityProfile::from_hourly(&curves).unwrap();
        // On the hour, every tag reads its own curve back.
        for (tag, curve) in curves.iter().enumerate() {
            for (hour, &lvl) in curve.iter().enumerate() {
                let at = Timestamp::from_hours(hour as f64);
                assert_eq!(p.level(tag, at).to_bits(), lvl.to_bits());
            }
        }
        let mut buf = [0.0; 5];
        for at in [0.0, 6.25, 13.37, 23.75] {
            let ts = Timestamp::from_hours(at);
            p.levels_at_slice(ts, &mut buf);
            for (tag, &got) in buf.iter().enumerate() {
                assert_eq!(got.to_bits(), p.level(tag, ts).to_bits());
            }
        }
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn levels_at_slice_rejects_wrong_length() {
        let p = ActivityProfile::uniform(3);
        let mut buf = [0.0; 2];
        p.levels_at_slice(Timestamp::MIDNIGHT, &mut buf);
    }
}
