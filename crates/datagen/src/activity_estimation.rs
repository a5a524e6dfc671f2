//! Estimating per-tag activity curves `α_x(φ)` from observed events.
//!
//! The paper posits that tag activity levels ("coffee is active in the
//! mornings") exist as an input; in a deployed system they must be
//! *learned* from timestamped check-ins. This module turns a log of
//! `(tag, timestamp)` events into an [`ActivityProfile`]:
//!
//! 1. count events per (tag, hour slot);
//! 2. propagate counts up the taxonomy (a ramen check-in is evidence
//!    that "Food" is active too), with the same `κ/(sib+1)` decay as
//!    the Eq. 3 interest propagation;
//! 3. smooth each 24-slot histogram with a circular moving average and
//!    add-`β` smoothing so unobserved hours get a small floor;
//! 4. max-normalise each tag's curve into `[0, 1]`.
//!
//! Tags with no (direct or propagated) evidence fall back to an
//! all-active curve — a neutral choice that reduces Eq. 5 to the plain
//! Pearson correlation for those tags.

use muaa_core::{ActivityProfile, Timestamp};
use muaa_taxonomy::{TagId, Taxonomy};

/// Tuning knobs for [`estimate_activity`].
#[derive(Clone, Copy, Debug)]
pub struct ActivityEstimation {
    /// Ancestor-propagation factor (0 disables propagation).
    pub propagation: f64,
    /// Additive smoothing mass per hour slot.
    pub smoothing: f64,
    /// Half-width of the circular moving-average window (0 = off).
    pub window: usize,
}

impl Default for ActivityEstimation {
    fn default() -> Self {
        ActivityEstimation {
            propagation: 0.5,
            smoothing: 0.1,
            window: 1,
        }
    }
}

/// Estimate per-tag hourly activity from `(tag, time)` events.
pub fn estimate_activity(
    taxonomy: &Taxonomy,
    events: impl IntoIterator<Item = (TagId, Timestamp)>,
    config: ActivityEstimation,
) -> ActivityProfile {
    assert!(
        (0.0..=1.0).contains(&config.propagation),
        "propagation must be in [0,1]"
    );
    assert!(config.smoothing >= 0.0, "smoothing must be non-negative");
    let tags = taxonomy.len();
    let mut counts = vec![0.0_f64; tags * 24];

    for (tag, at) in events {
        assert!(tag.index() < tags, "event tag {tag} outside the taxonomy");
        let hour = at.hour_slot();
        // Direct evidence plus decayed evidence for every ancestor.
        let mut weight = 1.0;
        let mut cursor = Some(tag);
        while let Some(t) = cursor {
            counts[t.index() * 24 + hour] += weight;
            let parent = taxonomy.parent(t);
            if config.propagation == 0.0 {
                break;
            }
            weight *= config.propagation / (taxonomy.siblings(t) as f64 + 1.0);
            cursor = parent;
            if weight < 1e-9 {
                break;
            }
        }
    }

    let curves: Vec<Vec<f64>> = (0..tags)
        .map(|t| {
            let raw = &counts[t * 24..(t + 1) * 24];
            if raw.iter().all(|&c| c == 0.0) {
                return vec![1.0; 24]; // no evidence → neutral
            }
            // Circular moving average + additive smoothing.
            let smoothed: Vec<f64> = (0..24)
                .map(|h| {
                    let w = config.window as isize;
                    let mut acc = 0.0;
                    for dh in -w..=w {
                        let idx = (h as isize + dh).rem_euclid(24) as usize;
                        acc += raw[idx];
                    }
                    acc / (2 * w + 1) as f64 + config.smoothing
                })
                .collect();
            let max = smoothed.iter().copied().fold(0.0_f64, f64::max);
            smoothed
                .into_iter()
                .map(|v| (v / max).clamp(0.0, 1.0))
                .collect()
        })
        .collect();

    ActivityProfile::from_hourly(&curves).expect("curves are normalised into [0,1]")
}

#[cfg(test)]
mod tests {
    use super::*;
    use muaa_taxonomy::TaxonomyBuilder;

    fn taxonomy() -> (Taxonomy, TagId, TagId, TagId) {
        let mut b = TaxonomyBuilder::new();
        let food = b.root("Food").unwrap();
        let cafe = b.child(food, "Cafe").unwrap();
        let bar = b.root("Bar").unwrap();
        (b.build(), food, cafe, bar)
    }

    fn events_at(tag: TagId, hours: &[f64]) -> Vec<(TagId, Timestamp)> {
        hours
            .iter()
            .map(|&h| (tag, Timestamp::from_hours(h)))
            .collect()
    }

    #[test]
    fn recovers_a_morning_peak() {
        let (tax, _food, cafe, bar) = taxonomy();
        let mut events = events_at(cafe, &[8.2, 8.5, 8.9, 9.1, 8.3, 8.7]);
        events.extend(events_at(bar, &[22.0, 23.0, 22.5]));
        let profile = estimate_activity(&tax, events, ActivityEstimation::default());
        // Café: morning ≫ night.
        assert!(
            profile.level(cafe.index(), Timestamp::from_hours(8.5))
                > profile.level(cafe.index(), Timestamp::from_hours(22.5)) * 2.0
        );
        // Bar: night ≫ morning.
        assert!(
            profile.level(bar.index(), Timestamp::from_hours(22.5))
                > profile.level(bar.index(), Timestamp::from_hours(8.5)) * 2.0
        );
    }

    #[test]
    fn evidence_propagates_to_ancestors() {
        let (tax, food, cafe, _bar) = taxonomy();
        let events = events_at(cafe, &[8.0; 10]);
        let profile = estimate_activity(&tax, events, ActivityEstimation::default());
        // Food inherited the café's morning signal.
        assert!(
            profile.level(food.index(), Timestamp::from_hours(8.5))
                > profile.level(food.index(), Timestamp::from_hours(15.0))
        );
    }

    #[test]
    fn propagation_can_be_disabled() {
        let (tax, food, cafe, _bar) = taxonomy();
        let events = events_at(cafe, &[8.0; 10]);
        let cfg = ActivityEstimation {
            propagation: 0.0,
            ..Default::default()
        };
        let profile = estimate_activity(&tax, events, cfg);
        // Food got no evidence → neutral all-ones curve.
        assert_eq!(profile.level(food.index(), Timestamp::from_hours(3.0)), 1.0);
        assert_eq!(
            profile.level(food.index(), Timestamp::from_hours(15.0)),
            1.0
        );
    }

    #[test]
    fn unobserved_tags_default_to_neutral() {
        let (tax, _food, cafe, bar) = taxonomy();
        let events = events_at(cafe, &[8.0]);
        let profile = estimate_activity(&tax, events, ActivityEstimation::default());
        assert_eq!(profile.level(bar.index(), Timestamp::from_hours(4.0)), 1.0);
    }

    #[test]
    fn smoothing_spreads_to_adjacent_hours() {
        let (tax, _food, cafe, _bar) = taxonomy();
        let events = events_at(cafe, &[12.5; 8]);
        let profile = estimate_activity(
            &tax,
            events,
            ActivityEstimation {
                window: 1,
                ..Default::default()
            },
        );
        // Neighbours of the peak hour see a substantial level; far hours
        // only the smoothing floor.
        let peak = profile.level(cafe.index(), Timestamp::from_hours(12.5));
        let near = profile.level(cafe.index(), Timestamp::from_hours(13.5));
        let far = profile.level(cafe.index(), Timestamp::from_hours(3.0));
        assert!((peak - 1.0).abs() < 1e-9);
        assert!(near > far * 2.0, "near {near} far {far}");
    }

    #[test]
    fn curves_are_valid_activity_levels() {
        let (tax, _food, cafe, bar) = taxonomy();
        let mut events = events_at(cafe, &[1.0, 5.0, 9.0, 13.0]);
        events.extend(events_at(bar, &[2.0, 2.1, 2.2]));
        let profile = estimate_activity(&tax, events, ActivityEstimation::default());
        for tag in tax.tags() {
            for h in 0..24 {
                let l = profile.level(tag.index(), Timestamp::from_hours(h as f64 + 0.5));
                assert!((0.0..=1.0).contains(&l));
            }
        }
    }

    #[test]
    #[should_panic(expected = "outside the taxonomy")]
    fn rejects_foreign_tags() {
        let (tax, ..) = taxonomy();
        let _ = estimate_activity(
            &tax,
            vec![(TagId(99), Timestamp::MIDNIGHT)],
            ActivityEstimation::default(),
        );
    }
}
