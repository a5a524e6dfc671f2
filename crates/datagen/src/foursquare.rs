//! A Foursquare-like check-in simulator.
//!
//! The paper's "real data" experiments run on a Tokyo check-in dataset
//! (users × venues × timestamps, each venue carrying a category from
//! the Foursquare taxonomy). That dataset is proprietary, so this
//! module synthesises a check-in log with the structural properties
//! the MUAA algorithms are sensitive to (DESIGN.md §5):
//!
//! * **Skewed venue popularity** — venues draw check-ins Zipf-style;
//! * **Clustered geography** — venues concentrate in a handful of
//!   districts mapped into `[0,1]²`, and a check-in's customer stands
//!   near the venue;
//! * **Per-category diurnal activity** — cafés in the morning, bars at
//!   night, offices in business hours; check-in timestamps are sampled
//!   from the venue category's curve and also drive the
//!   [`ActivityProfile`] used by the Pearson utility;
//! * **Heterogeneous user tastes** — each user favours a few leaf
//!   categories; their interest vector is derived from their own
//!   simulated check-in history via the paper's Eq. 1–3
//!   ([`InterestModel`]).
//!
//! Following the paper's preprocessing, **each check-in becomes one
//! customer** (same user at different timestamps = different
//! customers) and **each venue becomes one vendor**.

use crate::dist::{paper_range_sample, sample_hour, Zipf};
use crate::synthetic::Range;
use muaa_core::DetRng;
use muaa_core::{
    ActivityProfile, Customer, InstanceBuilder, Money, PearsonUtility, Point, ProblemInstance,
    TagVector, Timestamp, Vendor,
};
use muaa_taxonomy::{foursquare_like, InterestModel, TagId, Taxonomy};

/// Configuration of the check-in simulator.
#[derive(Clone, Debug)]
pub struct FoursquareConfig {
    /// Number of check-ins to simulate (= number of customers).
    pub checkins: usize,
    /// Number of venues (= number of vendors before filtering).
    pub venues: usize,
    /// Number of distinct users behind the check-ins.
    pub users: usize,
    /// Number of geographic districts venues cluster into.
    pub districts: usize,
    /// Zipf exponent of venue popularity.
    pub popularity_skew: f64,
    /// Vendor budget range `[B⁻, B⁺]` in dollars.
    pub budget: Range,
    /// Vendor radius range `[r⁻, r⁺]`.
    pub radius: Range,
    /// Customer capacity range `[a⁻, a⁺]`.
    pub capacity: Range,
    /// View probability range `[p⁻, p⁺]`.
    pub view_probability: Range,
    /// Keep only venues with at least this many check-ins (the paper
    /// keeps venues with ≥ 10 check-ins). Set to 0 to keep all.
    pub min_checkins_per_venue: u32,
    /// Ad types.
    pub ad_types: Vec<muaa_core::AdType>,
    /// RNG seed ([`DetRng`] stream — the generated instance is
    /// byte-identical on every platform and toolchain).
    pub seed: u64,
}

impl Default for FoursquareConfig {
    fn default() -> Self {
        FoursquareConfig {
            checkins: 10_000,
            venues: 500,
            users: 400,
            districts: 12,
            popularity_skew: 0.8,
            budget: Range::new(10.0, 20.0),
            radius: Range::new(0.02, 0.03),
            capacity: Range::new(1.0, 5.0),
            view_probability: Range::new(0.1, 0.5),
            min_checkins_per_venue: 0,
            ad_types: crate::adtypes::adwords_like(),
            seed: 0xF5,
        }
    }
}

/// The simulator output: a problem instance plus the taxonomy-aware
/// utility model matching it.
pub struct FoursquareSim {
    /// The generated MUAA instance.
    pub instance: ProblemInstance,
    /// The Eq. 4/5 utility model with the per-category activity
    /// profile used during generation.
    pub model: PearsonUtility,
    /// The taxonomy the tag universe is defined over.
    pub taxonomy: Taxonomy,
    /// The raw check-in log, aligned with the instance's customers:
    /// `checkin_log[i]` is the venue category and timestamp of the
    /// check-in that became customer `i`. Useful for learning models
    /// from "historical" data (e.g.
    /// [`estimate_activity`](crate::estimate_activity)).
    pub checkin_log: Vec<(TagId, Timestamp)>,
}

// Manual impl: the full check-in log and tag universe would swamp any
// log line; a size summary is what callers actually want.
impl std::fmt::Debug for FoursquareSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FoursquareSim")
            .field("customers", &self.instance.customers().len())
            .field("vendors", &self.instance.vendors().len())
            .field("checkins", &self.checkin_log.len())
            .finish_non_exhaustive()
    }
}

impl FoursquareSim {
    /// Run the simulator.
    ///
    /// A configuration with `checkins > 0` requires at least one venue
    /// (a check-in without a venue is meaningless); zero check-ins with
    /// zero venues produces a valid empty instance.
    pub fn generate(config: &FoursquareConfig) -> Self {
        assert!(
            config.checkins == 0 || config.venues > 0,
            "check-ins need at least one venue"
        );
        if config.venues == 0 {
            let taxonomy = foursquare_like();
            let activity = build_activity(&taxonomy);
            let instance = InstanceBuilder::new()
                .ad_types(config.ad_types.iter().cloned())
                .build()
                .expect("empty instance is valid");
            return FoursquareSim {
                instance,
                model: PearsonUtility::new(activity),
                taxonomy,
                checkin_log: Vec::new(),
            };
        }
        let taxonomy = foursquare_like();
        let leaves = taxonomy.leaves();
        let mut rng = DetRng::seed_from_u64(config.seed);

        // --- Activity curves per root category, inherited by descendants.
        let activity = build_activity(&taxonomy);
        let hourly: Vec<[f64; 24]> = taxonomy
            .tags()
            .map(|t| {
                let mut curve = [0.0; 24];
                for (h, slot) in curve.iter_mut().enumerate() {
                    *slot = activity.level(t.index(), Timestamp::from_hours(h as f64));
                }
                curve
            })
            .collect();

        // --- Venues: district-clustered locations, leaf categories.
        let districts: Vec<Point> = (0..config.districts.max(1))
            .map(|_| Point::new(rng.gen_f64(), rng.gen_f64()))
            .collect();
        struct Venue {
            location: Point,
            category: TagId,
        }
        let venues: Vec<Venue> = (0..config.venues)
            .map(|_| {
                let d = districts[rng.gen_range_usize(districts.len())];
                let spread = 0.04;
                let location = Point::new(
                    d.x + spread * crate::dist::standard_normal(&mut rng),
                    d.y + spread * crate::dist::standard_normal(&mut rng),
                )
                .clamp_to_box(0.0, 1.0);
                Venue {
                    location,
                    category: leaves[rng.gen_range_usize(leaves.len())],
                }
            })
            .collect();
        let popularity = Zipf::new(config.venues.max(1), config.popularity_skew);

        // --- Users: favourite leaves with weights.
        struct User {
            favorites: Vec<(TagId, u32)>,
        }
        let users: Vec<User> = (0..config.users.max(1))
            .map(|_| {
                let k = rng.gen_range(3, 8.min(leaves.len().max(3)) + 1);
                let favorites = (0..k)
                    .map(|_| {
                        (
                            leaves[rng.gen_range_usize(leaves.len())],
                            rng.gen_range(1, 10) as u32,
                        )
                    })
                    .collect();
                User { favorites }
            })
            .collect();

        // --- Check-ins.
        struct CheckIn {
            user: usize,
            venue: usize,
            at: Timestamp,
        }
        let mut checkins: Vec<CheckIn> = Vec::with_capacity(config.checkins);
        let mut venue_counts = vec![0u32; config.venues];
        for _ in 0..config.checkins {
            let user = rng.gen_range_usize(users.len());
            // Preference-aware venue pick: try a few Zipf draws and keep
            // the first whose category the user favours; otherwise the
            // last draw (popularity dominates, taste modulates).
            let mut venue = popularity
                .sample(&mut rng)
                .min(config.venues.saturating_sub(1));
            for _ in 0..3 {
                let cand = popularity
                    .sample(&mut rng)
                    .min(config.venues.saturating_sub(1));
                let cat = venues[cand].category;
                if users[user].favorites.iter().any(|&(f, _)| f == cat) {
                    venue = cand;
                    break;
                }
            }
            let at = Timestamp::from_hours(sample_hour(
                &mut rng,
                &hourly[venues[venue].category.index()],
            ));
            venue_counts[venue] += 1;
            checkins.push(CheckIn { user, venue, at });
        }
        // Sort by time of day — the arrival stream the online algorithm
        // consumes (the paper folds all timestamps into one 24h day).
        checkins.sort_by(|a, b| a.at.hours().total_cmp(&b.at.hours()));

        // --- Interest vectors from each user's own history (Eq. 1–3).
        let interest_model = InterestModel::new(&taxonomy);
        let mut user_history: Vec<Vec<(TagId, u32)>> = vec![Vec::new(); users.len()];
        for c in &checkins {
            let cat = venues[c.venue].category;
            match user_history[c.user].iter_mut().find(|(t, _)| *t == cat) {
                Some((_, n)) => *n += 1,
                None => user_history[c.user].push((cat, 1)),
            }
        }
        let user_interests: Vec<TagVector> = user_history
            .iter()
            .enumerate()
            .map(|(u, hist)| {
                if hist.is_empty() {
                    // Users with no check-ins fall back to their taste list.
                    interest_model
                        .interest_vector(&users[u].favorites)
                        .expect("valid favorite tags")
                } else {
                    interest_model
                        .interest_vector(hist)
                        .expect("valid history tags")
                }
            })
            .collect();

        // --- Materialise: one customer per check-in.
        let customers: Vec<Customer> = checkins
            .iter()
            .map(|c| {
                let v = &venues[c.venue];
                // The customer checks in *near* the venue.
                let location = Point::new(
                    v.location.x + 0.01 * crate::dist::standard_normal(&mut rng),
                    v.location.y + 0.01 * crate::dist::standard_normal(&mut rng),
                )
                .clamp_to_box(0.0, 1.0);
                Customer {
                    location,
                    capacity: (paper_range_sample(&mut rng, config.capacity.lo, config.capacity.hi)
                        .round() as u32)
                        .max(1),
                    view_probability: paper_range_sample(
                        &mut rng,
                        config.view_probability.lo,
                        config.view_probability.hi,
                    )
                    .clamp(0.0, 1.0),
                    interests: user_interests[c.user].clone(),
                    arrival: c.at,
                }
            })
            .collect();

        // --- One vendor per (sufficiently popular) venue.
        let vendors: Vec<Vendor> = venues
            .iter()
            .zip(&venue_counts)
            .filter(|&(_, &count)| count >= config.min_checkins_per_venue)
            .map(|(v, _)| Vendor {
                location: v.location,
                radius: paper_range_sample(&mut rng, config.radius.lo, config.radius.hi).max(0.0),
                budget: Money::from_dollars(paper_range_sample(
                    &mut rng,
                    config.budget.lo,
                    config.budget.hi,
                )),
                tags: interest_model
                    .vendor_vector(v.category)
                    .expect("valid category"),
            })
            .collect();

        let instance = InstanceBuilder::new()
            .customers(customers)
            .vendors(vendors)
            .ad_types(config.ad_types.iter().cloned())
            .build()
            .expect("simulator produces valid instances");
        let model = PearsonUtility::new(activity);
        let checkin_log: Vec<(TagId, Timestamp)> = checkins
            .iter()
            .map(|c| (venues[c.venue].category, c.at))
            .collect();
        FoursquareSim {
            instance,
            model,
            taxonomy,
            checkin_log,
        }
    }
}

/// Diurnal activity per root category, inherited by all descendants.
fn build_activity(taxonomy: &Taxonomy) -> ActivityProfile {
    // Hourly templates (0h..23h).
    fn curve(peaks: &[(usize, usize, f64)], base: f64) -> Vec<f64> {
        let mut c = vec![base; 24];
        for &(from, to, level) in peaks {
            for slot in c.iter_mut().take(to.min(24)).skip(from) {
                *slot = slot.max(level);
            }
        }
        c
    }
    let template_for = |root_name: &str| -> Vec<f64> {
        match root_name {
            "Food" => curve(&[(7, 9, 0.8), (11, 14, 1.0), (18, 21, 1.0)], 0.2),
            "Nightlife Spot" => curve(&[(19, 24, 1.0), (0, 3, 0.8)], 0.05),
            "Shop & Service" => curve(&[(10, 20, 1.0)], 0.1),
            "Professional & Other Places" => curve(&[(8, 18, 1.0)], 0.05),
            "College & University" => curve(&[(8, 17, 1.0)], 0.1),
            "Outdoors & Recreation" => curve(&[(6, 10, 0.8), (15, 19, 1.0)], 0.2),
            "Travel & Transport" => curve(&[(7, 10, 1.0), (17, 20, 1.0)], 0.4),
            "Arts & Entertainment" => curve(&[(12, 23, 1.0)], 0.1),
            "Residence" => curve(&[(18, 24, 0.9), (0, 8, 0.8)], 0.4),
            _ => vec![0.5; 24],
        }
    };
    let curves: Vec<Vec<f64>> = taxonomy
        .tags()
        .map(|t| {
            let root = *taxonomy.path_from_root(t).first().expect("non-empty path");
            template_for(taxonomy.name(root))
        })
        .collect();
    ActivityProfile::from_hourly(&curves).expect("templates are valid curves")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> FoursquareConfig {
        FoursquareConfig {
            checkins: 800,
            venues: 60,
            users: 50,
            ..Default::default()
        }
    }

    #[test]
    fn generates_requested_sizes() {
        let sim = FoursquareSim::generate(&small());
        assert_eq!(sim.instance.num_customers(), 800);
        assert_eq!(sim.instance.num_vendors(), 60);
        assert_eq!(sim.instance.tag_universe(), sim.taxonomy.len());
    }

    #[test]
    fn min_checkin_filter_drops_unpopular_venues() {
        let mut cfg = small();
        cfg.min_checkins_per_venue = 10;
        let sim = FoursquareSim::generate(&cfg);
        assert!(
            sim.instance.num_vendors() < 60,
            "filter should drop tail venues"
        );
        assert!(sim.instance.num_vendors() > 0);
    }

    #[test]
    fn arrivals_are_sorted_within_the_day() {
        let sim = FoursquareSim::generate(&small());
        let hours: Vec<f64> = sim
            .instance
            .customers()
            .iter()
            .map(|c| c.arrival.hours())
            .collect();
        assert!(hours.windows(2).all(|w| w[0] <= w[1]));
        assert!(hours.iter().all(|&h| (0.0..24.0).contains(&h)));
    }

    #[test]
    fn popularity_is_skewed() {
        // Some venues should attract far more check-in-adjacent
        // customers than others: compare customer counts near the most
        // and least popular venue locations indirectly via vendor
        // budgets? Simpler: re-run generation internals by checking the
        // spread of customers per venue through instance statistics —
        // here we just assert the Zipf sampler's effect shows up as
        // many co-located customers.
        let sim = FoursquareSim::generate(&small());
        let inst = &sim.instance;
        // Count customers exactly matching each vendor's rounded cell.
        use std::collections::HashMap;
        let mut counts: HashMap<(i64, i64), usize> = HashMap::new();
        for c in inst.customers() {
            let key = ((c.location.x * 50.0) as i64, (c.location.y * 50.0) as i64);
            *counts.entry(key).or_default() += 1;
        }
        let max = counts.values().copied().max().unwrap_or(0);
        let mean = inst.num_customers() as f64 / counts.len() as f64;
        assert!(max as f64 > 3.0 * mean, "max {max} mean {mean}");
    }

    #[test]
    fn interest_vectors_reflect_history() {
        let sim = FoursquareSim::generate(&small());
        // Every customer has a non-zero interest vector over the taxonomy.
        for c in sim.instance.customers().iter().take(100) {
            assert!(c.interests.total() > 0.0);
            assert_eq!(c.interests.len(), sim.taxonomy.len());
        }
    }

    #[test]
    fn vendor_tags_peak_at_category_path() {
        let sim = FoursquareSim::generate(&small());
        for v in sim.instance.vendors().iter().take(20) {
            let max = v.tags.as_slice().iter().copied().fold(0.0_f64, f64::max);
            assert!((max - 1.0).abs() < 1e-9, "vendor vector should peak at 1");
        }
    }

    #[test]
    fn empty_config_yields_empty_instance() {
        let cfg = FoursquareConfig {
            checkins: 0,
            venues: 0,
            users: 0,
            ..Default::default()
        };
        let sim = FoursquareSim::generate(&cfg);
        assert_eq!(sim.instance.num_customers(), 0);
        assert_eq!(sim.instance.num_vendors(), 0);
        assert_eq!(sim.instance.num_ad_types(), 3);
    }

    #[test]
    #[should_panic(expected = "at least one venue")]
    fn checkins_without_venues_rejected() {
        let cfg = FoursquareConfig {
            checkins: 10,
            venues: 0,
            ..Default::default()
        };
        let _ = FoursquareSim::generate(&cfg);
    }

    #[test]
    fn single_venue_single_user_works() {
        let cfg = FoursquareConfig {
            checkins: 20,
            venues: 1,
            users: 1,
            ..Default::default()
        };
        let sim = FoursquareSim::generate(&cfg);
        assert_eq!(sim.instance.num_customers(), 20);
        assert_eq!(sim.instance.num_vendors(), 1);
    }

    #[test]
    fn filter_all_venues_leaves_valid_empty_vendor_set() {
        let mut cfg = small();
        cfg.min_checkins_per_venue = u32::MAX;
        let sim = FoursquareSim::generate(&cfg);
        assert_eq!(sim.instance.num_vendors(), 0);
        assert_eq!(sim.instance.num_customers(), 800);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = FoursquareSim::generate(&small());
        let b = FoursquareSim::generate(&small());
        assert_eq!(a.instance.num_vendors(), b.instance.num_vendors());
        for (x, y) in a.instance.customers().iter().zip(b.instance.customers()) {
            assert_eq!(x.location, y.location);
        }
    }

    #[test]
    fn activity_profile_distinguishes_day_and_night() {
        let sim = FoursquareSim::generate(&small());
        let tax = &sim.taxonomy;
        let bar = tax.by_name("Bar").unwrap();
        let office = tax.by_name("Office").unwrap();
        let act = sim.model.activity();
        // Bars: more active at 22h than 9h; offices: the opposite.
        assert!(
            act.level(bar.index(), Timestamp::from_hours(22.0))
                > act.level(bar.index(), Timestamp::from_hours(9.0))
        );
        assert!(
            act.level(office.index(), Timestamp::from_hours(10.0))
                > act.level(office.index(), Timestamp::from_hours(23.0))
        );
    }
}
