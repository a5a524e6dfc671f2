//! Constant-memory streaming workload generator.
//!
//! The default fixture has a million customers; holding a second copy
//! of such a workload inside the *generator* (the `Vec`-building style
//! of [`crate::generate_synthetic`]) doubles peak memory for no
//! benefit. [`StreamConfig`] instead yields customers and vendors as
//! iterators: record `k` is produced by a [`SplitMix64`]
//! stream re-seeded from `(seed, stream tag, k)`, so
//!
//! * memory is `O(1)` in the instance size (each record is built and
//!   handed off independently),
//! * the stream is *randomly addressable* — record `k` never depends on
//!   records `0..k`, so consumers can skip, resume, or split the stream
//!   without replaying it, and
//! * the bits are identical on every platform and in every build: the
//!   generator draws from no RNG crate and uses no transcendental
//!   functions (the clamped pseudo-normal is an
//!   Irwin–Hall sum of 12 uniforms — additions only).
//!
//! The smoke tests pin the first records' exact bit patterns; any
//! change to the record recipe is a workload-breaking change and must
//! bump the pinned constants deliberately.

use crate::adtypes;
use muaa_core::{
    AdType, Customer, InstanceBuilder, Money, Point, ProblemInstance, TagVector, Timestamp, Vendor,
};

/// The splitmix64 generator (Steele, Lea & Flood 2014): a tiny,
/// full-period, jump-free stream used here because record addressing
/// needs cheap independent re-seeding, which `SmallRng` does not
/// guarantee across versions.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// Seed a stream.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, 1)` with full 53-bit mantissa resolution.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform draw in `[lo, hi]`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    /// Pseudo-normal `N(0, 1)` via the Irwin–Hall sum of 12 uniforms —
    /// additions only, so the bits never depend on a libm.
    pub fn pseudo_normal(&mut self) -> f64 {
        let mut acc = 0.0f64;
        for _ in 0..12 {
            acc += self.next_f64();
        }
        acc - 6.0
    }
}

/// Mix a stream tag and record index into a per-record seed. The
/// constants are splitmix64's own, applied once, so adjacent records
/// land in unrelated regions of the state space.
fn record_seed(seed: u64, tag: u64, index: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ index;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^ (z >> 31)
}

const CUSTOMER_TAG: u64 = 0xC057;
const VENDOR_TAG: u64 = 0x7E4D;

/// Configuration of the streaming generator. The default is a
/// scale-out fixture: one million customers against ten thousand
/// vendors on the unit square, with vendor radii sized so an average
/// disc holds a few hundred customers.
#[derive(Clone, Debug)]
pub struct StreamConfig {
    /// Number of customers `m`.
    pub customers: usize,
    /// Number of vendors `n`.
    pub vendors: usize,
    /// Vendor budget range `[B⁻, B⁺]` in dollars.
    pub budget: (f64, f64),
    /// Vendor radius range `[r⁻, r⁺]`.
    pub radius: (f64, f64),
    /// Customer capacity range (rounded to integers ≥ 1).
    pub capacity: (f64, f64),
    /// View probability range `[p⁻, p⁺]`.
    pub view_probability: (f64, f64),
    /// Ad types (defaults to [`adtypes::adwords_like`]).
    pub ad_types: Vec<AdType>,
    /// Tag-universe size for the two-cluster tag vectors.
    pub tags: usize,
    /// Stream seed — same seed, same records, forever.
    pub seed: u64,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            customers: 1_000_000,
            vendors: 10_000,
            budget: (10.0, 20.0),
            radius: (0.01, 0.02),
            capacity: (1.0, 5.0),
            view_probability: (0.1, 0.5),
            ad_types: adtypes::adwords_like(),
            tags: 8,
            seed: 0x5EED_CAFE,
        }
    }
}

impl StreamConfig {
    /// A proportionally downsized fixture with the same per-record
    /// recipe — the CI smoke and offline-build configurations.
    pub fn downsized(customers: usize, vendors: usize) -> Self {
        StreamConfig {
            customers,
            vendors,
            // Keep roughly the same expected disc population as the
            // full fixture by widening radii as vendors thin out.
            radius: {
                let scale = (10_000.0 / vendors.max(1) as f64).sqrt();
                (0.01 * scale, 0.02 * scale)
            },
            ..Default::default()
        }
    }

    /// Build customer `i` of the stream (randomly addressable).
    pub fn customer(&self, i: usize) -> Customer {
        let mut rng = SplitMix64::new(record_seed(self.seed, CUSTOMER_TAG, i as u64));
        // Pseudo-Gaussian around the centre, clamped to the unit
        // square — the paper's §V-A customer geography.
        let location =
            Point::new(0.5 + rng.pseudo_normal(), 0.5 + rng.pseudo_normal()).clamp_to_box(0.0, 1.0);
        let (c_lo, c_hi) = self.capacity;
        let (p_lo, p_hi) = self.view_probability;
        Customer {
            location,
            capacity: (rng.range(c_lo, c_hi).round() as u32).max(1),
            view_probability: rng.range(p_lo, p_hi).clamp(0.0, 1.0),
            interests: self.tag_vector(&mut rng),
            // Arrival order doubles as the timestamp, as in the paper.
            arrival: Timestamp::from_hours(24.0 * i as f64 / self.customers.max(1) as f64),
        }
    }

    /// Build vendor `j` of the stream (randomly addressable).
    pub fn vendor(&self, j: usize) -> Vendor {
        let mut rng = SplitMix64::new(record_seed(self.seed, VENDOR_TAG, j as u64));
        let location = Point::new(rng.next_f64(), rng.next_f64());
        let (r_lo, r_hi) = self.radius;
        let (b_lo, b_hi) = self.budget;
        Vendor {
            location,
            radius: rng.range(r_lo, r_hi).max(0.0),
            budget: Money::from_dollars(rng.range(b_lo, b_hi)),
            tags: self.tag_vector(&mut rng),
        }
    }

    /// The planted two-cluster tag recipe of
    /// [`crate::generate_synthetic`], re-expressed over [`SplitMix64`].
    fn tag_vector(&self, rng: &mut SplitMix64) -> TagVector {
        let lean = rng.next_f64();
        let scores: Vec<f64> = (0..self.tags)
            .map(|k| {
                let cluster_boost = if k < self.tags / 2 { lean } else { 1.0 - lean };
                (0.15 + 0.7 * cluster_boost * rng.next_f64()).clamp(0.0, 1.0)
            })
            .collect();
        TagVector::new_unchecked(scores)
    }

    /// Stream every customer in arrival order. Constant memory: each
    /// item is built on demand and owned by the caller.
    pub fn customers(&self) -> impl Iterator<Item = Customer> + '_ {
        (0..self.customers).map(move |i| self.customer(i))
    }

    /// Stream every vendor. Constant memory, randomly addressable.
    pub fn vendors(&self) -> impl Iterator<Item = Vendor> + '_ {
        (0..self.vendors).map(move |j| self.vendor(j))
    }
}

/// Materialise the streamed workload into a [`ProblemInstance`] — the
/// single point where `O(m + n)` memory is actually committed.
pub fn generate_streamed(config: &StreamConfig) -> ProblemInstance {
    InstanceBuilder::new()
        .customers(config.customers())
        .vendors(config.vendors())
        .ad_types(config.ad_types.iter().cloned())
        .build()
        .expect("streamed generator produces valid instances")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fold a record's payload into one u64 so the pinned constants
    /// below stay compact. Any bit flip anywhere flips the fold.
    fn fold_customer(c: &Customer) -> u64 {
        let mut h = c.location.x.to_bits() ^ c.location.y.to_bits().rotate_left(17);
        h ^= (c.capacity as u64).rotate_left(34);
        h ^= c.view_probability.to_bits().rotate_left(51);
        for (k, s) in c.interests.as_slice().iter().enumerate() {
            h ^= s.to_bits().rotate_left((7 * k as u32) % 64);
        }
        h ^ c.arrival.hours().to_bits()
    }

    fn fold_vendor(v: &Vendor) -> u64 {
        let mut h = v.location.x.to_bits() ^ v.location.y.to_bits().rotate_left(17);
        h ^= v.radius.to_bits().rotate_left(34);
        h ^= v.budget.as_dollars().to_bits().rotate_left(51);
        for (k, s) in v.tags.as_slice().iter().enumerate() {
            h ^= s.to_bits().rotate_left((7 * k as u32) % 64);
        }
        h
    }

    /// The workload contract: the first records of the default stream,
    /// bit for bit. These constants must only ever change together with
    /// a deliberate fixture-version bump.
    #[test]
    fn pins_first_records_bit_for_bit() {
        let cfg = StreamConfig::default();
        let c: Vec<u64> = (0..4).map(|i| fold_customer(&cfg.customer(i))).collect();
        let v: Vec<u64> = (0..4).map(|j| fold_vendor(&cfg.vendor(j))).collect();
        assert_eq!(
            c,
            [
                0x606A_94A6_16E0_B6AA,
                0x4270_F801_3400_D821,
                0x9018_3E68_9455_0B8E,
                0x03AE_B2DF_5E96_6716,
            ],
            "customer stream drifted: {c:#018X?}"
        );
        assert_eq!(
            v,
            [
                0xE25E_A7A9_60D3_EAB7,
                0xE98B_4244_B4DC_F298,
                0xF16A_C3A6_7BDB_7877,
                0x51C6_0527_5B02_EA19,
            ],
            "vendor stream drifted: {v:#018X?}"
        );
    }

    /// Random addressability: record `k` from a fresh config equals
    /// record `k` reached by iteration, and skipping records never
    /// shifts the stream.
    #[test]
    fn records_are_randomly_addressable() {
        let cfg = StreamConfig::downsized(100, 10);
        let iterated: Vec<Customer> = cfg.customers().collect();
        for k in [0usize, 7, 41, 99] {
            let direct = cfg.customer(k);
            assert_eq!(fold_customer(&direct), fold_customer(&iterated[k]));
        }
        let direct_v = cfg.vendor(9);
        let last_v = cfg.vendors().last().unwrap();
        assert_eq!(fold_vendor(&direct_v), fold_vendor(&last_v));
    }

    #[test]
    fn downsized_stream_builds_valid_instances() {
        let cfg = StreamConfig::downsized(300, 12);
        let inst = generate_streamed(&cfg);
        assert_eq!(inst.num_customers(), 300);
        assert_eq!(inst.num_vendors(), 12);
        assert_eq!(inst.num_ad_types(), 3);
        for c in inst.customers() {
            assert!((1..=5).contains(&c.capacity));
            assert!((0.1..=0.5).contains(&c.view_probability));
            assert!((0.0..=1.0).contains(&c.location.x));
            assert!((0.0..=1.0).contains(&c.location.y));
        }
        for v in inst.vendors() {
            assert!(v.radius > 0.0);
            let b = v.budget.as_dollars();
            assert!((10.0..=20.0).contains(&b), "budget {b}");
        }
    }

    #[test]
    fn seeds_separate_streams() {
        let a = StreamConfig::downsized(50, 5);
        let mut b = StreamConfig::downsized(50, 5);
        b.seed ^= 1;
        let drifted =
            (0..50).any(|i| fold_customer(&a.customer(i)) != fold_customer(&b.customer(i)));
        assert!(drifted, "seed change must move the stream");
    }

    #[test]
    fn arrivals_are_nondecreasing_and_scale_free() {
        let cfg = StreamConfig::downsized(64, 4);
        let hours: Vec<f64> = cfg.customers().map(|c| c.arrival.hours()).collect();
        assert!(hours.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(hours[0], 0.0);
        assert!(hours[63] < 24.0);
    }
}
