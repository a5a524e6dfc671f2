//! Reverse range queries over vendors: "which vendors' circular areas
//! contain this point?"
//!
//! Each vendor has its *own* radius, so a plain grid over vendor
//! locations would have to be queried with the global maximum radius —
//! wasteful when radii are skewed. [`VendorIndex`] buckets vendors into
//! power-of-two radius classes, each with its own [`GridIndex`], and
//! queries every class with that class's maximum radius; candidates are
//! then filtered by their exact radius.
//!
//! Per-class side tables (`r2`, `ids`) are indexed by the grid's *local
//! id* (DESIGN.md §11–12), so a query is one scan per class with zero
//! scratch allocation: the grid visits candidate entries, and the
//! exact-radius filter reads `r2[local]` from the parallel array. Local
//! ids are also what the grid's swap-remove renames, so a vendor whose
//! radius crosses a class boundary ([`set_radius`](VendorIndex::set_radius))
//! migrates between class grids by patching a few cell rows instead of
//! forcing a rebuild.

use crate::grid::GridIndex;
use muaa_core::{Point, Vendor, VendorId};

/// Radius floor for class 0; class `c ≥ 1` holds radii in
/// `(R0·2^(c-2), R0·2^(c-1)]`.
const R0: f64 = 1e-6;

/// The power-of-two radius class a radius falls into.
fn class_of(r: f64) -> usize {
    if r <= R0 {
        0
    } else {
        (r / R0).log2().ceil() as usize + 1
    }
}

/// The query radius (class maximum) of class `c`.
fn class_radius(c: usize) -> f64 {
    if c == 0 {
        R0
    } else {
        R0 * 2f64.powi(c as i32 - 1)
    }
}

/// An index answering "which vendors cover point `p`" (the valid vendor
/// set `V'` of paper Algorithm 2, line 2).
#[derive(Debug)]
pub struct VendorIndex {
    /// One (grid, class max radius, member tables) per radius class,
    /// sorted by class key. Classes left empty by migrations are kept —
    /// their grids answer queries in O(1).
    classes: Vec<RadiusClass>,
    /// `(class key, local id within the class)` per vendor.
    membership: Vec<(usize, u32)>,
}

#[derive(Debug)]
struct RadiusClass {
    /// The power-of-two class key this bucket holds.
    key: usize,
    grid: GridIndex,
    max_radius: f64,
    /// Squared member radius, indexed by the grid's local id.
    r2: Vec<f64>,
    /// Member vendor id, indexed by the grid's local id.
    ids: Vec<VendorId>,
}

impl VendorIndex {
    /// Build from a vendor table. Vendors with zero radius can still be
    /// matched by customers standing exactly on them.
    pub fn new(vendors: &[Vendor]) -> Self {
        // Partition vendor indices into power-of-two radius classes.
        let mut by_class: std::collections::BTreeMap<usize, Vec<usize>> =
            std::collections::BTreeMap::new();
        for (j, v) in vendors.iter().enumerate() {
            by_class.entry(class_of(v.radius)).or_default().push(j);
        }
        let partitions: Vec<(usize, Vec<usize>)> = by_class.into_iter().collect();

        // Each radius class builds its own grid independently; classes
        // come out of the map in key order, so the index layout is
        // identical to a sequential build.
        let classes = muaa_core::par::par_map(&partitions, 1, |_, (key, members)| {
            let max_radius = class_radius(*key);
            let points: Vec<Point> = members.iter().map(|&j| vendors[j].location).collect();
            let grid = GridIndex::new(points, max_radius);
            // Side tables are indexed by local id (= position in
            // `members`), the identifier the grid hands back.
            let r2: Vec<f64> = members
                .iter()
                .map(|&j| vendors[j].radius * vendors[j].radius)
                .collect();
            let ids: Vec<VendorId> = members.iter().map(|&j| VendorId::from(j)).collect();
            RadiusClass {
                key: *key,
                grid,
                max_radius,
                r2,
                ids,
            }
        });
        let mut membership = vec![(0usize, 0u32); vendors.len()];
        for class in &classes {
            for (local, &vid) in class.ids.iter().enumerate() {
                membership[vid.index()] = (class.key, local as u32);
            }
        }
        VendorIndex {
            classes,
            membership,
        }
    }

    /// Number of indexed vendors.
    pub fn len(&self) -> usize {
        self.membership.len()
    }

    /// `true` iff no vendors are indexed.
    pub fn is_empty(&self) -> bool {
        self.membership.is_empty()
    }

    /// Update one vendor's radius. Within its radius class this is a
    /// table write; across classes the vendor migrates to the new
    /// class's grid (created on demand, with one cell) by grid patches.
    /// The set of covering vendors any query reports afterwards is
    /// exactly what a fresh build on the updated radii would report.
    pub fn set_radius(&mut self, vid: VendorId, radius: f64) {
        let (old_key, old_local) = self.membership[vid.index()];
        let new_key = class_of(radius);
        if new_key == old_key {
            #[expect(
                clippy::expect_used,
                reason = "membership[] guarantees the class exists"
            )]
            let pos = self.class_pos(old_key).expect("member class missing");
            self.classes[pos].r2[old_local as usize] = radius * radius;
            return;
        }
        // Detach from the old class: the grid renames its last local id
        // to `old_local`, so the side tables swap-remove in lockstep and
        // the renamed member's membership is rewritten.
        #[expect(
            clippy::expect_used,
            reason = "membership[] guarantees the class exists"
        )]
        let pos = self.class_pos(old_key).expect("member class missing");
        let class = &mut self.classes[pos];
        let location = class.grid.point(old_local as usize);
        class.grid.swap_remove(old_local);
        class.ids.swap_remove(old_local as usize);
        class.r2.swap_remove(old_local as usize);
        if (old_local as usize) < class.ids.len() {
            let renamed = class.ids[old_local as usize];
            self.membership[renamed.index()] = (old_key, old_local);
        }
        // Attach to the new class, creating it in key order if needed.
        let pos = match self.class_pos(new_key) {
            Some(pos) => pos,
            None => {
                let max_radius = class_radius(new_key);
                let pos = self.classes.partition_point(|c| c.key < new_key);
                self.classes.insert(
                    pos,
                    RadiusClass {
                        key: new_key,
                        grid: GridIndex::new(Vec::new(), max_radius),
                        max_radius,
                        r2: Vec::new(),
                        ids: Vec::new(),
                    },
                );
                pos
            }
        };
        let class = &mut self.classes[pos];
        let local = class.grid.insert(location);
        debug_assert_eq!(local as usize, class.ids.len());
        class.ids.push(vid);
        class.r2.push(radius * radius);
        self.membership[vid.index()] = (new_key, local);
    }

    /// Position of the class with `key` in the sorted class list.
    fn class_pos(&self, key: usize) -> Option<usize> {
        self.classes.binary_search_by(|c| c.key.cmp(&key)).ok()
    }

    /// All vendors whose area contains `p` (`d(p, v_j) ≤ r_j`),
    /// appended to `out` (cleared first), in unspecified order.
    #[cfg_attr(any(), muaa::hot)]
    pub fn covering_into(&self, p: Point, out: &mut Vec<VendorId>) {
        let _hot = muaa_core::sanitize::AllocGuard::counting("vendor_index.covering_into");
        out.clear();
        for class in &self.classes {
            // A member's own radius never exceeds its class radius, so
            // the exact predicate subsumes the class-radius prefilter
            // the old nested-Vec path applied first.
            class
                .grid
                .visit_candidates(p, class.max_radius, |local, d2| {
                    if d2 <= class.r2[local as usize] {
                        // Caller-reused buffer, in-capacity at steady state;
                        // the counting guard pins it. lint: allow(hot_alloc)
                        out.push(class.ids[local as usize]);
                    }
                });
        }
    }

    /// Convenience wrapper around [`covering_into`](Self::covering_into).
    pub fn covering(&self, p: Point) -> Vec<VendorId> {
        let mut out = Vec::new();
        self.covering_into(p, &mut out);
        out
    }

    /// Validate the index's structural invariants (DESIGN.md §13):
    /// classes sorted by key with aligned side tables, every class grid
    /// internally consistent ([`GridIndex::debug_validate`]), and the
    /// `membership` ↔ class `ids` mapping a bijection over all vendors.
    /// A no-op unless `debug_assertions` are on; the radius-mutation
    /// property tests call it after every `set_radius`.
    pub fn debug_validate(&self) {
        if !cfg!(debug_assertions) {
            return;
        }
        assert!(
            self.classes.windows(2).all(|w| w[0].key < w[1].key),
            "classes must be sorted strictly by key"
        );
        let mut members = 0usize;
        for class in &self.classes {
            class.grid.debug_validate();
            assert_eq!(
                class.r2.len(),
                class.grid.len(),
                "r2 must align with the class grid"
            );
            assert_eq!(
                class.ids.len(),
                class.grid.len(),
                "ids must align with the class grid"
            );
            for (local, &vid) in class.ids.iter().enumerate() {
                assert!(
                    vid.index() < self.membership.len(),
                    "class member {vid} out of range"
                );
                assert_eq!(
                    self.membership[vid.index()],
                    (class.key, local as u32),
                    "membership of {vid} does not point back at its class slot"
                );
            }
            members += class.ids.len();
        }
        assert_eq!(
            members,
            self.membership.len(),
            "every vendor must live in exactly one class"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use muaa_core::{Money, TagVector};

    fn vendor(x: f64, y: f64, r: f64) -> Vendor {
        Vendor {
            location: Point::new(x, y),
            radius: r,
            budget: Money::from_dollars(1.0),
            tags: TagVector::zeros(1),
        }
    }

    #[test]
    fn covering_respects_per_vendor_radius() {
        let vendors = vec![
            vendor(0.0, 0.0, 0.5), // covers (0.4, 0)
            vendor(0.0, 0.0, 0.1), // does not
            vendor(1.0, 1.0, 2.0), // covers everything nearby
        ];
        let idx = VendorIndex::new(&vendors);
        let mut got = idx.covering(Point::new(0.4, 0.0));
        got.sort_unstable();
        assert_eq!(got, vec![VendorId::new(0), VendorId::new(2)]);
    }

    #[test]
    fn boundary_is_inclusive() {
        let vendors = vec![vendor(0.0, 0.0, 0.5)];
        let idx = VendorIndex::new(&vendors);
        assert_eq!(idx.covering(Point::new(0.5, 0.0)), vec![VendorId::new(0)]);
        assert!(idx.covering(Point::new(0.5001, 0.0)).is_empty());
    }

    #[test]
    fn empty_index() {
        let idx = VendorIndex::new(&[]);
        assert!(idx.is_empty());
        assert!(idx.covering(Point::new(0.5, 0.5)).is_empty());
    }

    #[test]
    fn matches_brute_force_on_random_vendors() {
        use muaa_core::DetRng;
        let mut rng = DetRng::seed_from_u64(11);
        let vendors: Vec<Vendor> = (0..400)
            .map(|_| {
                vendor(
                    rng.gen_f64(),
                    rng.gen_f64(),
                    // Mix of tiny and large radii to exercise classes.
                    if rng.gen_bool(0.5) {
                        rng.gen_f64() * 0.02
                    } else {
                        rng.gen_f64() * 0.3
                    },
                )
            })
            .collect();
        let idx = VendorIndex::new(&vendors);
        for _ in 0..50 {
            let p = Point::new(rng.gen_f64(), rng.gen_f64());
            let mut got = idx.covering(p);
            got.sort_unstable();
            let expect: Vec<VendorId> = vendors
                .iter()
                .enumerate()
                .filter(|(_, v)| v.location.distance_sq(&p) <= v.radius * v.radius)
                .map(|(j, _)| VendorId::from(j))
                .collect();
            assert_eq!(got, expect);
        }
    }

    #[test]
    fn zero_radius_vendor_only_matches_its_location() {
        let vendors = vec![vendor(0.25, 0.25, 0.0)];
        let idx = VendorIndex::new(&vendors);
        assert_eq!(idx.covering(Point::new(0.25, 0.25)), vec![VendorId::new(0)]);
        assert!(idx.covering(Point::new(0.26, 0.25)).is_empty());
    }

    /// Radius updates (same class, cross class, to/from zero) keep the
    /// covering sets identical to a from-scratch build on the updated
    /// vendor table.
    #[test]
    fn set_radius_matches_fresh_build() {
        let mut vendors: Vec<Vendor> = (0..60)
            .map(|j| {
                vendor(
                    (j as f64 * 0.618_033_988_749_895) % 1.0,
                    (j as f64 * 0.754_877_666_246_693) % 1.0,
                    (j as f64 * 0.013) % 0.4,
                )
            })
            .collect();
        let mut idx = VendorIndex::new(&vendors);
        for step in 0..150u64 {
            let j = (step.wrapping_mul(2654435761) % vendors.len() as u64) as usize;
            let r = match step % 4 {
                0 => 0.0,                            // degenerate class 0
                1 => vendors[j].radius * 1.001,      // usually same class
                2 => (step as f64 * 0.0137) % 0.5,   // arbitrary class hop
                _ => vendors[j].radius * 7.0 + 1e-9, // guaranteed class hop
            };
            vendors[j].radius = r;
            idx.set_radius(VendorId::from(j), r);
            if step % 10 == 0 || step + 1 == 150 {
                let fresh = VendorIndex::new(&vendors);
                for q in 0..25 {
                    let p = Point::new((q as f64 * 0.17) % 1.0, (q as f64 * 0.31) % 1.0);
                    let mut got = idx.covering(p);
                    got.sort_unstable();
                    let mut expect = fresh.covering(p);
                    expect.sort_unstable();
                    assert_eq!(got, expect, "step {step} query {q}");
                }
            }
        }
    }
}
