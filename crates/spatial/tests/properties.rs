//! Property-based tests for the spatial substrate: grid range queries
//! vs brute force, vendor coverage vs per-vendor radii.

use muaa_core::{Money, Point, TagVector, Vendor};
use muaa_spatial::{GridIndex, VendorIndex};
use muaa_testkit::{f64_in, for_all, vec_of, DetRng};

/// Up to `max - 1` points in the unit square.
fn gen_points(rng: &mut DetRng, max: usize) -> Vec<Point> {
    vec_of(rng, 0..max, |r| Point::new(r.gen_f64(), r.gen_f64()))
}

/// A point uniform in `range` × `range`.
fn gen_query(rng: &mut DetRng, range: std::ops::Range<f64>) -> Point {
    Point::new(f64_in(rng, range.clone()), f64_in(rng, range))
}

/// Up to `len.end - 1` vendors in the unit square with radii in
/// `[0, 0.4)`.
fn gen_vendors(rng: &mut DetRng, len: std::ops::Range<usize>) -> Vec<Vendor> {
    vec_of(rng, len, |r| Vendor {
        location: Point::new(r.gen_f64(), r.gen_f64()),
        radius: f64_in(r, 0.0..0.4),
        budget: Money::from_cents(100),
        tags: TagVector::zeros(1),
    })
}

const CASES: u32 = 128;

#[test]
fn range_query_equals_brute_force() {
    let gen = |r: &mut DetRng| {
        let points = gen_points(r, 120);
        let q = gen_query(r, -0.5..1.5);
        (points, q, f64_in(r, 0.0..0.8), f64_in(r, 0.001..0.5))
    };
    for_all(
        "range_query_equals_brute_force",
        CASES,
        gen,
        |&(ref points, q, radius, cell)| {
            let index = GridIndex::with_cell_size(points.clone(), cell);
            let mut got = index.range_query(q, radius);
            got.sort_unstable();
            let expect: Vec<u32> = points
                .iter()
                .enumerate()
                .filter(|(_, p)| p.distance_sq(&q) <= radius * radius)
                .map(|(i, _)| i as u32)
                .collect();
            assert_eq!(got, expect);
        },
    );
}

#[test]
fn vendor_coverage_equals_brute_force() {
    let gen = |r: &mut DetRng| (gen_vendors(r, 0..80), gen_query(r, 0.0..1.0));
    for_all(
        "vendor_coverage_equals_brute_force",
        CASES,
        gen,
        |&(ref vendors, q)| {
            let index = VendorIndex::new(vendors);
            let mut got = index.covering(q);
            got.sort_unstable();
            let expect: Vec<muaa_core::VendorId> = vendors
                .iter()
                .enumerate()
                .filter(|(_, v)| v.location.distance_sq(&q) <= v.radius * v.radius)
                .map(|(j, _)| muaa_core::VendorId::from(j))
                .collect();
            assert_eq!(got, expect);
        },
    );
}

#[test]
fn growing_radius_grows_the_result_set() {
    let gen = |r: &mut DetRng| {
        let points = gen_points(r, 120);
        let q = gen_query(r, 0.0..1.0);
        (points, q, f64_in(r, 0.0..0.4), f64_in(r, 0.0..0.4))
    };
    for_all(
        "growing_radius_grows_the_result_set",
        CASES,
        gen,
        |&(ref points, q, r1, dr)| {
            let index = GridIndex::new(points.clone(), 0.05);
            let small: std::collections::HashSet<u32> =
                index.range_query(q, r1).into_iter().collect();
            let large: std::collections::HashSet<u32> =
                index.range_query(q, r1 + dr).into_iter().collect();
            assert!(small.is_subset(&large));
        },
    );
}

/// The CSR-row grid layout (DESIGN.md §11) must reproduce the output
/// *sequences* of the pre-CSR nested-`Vec` bucket layout — cells in
/// row-major order, points in insertion order within a cell — not just
/// the same sets. A reference implementation of the old layout lives in
/// this module.
mod csr_equivalence {
    use super::{gen_points, gen_query};
    use muaa_core::Point;
    use muaa_spatial::GridIndex;
    use muaa_testkit::{f64_in, for_all, DetRng};

    /// The old nested-Vec bucket grid: one `Vec<u32>` per cell, filled
    /// sequentially in point order, queried row-major with the same
    /// clamped cell arithmetic as `GridIndex`.
    struct NestedVecGrid {
        points: Vec<Point>,
        buckets: Vec<Vec<u32>>,
        cols: usize,
        cell: f64,
        min_x: f64,
        min_y: f64,
        rows: usize,
    }

    impl NestedVecGrid {
        fn new(points: Vec<Point>, cell_size: f64) -> Self {
            let (mut min_x, mut min_y) = (f64::INFINITY, f64::INFINITY);
            let (mut max_x, mut max_y) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
            for p in &points {
                min_x = min_x.min(p.x);
                min_y = min_y.min(p.y);
                max_x = max_x.max(p.x);
                max_y = max_y.max(p.y);
            }
            if points.is_empty() {
                (min_x, min_y, max_x, max_y) = (0.0, 0.0, 1.0, 1.0);
            }
            let width = (max_x - min_x).max(f64::MIN_POSITIVE);
            let height = (max_y - min_y).max(f64::MIN_POSITIVE);
            let mut cell = cell_size;
            const MAX_CELLS: f64 = 4_000_000.0;
            if (width / cell) * (height / cell) > MAX_CELLS {
                cell = ((width * height) / MAX_CELLS).sqrt();
            }
            let cols = ((width / cell).ceil() as usize).max(1);
            let rows = ((height / cell).ceil() as usize).max(1);
            let mut buckets = vec![Vec::new(); cols * rows];
            for (i, p) in points.iter().enumerate() {
                let (cx, cy) = Self::cell_of(p, min_x, min_y, cell, cols, rows);
                buckets[cy * cols + cx].push(i as u32);
            }
            NestedVecGrid {
                points,
                buckets,
                cols,
                cell,
                min_x,
                min_y,
                rows,
            }
        }

        fn cell_of(
            p: &Point,
            min_x: f64,
            min_y: f64,
            cell: f64,
            cols: usize,
            rows: usize,
        ) -> (usize, usize) {
            let cx = ((p.x - min_x) / cell).floor();
            let cy = ((p.y - min_y) / cell).floor();
            let cx = if cx.is_finite() && cx > 0.0 {
                (cx as usize).min(cols - 1)
            } else {
                0
            };
            let cy = if cy.is_finite() && cy > 0.0 {
                (cy as usize).min(rows - 1)
            } else {
                0
            };
            (cx, cy)
        }

        fn range_query(&self, center: Point, radius: f64) -> Vec<u32> {
            let mut out = Vec::new();
            if self.points.is_empty() || radius < 0.0 || radius.is_nan() {
                return out;
            }
            let r2 = radius * radius;
            let (lo_cx, lo_cy) = Self::cell_of(
                &Point::new(center.x - radius, center.y - radius),
                self.min_x,
                self.min_y,
                self.cell,
                self.cols,
                self.rows,
            );
            let (hi_cx, hi_cy) = Self::cell_of(
                &Point::new(center.x + radius, center.y + radius),
                self.min_x,
                self.min_y,
                self.cell,
                self.cols,
                self.rows,
            );
            for cy in lo_cy..=hi_cy {
                for cx in lo_cx..=hi_cx {
                    for &idx in &self.buckets[cy * self.cols + cx] {
                        if self.points[idx as usize].distance_sq(&center) <= r2 {
                            out.push(idx);
                        }
                    }
                }
            }
            out
        }
    }

    const CASES: u32 = 128;

    /// Exact hit sequences — order matters, duplicates included.
    #[test]
    fn csr_range_query_sequence_matches_nested_vec() {
        let gen = |r: &mut DetRng| {
            let points = gen_points(r, 150);
            let q = gen_query(r, -0.5..1.5);
            (points, q, f64_in(r, 0.0..0.8), f64_in(r, 0.001..0.5))
        };
        for_all(
            "csr_range_query_sequence_matches_nested_vec",
            CASES,
            gen,
            |&(ref points, q, radius, cell)| {
                let csr = GridIndex::with_cell_size(points.clone(), cell);
                let reference = NestedVecGrid::new(points.clone(), cell);
                assert_eq!(csr.range_query(q, radius), reference.range_query(q, radius));
            },
        );
    }
}

/// Incremental maintenance (DESIGN.md §12): after an arbitrary
/// interleaving of insert / swap_remove / relocate / compact, the
/// mutated grid must answer every query with the exact *sequence* a
/// fresh build over the live points returns — not just the same set.
mod mutation_equivalence {
    use super::{gen_points, gen_query, gen_vendors};
    use muaa_core::Point;
    use muaa_spatial::{GridIndex, VendorIndex};
    use muaa_testkit::{f64_in, for_all, pick, usize_in, vec_of, DetRng};

    /// One abstract mutation; indices are resolved modulo the live
    /// population when the op is applied.
    #[derive(Clone, Debug)]
    enum Op {
        Insert(f64, f64),
        Remove(usize),
        Relocate(usize, f64, f64),
        Compact,
    }

    fn gen_op(rng: &mut DetRng) -> Op {
        match pick(rng, &[3, 3, 3, 1]) {
            0 => Op::Insert(rng.gen_f64(), rng.gen_f64()),
            1 => Op::Remove(usize_in(rng, 0..256)),
            2 => Op::Relocate(usize_in(rng, 0..256), rng.gen_f64(), rng.gen_f64()),
            _ => Op::Compact,
        }
    }

    /// Range queries on the mutated grid reproduce a from-scratch
    /// build element for element, in order, after every prefix of the
    /// op sequence.
    #[test]
    fn mutated_grid_matches_fresh_build_order() {
        let gen = |r: &mut DetRng| {
            let initial = gen_points(r, 60);
            let ops = vec_of(r, 0..40, gen_op);
            let q = gen_query(r, -0.2..1.2);
            (initial, ops, q, f64_in(r, 0.0..0.6), f64_in(r, 0.01..0.4))
        };
        for_all(
            "mutated_grid_matches_fresh_build_order",
            96,
            gen,
            |&(ref initial, ref ops, q, radius, cell)| {
                let mut live = initial.clone();
                let mut idx = GridIndex::with_cell_size(live.clone(), cell);
                for op in ops {
                    match op {
                        Op::Insert(x, y) => {
                            let p = Point::new(*x, *y);
                            let id = idx.insert(p);
                            assert_eq!(id as usize, live.len());
                            live.push(p);
                        }
                        Op::Remove(i) => {
                            if !live.is_empty() {
                                let id = (i % live.len()) as u32;
                                idx.swap_remove(id);
                                live.swap_remove(id as usize);
                            }
                        }
                        Op::Relocate(i, x, y) => {
                            if !live.is_empty() {
                                let id = (i % live.len()) as u32;
                                let p = Point::new(*x, *y);
                                idx.relocate(id, p);
                                live[id as usize] = p;
                            }
                        }
                        Op::Compact => idx.compact(),
                    }
                    assert_eq!(idx.len(), live.len());
                    idx.debug_validate();
                    let fresh = GridIndex::with_cell_size(live.clone(), cell);
                    assert_eq!(
                        idx.range_query(q, radius),
                        fresh.range_query(q, radius),
                        "range after {op:?}"
                    );
                }
            },
        );
    }

    /// Vendor radius mutations: after an arbitrary sequence of
    /// `set_radius` calls, the covering *set* equals brute force
    /// (covering order after mutation is unspecified — the solver
    /// layer canonicalises, so the property compares sorted).
    #[test]
    fn vendor_radius_mutations_match_brute_force() {
        let gen = |r: &mut DetRng| {
            let vendors = gen_vendors(r, 1..40);
            let updates = vec_of(r, 0..24, |r| (usize_in(r, 0..256), f64_in(r, 0.0..0.6)));
            (vendors, updates, gen_query(r, 0.0..1.0))
        };
        for_all(
            "vendor_radius_mutations_match_brute_force",
            96,
            gen,
            |&(ref vendors, ref updates, q)| {
                let mut vendors = vendors.clone();
                let mut index = VendorIndex::new(&vendors);
                for &(j, r) in updates {
                    let vid = muaa_core::VendorId::from(j % vendors.len());
                    index.set_radius(vid, r);
                    vendors[vid.index()].radius = r;
                    index.debug_validate();
                    let mut got = index.covering(q);
                    got.sort_unstable();
                    let expect: Vec<muaa_core::VendorId> = vendors
                        .iter()
                        .enumerate()
                        .filter(|(_, v)| v.location.distance_sq(&q) <= v.radius * v.radius)
                        .map(|(i, _)| muaa_core::VendorId::from(i))
                        .collect();
                    assert_eq!(got, expect, "after set_radius({vid}, {r})");
                }
            },
        );
    }
}
