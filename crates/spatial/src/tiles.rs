//! Spatial tiling for the sharded solver engine (DESIGN.md §15): an
//! axis-aligned partition of the data plane into `nx × ny` rectangular
//! tiles, with a *conservative* disc → tile-range intersection.
//!
//! Two properties carry the sharding correctness proof:
//!
//! * **Partition.** [`TileGrid::tile_of`] maps every finite point to
//!   exactly one tile: coordinates are clamped into the grid's bounding
//!   box, so even points outside the box (customers can move anywhere
//!   after the grid is built) land in a unique border tile.
//! * **Coverage.** Both axis maps are monotone (a clamped floor of an
//!   affine function), so for any point `p` with `|p.x − c.x| ≤ r` and
//!   `|p.y − c.y| ≤ r`, `tile_of(p)` lies inside
//!   [`TileGrid::disc_tiles`]`(c, r)` — the tile rectangle spanned by
//!   the disc's bounding square. In particular every point within
//!   (Euclidean or clamped-Euclidean) distance `r` of `c` lives in a
//!   covered tile, which is exactly the vendor-replication rule the
//!   sharded engine needs.
//!
//! The intersection is a superset test (a corner tile may not truly
//! touch the disc); shards re-check pair validity exactly, so the only
//! cost of slack is replication, never correctness.

use muaa_core::Point;

/// Hard ceiling on the tile count, far above any useful shard fan-out.
const MAX_TILES: usize = 1 << 20;

/// An `nx × ny` rectangular tiling of a bounding box. Tiles are
/// numbered row-major: `tile = ty * nx + tx`, ascending in `y` then `x`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TileGrid {
    min_x: f64,
    min_y: f64,
    /// Tiles per unit length on each axis (`nx / width`, `ny / height`).
    inv_w: f64,
    inv_h: f64,
    nx: u32,
    ny: u32,
}

impl TileGrid {
    /// Build a grid of roughly `tiles` tiles over the bounding box of
    /// `points`, with the axis split chosen to keep tiles near-square.
    /// Degenerate inputs (no points, all-coincident points, `tiles` of
    /// 0) fall back to small positive extents / one tile.
    pub fn new(points: &[Point], tiles: usize) -> Self {
        let mut lo = Point::new(f64::INFINITY, f64::INFINITY);
        let mut hi = Point::new(f64::NEG_INFINITY, f64::NEG_INFINITY);
        for p in points {
            if p.is_finite() {
                lo = Point::new(lo.x.min(p.x), lo.y.min(p.y));
                hi = Point::new(hi.x.max(p.x), hi.y.max(p.y));
            }
        }
        if !lo.is_finite() || !hi.is_finite() {
            // Empty input: the unit square the paper maps everything to.
            lo = Point::new(0.0, 0.0);
            hi = Point::new(1.0, 1.0);
        }
        Self::from_bounds(lo, hi, tiles)
    }

    /// Build a grid of roughly `tiles` tiles over an explicit bounding
    /// box `[lo, hi]`.
    pub fn from_bounds(lo: Point, hi: Point, tiles: usize) -> Self {
        let tiles = tiles.clamp(1, MAX_TILES);
        let w = (hi.x - lo.x).max(1e-12);
        let h = (hi.y - lo.y).max(1e-12);
        // Near-square tiles: nx/ny ≈ w/h with nx·ny ≤ tiles.
        let mut nx = (tiles as f64 * w / h).sqrt().round() as u64;
        nx = nx.clamp(1, tiles as u64);
        let ny = ((tiles as u64) / nx).max(1);
        TileGrid {
            min_x: lo.x,
            min_y: lo.y,
            inv_w: nx as f64 / w,
            inv_h: ny as f64 / h,
            nx: nx as u32,
            ny: ny as u32,
        }
    }

    /// Total number of tiles (`nx · ny`; at most the requested count).
    #[inline]
    pub fn tiles(&self) -> usize {
        self.nx as usize * self.ny as usize
    }

    /// Tiles along the x axis.
    #[inline]
    pub fn nx(&self) -> u32 {
        self.nx
    }

    /// Tiles along the y axis.
    #[inline]
    pub fn ny(&self) -> u32 {
        self.ny
    }

    /// Clamped monotone axis map: `floor((v − min) · inv)` clamped to
    /// `[0, n)`. NaN maps to 0 (instance validation rejects non-finite
    /// coordinates, so this is pure defence).
    #[inline]
    fn axis(v: f64, min: f64, inv: f64, n: u32) -> u32 {
        let t = ((v - min) * inv).floor();
        if t.is_nan() || t < 0.0 {
            0
        } else if t >= n as f64 {
            n - 1
        } else {
            t as u32
        }
    }

    /// The unique tile containing `p` (border tiles absorb anything
    /// outside the bounding box).
    #[inline]
    pub fn tile_of(&self, p: Point) -> u32 {
        let tx = Self::axis(p.x, self.min_x, self.inv_w, self.nx);
        let ty = Self::axis(p.y, self.min_y, self.inv_h, self.ny);
        ty * self.nx + tx
    }

    /// Inclusive tile-coordinate rectangle `(tx0, tx1, ty0, ty1)`
    /// spanned by the disc's bounding square.
    #[inline]
    fn disc_box(&self, center: Point, radius: f64) -> (u32, u32, u32, u32) {
        let r = if radius.is_finite() {
            radius.max(0.0)
        } else {
            0.0
        };
        (
            Self::axis(center.x - r, self.min_x, self.inv_w, self.nx),
            Self::axis(center.x + r, self.min_x, self.inv_w, self.nx),
            Self::axis(center.y - r, self.min_y, self.inv_h, self.ny),
            Self::axis(center.y + r, self.min_y, self.inv_h, self.ny),
        )
    }

    /// The tiles a disc of `radius` around `center` may intersect, in
    /// ascending tile order. Conservative: a superset of the tiles the
    /// disc truly touches, but guaranteed to contain `tile_of(p)` for
    /// every point `p` inside the disc's bounding square (coverage
    /// property; see the module docs).
    pub fn disc_tiles(&self, center: Point, radius: f64) -> impl Iterator<Item = u32> + '_ {
        let (tx0, tx1, ty0, ty1) = self.disc_box(center, radius);
        let nx = self.nx;
        (ty0..=ty1).flat_map(move |ty| (tx0..=tx1).map(move |tx| ty * nx + tx))
    }

    /// `true` iff `tile` is inside the disc's conservative tile range —
    /// the membership test matching [`disc_tiles`](Self::disc_tiles).
    pub fn disc_covers_tile(&self, center: Point, radius: f64, tile: u32) -> bool {
        let (tx0, tx1, ty0, ty1) = self.disc_box(center, radius);
        let (tx, ty) = (tile % self.nx, tile / self.nx);
        (tx0..=tx1).contains(&tx) && (ty0..=ty1).contains(&ty)
    }

    /// Structural self-check (debug builds only): positive axis scales,
    /// non-degenerate tile counts, and the row-major numbering staying
    /// within `tiles()`.
    pub fn debug_validate(&self) {
        if !cfg!(debug_assertions) {
            return;
        }
        assert!(self.nx >= 1 && self.ny >= 1, "degenerate tile axis");
        assert!(
            self.inv_w > 0.0 && self.inv_w.is_finite(),
            "x scale must be positive finite"
        );
        assert!(
            self.inv_h > 0.0 && self.inv_h.is_finite(),
            "y scale must be positive finite"
        );
        assert!(self.tiles() <= MAX_TILES, "tile count escaped its cap");
        let corner = Point::new(self.min_x, self.min_y);
        assert_eq!(self.tile_of(corner), 0, "box corner must map to tile 0");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spread(n: usize) -> Vec<Point> {
        // Deterministic low-discrepancy-ish spread in the unit square.
        (0..n)
            .map(|i| {
                Point::new(
                    (i as f64 * 0.618_033_988_75) % 1.0,
                    (i as f64 * 0.754_877_666_25) % 1.0,
                )
            })
            .collect()
    }

    #[test]
    fn tile_of_is_a_partition() {
        let pts = spread(500);
        for tiles in [1, 2, 7, 16, 64] {
            let grid = TileGrid::new(&pts, tiles);
            grid.debug_validate();
            assert!(grid.tiles() >= 1 && grid.tiles() <= tiles.max(1));
            for p in &pts {
                let t = grid.tile_of(*p);
                assert!((t as usize) < grid.tiles(), "tile {t} out of range");
            }
        }
    }

    #[test]
    fn points_outside_the_box_land_in_border_tiles() {
        let grid = TileGrid::from_bounds(Point::new(0.0, 0.0), Point::new(1.0, 1.0), 16);
        assert_eq!(grid.tile_of(Point::new(-5.0, -5.0)), 0);
        let far = grid.tile_of(Point::new(9.0, 9.0));
        assert_eq!(far as usize, grid.tiles() - 1);
    }

    /// The coverage property the sharding proof rests on: any point
    /// within `r` (in either coordinate) of a disc center maps into the
    /// disc's tile range — including points outside the bounding box.
    #[test]
    fn disc_tiles_cover_every_point_in_the_disc() {
        let pts = spread(300);
        for tiles in [4, 9, 32] {
            let grid = TileGrid::new(&pts, tiles);
            for (k, c) in pts.iter().enumerate() {
                let r = 0.01 + 0.2 * ((k % 7) as f64 / 7.0);
                let covered: Vec<u32> = grid.disc_tiles(*c, r).collect();
                assert!(covered.windows(2).all(|w| w[0] < w[1]), "not ascending");
                for (dx, dy) in [
                    (0.0, 0.0),
                    (r, 0.0),
                    (-r, 0.0),
                    (0.0, r),
                    (0.0, -r),
                    (r * 0.7, -r * 0.7),
                    (-r * 0.99, r * 0.99),
                ] {
                    let p = Point::new(c.x + dx, c.y + dy);
                    let t = grid.tile_of(p);
                    assert!(
                        covered.binary_search(&t).is_ok(),
                        "point {p:?} of disc ({c:?}, {r}) maps to uncovered tile {t}"
                    );
                    assert!(grid.disc_covers_tile(*c, r, t));
                }
            }
        }
    }

    #[test]
    fn disc_membership_matches_enumeration() {
        let grid = TileGrid::from_bounds(Point::new(0.0, 0.0), Point::new(1.0, 1.0), 25);
        let c = Point::new(0.31, 0.64);
        let r = 0.22;
        let listed: Vec<u32> = grid.disc_tiles(c, r).collect();
        for t in 0..grid.tiles() as u32 {
            assert_eq!(
                grid.disc_covers_tile(c, r, t),
                listed.contains(&t),
                "tile {t}"
            );
        }
    }

    #[test]
    fn degenerate_inputs_fall_back_gracefully() {
        // No points.
        let empty = TileGrid::new(&[], 8);
        empty.debug_validate();
        // All points coincident.
        let same = TileGrid::new(&[Point::new(0.5, 0.5); 10], 8);
        same.debug_validate();
        assert!(same.tiles() >= 1);
        // Zero requested tiles clamps to one.
        let one = TileGrid::new(&spread(10), 0);
        assert_eq!(one.tiles(), 1);
        // Zero-radius disc covers exactly the center's tile.
        let grid = TileGrid::from_bounds(Point::new(0.0, 0.0), Point::new(1.0, 1.0), 16);
        let c = Point::new(0.4, 0.8);
        assert_eq!(
            grid.disc_tiles(c, 0.0).collect::<Vec<_>>(),
            vec![grid.tile_of(c)]
        );
    }

    #[test]
    fn aspect_ratio_shapes_the_axis_split() {
        // A wide, flat box should get more x tiles than y tiles.
        let grid = TileGrid::from_bounds(Point::new(0.0, 0.0), Point::new(10.0, 1.0), 16);
        assert!(grid.nx() > grid.ny(), "nx {} ny {}", grid.nx(), grid.ny());
    }
}
