//! A uniform grid index over a point set, with incremental maintenance.
//!
//! Points are bucketed into square cells; a circular range query visits
//! only the cells overlapping the query disc. For MUAA workloads
//! (points roughly in `[0,1]²`, query radii a few percent of the space)
//! this is the textbook structure: build is `O(n)`, queries touch
//! `O(r²/cell²)` cells.
//!
//! Each cell is one row of a [`CsrDir`] (DESIGN.md §11): the cell's
//! points as `(id, x, y)` entries, ids ascending, so a scan reads the
//! coordinates beside the ids and never looks a point up. A build lays
//! the rows out back to back in cell order with one counting sort, and a
//! query visits the overlapping cells row-major, each cell's entries in
//! id order — the sequence the nested-`Vec` buckets this replaced
//! produced.
//!
//! ## Incremental maintenance (DESIGN.md §12)
//!
//! [`insert`](GridIndex::insert), [`swap_remove`](GridIndex::swap_remove)
//! and [`relocate`](GridIndex::relocate) patch cell rows with the
//! sorted-row operations the eligibility index uses: an insert appends
//! the new, largest id to its cell; a rename or a move takes an entry out
//! of one sorted row and puts it into another. Rows stay ascending, so a
//! query returns **exactly the sequence a fresh build would** — the
//! rebuild-equivalence invariant the `delta_equivalence` suite pins — and
//! `CsrDir`'s own compaction keeps the arena bounded. Only when the live
//! bounding box would give a fresh build other geometry does the grid
//! rebuild ([`compact`](GridIndex::compact)).

use muaa_core::csr::CsrDir;
use muaa_core::Point;
use std::cmp::Ordering;

/// One point filed in its cell's row. Entries compare by id alone, so
/// the sorted-row patches find an entry by its id; the coordinates ride
/// along for the scan.
#[derive(Clone, Copy, Debug, Default)]
struct Entry {
    id: u32,
    at: Point,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id
    }
}

impl Eq for Entry {}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.id.cmp(&other.id)
    }
}

/// A grid index over a point set. Entries are `(index, point)` pairs
/// where `index` is the caller's identifier (e.g. a customer index);
/// mutations keep ids dense the same way the instance does (appends take
/// the next id, [`swap_remove`](Self::swap_remove) renames the last id).
///
/// ```
/// use muaa_core::Point;
/// use muaa_spatial::GridIndex;
///
/// let points = vec![Point::new(0.1, 0.1), Point::new(0.9, 0.9), Point::new(0.12, 0.1)];
/// let mut index = GridIndex::new(points, 0.05);
/// let mut hits = index.range_query(Point::new(0.1, 0.1), 0.05);
/// hits.sort_unstable();
/// assert_eq!(hits, vec![0, 2]);
/// index.relocate(1, Point::new(0.11, 0.1));
/// assert_eq!(index.range_query(Point::new(0.1, 0.1), 0.05).len(), 3);
/// ```
#[derive(Debug)]
pub struct GridIndex {
    /// Every point, indexed by caller id; serves [`point`](Self::point).
    points: Vec<Point>,
    /// One row per cell, row-major: the cell's entries ascending by id.
    cells: CsrDir<Entry>,
    cols: usize,
    rows: usize,
    cell: f64,
    min_x: f64,
    min_y: f64,
    /// The requested (pre-clamp) cell size, so rebuilds reproduce the
    /// constructor's geometry decisions exactly.
    cell_param: f64,
    /// Bounds of the live points, as [`bounds`] would report them.
    live_bounds: (f64, f64, f64, f64),
    /// How many live points lie exactly on each side of `live_bounds`
    /// (`[lo_x, lo_y, hi_x, hi_y]`). A mutation off a boundary point
    /// only forces an O(n) bounds rescan when the *last* point pinning
    /// that side goes away — point sets with clamped coordinates pile
    /// thousands of points onto the box and would otherwise rescan on
    /// nearly every mutation.
    extreme_counts: [usize; 4],
}

impl GridIndex {
    /// Build an index over `points` with a target cell size. The cell
    /// size is clamped so the grid never exceeds ~4M cells.
    pub fn with_cell_size(points: Vec<Point>, cell: f64) -> Self {
        assert!(cell.is_finite() && cell > 0.0, "cell size must be positive");
        let mut grid = GridIndex {
            points,
            cells: CsrDir::default(),
            cols: 1,
            rows: 1,
            cell,
            min_x: 0.0,
            min_y: 0.0,
            cell_param: cell,
            live_bounds: (0.0, 0.0, 0.0, 0.0),
            extreme_counts: [0; 4],
        };
        grid.compact();
        grid
    }

    /// Build with a cell size heuristically matched to `expected_radius`
    /// (cells the size of the typical query radius minimise the number
    /// of cells visited per query without over-bucketing).
    pub fn new(points: Vec<Point>, expected_radius: f64) -> Self {
        let r = if expected_radius.is_finite() && expected_radius > 1e-9 {
            expected_radius
        } else {
            0.01
        };
        Self::with_cell_size(points, r)
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` iff no points are indexed.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The point stored for `index`.
    pub fn point(&self, index: usize) -> Point {
        self.points[index]
    }

    // --- incremental maintenance -------------------------------------

    /// Append a point under the next dense id and return that id.
    pub fn insert(&mut self, p: Point) -> u32 {
        let id = self.points.len() as u32;
        if self.points.is_empty() {
            self.live_bounds = (p.x, p.y, p.x, p.y);
            self.extreme_counts = [1; 4];
        } else {
            self.expand_live(p);
        }
        self.points.push(p);
        if self.geometry_stale() {
            self.compact();
        } else {
            self.attach(id);
        }
        id
    }

    /// Remove `id`; the point holding the **last** id takes `id` (the
    /// same swap-remove renaming [`muaa_core::Delta::RemoveCustomer`]
    /// applies to the instance).
    pub fn swap_remove(&mut self, id: u32) {
        let last = (self.points.len() - 1) as u32;
        self.detach(id);
        if id != last {
            self.detach(last);
        }
        let removed = self.points.swap_remove(id as usize);
        if id != last {
            self.attach(id);
        }
        self.shrink_live(removed);
        if self.geometry_stale() {
            self.compact();
        }
    }

    /// Move `id` to a new position.
    pub fn relocate(&mut self, id: u32, p: Point) {
        let old = self.points[id as usize];
        self.detach(id);
        self.points[id as usize] = p;
        self.attach(id);
        self.expand_live(p);
        self.shrink_live(old);
        if self.geometry_stale() {
            self.compact();
        }
    }

    /// Rebuild the grid from the live points: geometry from their
    /// bounds, cells by a stable counting sort in id order. The result
    /// is byte-identical to `GridIndex::with_cell_size(points,
    /// cell_param)` on the current point set, and it is how the
    /// constructor builds.
    pub fn compact(&mut self) {
        self.live_bounds = bounds(&self.points);
        self.extreme_counts = count_extremes(&self.points, self.live_bounds);
        (self.cell, self.cols, self.rows) = geometry(self.live_bounds, self.cell_param);
        (self.min_x, self.min_y) = (self.live_bounds.0, self.live_bounds.1);
        // Cell assignment is embarrassingly parallel; the scatter visits
        // points in id order, so every row comes out ascending.
        let cell_ids = muaa_core::par::par_map(&self.points, 4096, |_, p| self.cell_index(p));
        let mut counts = vec![0usize; self.cols * self.rows];
        for &c in &cell_ids {
            counts[c] += 1;
        }
        let points = &self.points;
        self.cells = CsrDir::transpose(
            cell_ids.iter().map(std::slice::from_ref),
            counts.into_iter(),
            |c| c,
            |k| Entry {
                id: k as u32,
                at: points[k],
            },
        );
    }

    /// Take `id`'s entry out of its cell's row. `points[id]` must still
    /// hold the position the entry was filed under.
    fn detach(&mut self, id: u32) {
        let (c, entry) = self.entry(id);
        self.cells.remove_sorted(c, entry);
    }

    /// File `id`, at its current point, into its cell's row.
    fn attach(&mut self, id: u32) {
        let (c, entry) = self.entry(id);
        self.cells.insert_sorted(c, entry);
    }

    /// `id`'s cell under the current geometry, and its entry there.
    fn entry(&self, id: u32) -> (usize, Entry) {
        let at = self.points[id as usize];
        (self.cell_index(&at), Entry { id, at })
    }

    /// Grow the live bounds to cover `p`, keeping the per-side pin
    /// counts in step: a strictly new extreme restarts its side's count
    /// at one, landing exactly on an existing side adds a pin.
    fn expand_live(&mut self, p: Point) {
        let b = &mut self.live_bounds;
        let c = &mut self.extreme_counts;
        if p.x < b.0 {
            b.0 = p.x;
            c[0] = 1;
        } else if p.x == b.0 {
            c[0] += 1;
        }
        if p.y < b.1 {
            b.1 = p.y;
            c[1] = 1;
        } else if p.y == b.1 {
            c[1] += 1;
        }
        if p.x > b.2 {
            b.2 = p.x;
            c[2] = 1;
        } else if p.x == b.2 {
            c[2] += 1;
        }
        if p.y > b.3 {
            b.3 = p.y;
            c[3] = 1;
        } else if p.y == b.3 {
            c[3] += 1;
        }
    }

    /// Account for `removed` leaving the live set. Each side it pinned
    /// loses one pin; only when a side's *last* pin goes away do the
    /// bounds actually need an O(n) rescan. `self.points` must already
    /// reflect the removal (or relocation).
    fn shrink_live(&mut self, removed: Point) {
        let (lo_x, lo_y, hi_x, hi_y) = self.live_bounds;
        let c = &mut self.extreme_counts;
        let mut rescan = false;
        if removed.x == lo_x {
            c[0] -= 1;
            rescan |= c[0] == 0;
        }
        if removed.y == lo_y {
            c[1] -= 1;
            rescan |= c[1] == 0;
        }
        if removed.x == hi_x {
            c[2] -= 1;
            rescan |= c[2] == 0;
        }
        if removed.y == hi_y {
            c[3] -= 1;
            rescan |= c[3] == 0;
        }
        if rescan {
            self.live_bounds = bounds(&self.points);
            self.extreme_counts = count_extremes(&self.points, self.live_bounds);
        }
    }

    /// `true` iff a fresh build on the live points would pick different
    /// grid geometry (origin, cell size or cell counts) than the current
    /// cells use — queries would then emit hits in a different cell
    /// order than the fresh build, so the caller must rebuild.
    fn geometry_stale(&self) -> bool {
        let (eff_cell, cols, rows) = geometry(self.live_bounds, self.cell_param);
        self.min_x != self.live_bounds.0
            || self.min_y != self.live_bounds.1
            || self.cell != eff_cell
            || self.cols != cols
            || self.rows != rows
    }

    /// Cell coordinates of `p` under the current geometry.
    #[inline]
    fn cell_xy(&self, p: &Point) -> (usize, usize) {
        cell_of(p, self.min_x, self.min_y, self.cell, self.cols, self.rows)
    }

    /// Flat (row-major) cell index of `p` under the current geometry.
    #[inline]
    fn cell_index(&self, p: &Point) -> usize {
        let (cx, cy) = self.cell_xy(p);
        cy * self.cols + cx
    }

    // --- queries -----------------------------------------------------

    /// Visit every entry whose cell overlaps the query disc as
    /// `f(id, squared distance to center)`, in fresh-build order: cells
    /// row-major, ids ascending within a cell. Callers apply their own
    /// radius predicate.
    #[cfg_attr(any(), muaa::hot)]
    pub(crate) fn visit_candidates(&self, center: Point, radius: f64, mut f: impl FnMut(u32, f64)) {
        // Counting (not strict): `f` may grow a caller-reused output
        // buffer; only the steady state must be allocation-free.
        let _hot = muaa_core::sanitize::AllocGuard::counting("grid.visit_candidates");
        if self.points.is_empty() || radius < 0.0 || radius.is_nan() {
            return;
        }
        let (lo_cx, lo_cy) = self.cell_xy(&Point::new(center.x - radius, center.y - radius));
        let (hi_cx, hi_cy) = self.cell_xy(&Point::new(center.x + radius, center.y + radius));
        for cy in lo_cy..=hi_cy {
            let row = cy * self.cols;
            for c in row + lo_cx..=row + hi_cx {
                for e in self.cells.row(c) {
                    f(e.id, e.at.distance_sq(&center));
                }
            }
        }
    }

    /// Indices of all points within `radius` (inclusive) of `center`,
    /// appended to `out` in unspecified order. `out` is cleared first.
    #[cfg_attr(any(), muaa::hot)]
    pub fn range_query_into(&self, center: Point, radius: f64, out: &mut Vec<u32>) {
        let _hot = muaa_core::sanitize::AllocGuard::counting("grid.range_query_into");
        out.clear();
        let r2 = radius * radius;
        self.visit_candidates(center, radius, |id, d2| {
            if d2 <= r2 {
                // Caller-reused buffer, in-capacity at steady state;
                // the counting guard pins it. lint: allow(hot_alloc)
                out.push(id);
            }
        });
    }

    /// Convenience wrapper around [`range_query_into`](Self::range_query_into).
    pub fn range_query(&self, center: Point, radius: f64) -> Vec<u32> {
        let mut out = Vec::new();
        self.range_query_into(center, radius, &mut out);
        out
    }

    /// Validate the index's structural invariants (DESIGN.md §13): one
    /// `CsrDir` row per cell passing its own check, every id filed
    /// exactly once — in the cell its point falls in, with that point's
    /// coordinates — geometry a fresh build would pick, and live bounds
    /// and pin counts equal to a from-scratch scan. A no-op unless
    /// `debug_assertions` are on; the mutation property tests call it
    /// after every delta.
    pub fn debug_validate(&self) {
        if !cfg!(debug_assertions) {
            return;
        }
        let n = self.points.len();
        let cells = self.cols * self.rows;
        assert_eq!(self.cells.spans().len(), cells, "one row per cell");
        self.cells.debug_validate("grid");
        // Rows are strictly ascending and an entry can only sit in its
        // point's cell, so no id is filed twice; with `live == n` and
        // every id in range, each is filed exactly once.
        assert_eq!(self.cells.live(), n, "every id must be filed once");
        for c in 0..cells {
            for e in self.cells.row(c) {
                let id = e.id as usize;
                assert!(id < n, "cell {c} names out-of-range id {id}");
                let p = self.points[id];
                assert_eq!(
                    (e.at.x.to_bits(), e.at.y.to_bits()),
                    (p.x.to_bits(), p.y.to_bits()),
                    "cell {c}: id {id}'s coordinates drifted from its point"
                );
                assert_eq!(self.cell_index(&p), c, "id {id} filed under the wrong cell");
            }
        }
        assert!(
            !self.geometry_stale(),
            "geometry differs from a fresh build's"
        );
        if n > 0 {
            let fresh = bounds(&self.points);
            assert_eq!(
                self.live_bounds, fresh,
                "live_bounds drifted from a from-scratch scan"
            );
            assert_eq!(
                self.extreme_counts,
                count_extremes(&self.points, fresh),
                "extreme_counts drifted from a from-scratch scan"
            );
        }
    }
}

/// Effective cell size and cell counts a build over `bounds` with the
/// requested `cell_param` uses. Shared by the build and the staleness
/// check so both agree bit-for-bit.
fn geometry(
    (min_x, min_y, max_x, max_y): (f64, f64, f64, f64),
    cell_param: f64,
) -> (f64, usize, usize) {
    let width = (max_x - min_x).max(f64::MIN_POSITIVE);
    let height = (max_y - min_y).max(f64::MIN_POSITIVE);
    let mut cell = cell_param;
    // Clamp the grid to a sane number of cells.
    const MAX_CELLS: f64 = 4_000_000.0;
    if (width / cell) * (height / cell) > MAX_CELLS {
        cell = ((width * height) / MAX_CELLS).sqrt();
    }
    let cols = ((width / cell).ceil() as usize).max(1);
    let rows = ((height / cell).ceil() as usize).max(1);
    (cell, cols, rows)
}

/// Bounding box of `points`. An empty set gets the degenerate box at
/// the origin, so its grid has one cell whatever the cell size (its
/// queries return nothing either way).
fn bounds(points: &[Point]) -> (f64, f64, f64, f64) {
    let mut min_x = f64::INFINITY;
    let mut min_y = f64::INFINITY;
    let mut max_x = f64::NEG_INFINITY;
    let mut max_y = f64::NEG_INFINITY;
    for p in points {
        min_x = min_x.min(p.x);
        min_y = min_y.min(p.y);
        max_x = max_x.max(p.x);
        max_y = max_y.max(p.y);
    }
    if points.is_empty() {
        (0.0, 0.0, 0.0, 0.0)
    } else {
        (min_x, min_y, max_x, max_y)
    }
}

/// Per-side pin counts for [`GridIndex::shrink_live`]: how many of
/// `points` lie exactly on each side of `b` (`[lo_x, lo_y, hi_x, hi_y]`).
fn count_extremes(points: &[Point], b: (f64, f64, f64, f64)) -> [usize; 4] {
    let mut c = [0usize; 4];
    for p in points {
        if p.x == b.0 {
            c[0] += 1;
        }
        if p.y == b.1 {
            c[1] += 1;
        }
        if p.x == b.2 {
            c[2] += 1;
        }
        if p.y == b.3 {
            c[3] += 1;
        }
    }
    c
}

/// Cell coordinates of `p`, clamped into the grid.
#[inline]
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

#[cfg(test)]
mod tests {
    use super::*;

    fn pts(coords: &[(f64, f64)]) -> Vec<Point> {
        coords.iter().map(|&(x, y)| Point::new(x, y)).collect()
    }

    #[test]
    fn range_query_finds_exactly_in_range_points() {
        let idx = GridIndex::new(pts(&[(0.0, 0.0), (0.5, 0.0), (1.0, 0.0), (0.0, 0.4)]), 0.5);
        let mut got = idx.range_query(Point::new(0.0, 0.0), 0.5);
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 3]);
    }

    #[test]
    fn range_query_radius_is_inclusive() {
        let idx = GridIndex::new(pts(&[(0.3, 0.4)]), 0.1);
        // distance from origin is exactly 0.5
        assert_eq!(idx.range_query(Point::new(0.0, 0.0), 0.5), vec![0]);
        assert!(idx.range_query(Point::new(0.0, 0.0), 0.49).is_empty());
    }

    #[test]
    fn range_query_empty_index() {
        let idx = GridIndex::new(Vec::new(), 0.1);
        assert!(idx.range_query(Point::new(0.5, 0.5), 1.0).is_empty());
    }

    /// An empty point set gets one cell whatever the cell size: a radius
    /// class created empty by a radius update (or emptied by one) would
    /// otherwise lay out millions of empty cells over the fallback box.
    #[test]
    fn empty_grid_has_one_cell() {
        for r in [1e-3, 5e-4, 1e-7] {
            let mut idx = GridIndex::new(Vec::new(), r);
            assert_eq!((idx.cols, idx.rows), (1, 1), "r = {r}");
            assert_eq!(idx.cells.spans().len(), 1, "r = {r}");
            assert!(idx.range_query(Point::new(0.0, 0.0), 1.0).is_empty());
            idx.debug_validate();
            // Emptied by removal, the grid shrinks back to one cell.
            idx.insert(Point::new(0.2, 0.3));
            idx.insert(Point::new(0.9, 0.7));
            idx.swap_remove(0);
            idx.swap_remove(0);
            assert_eq!((idx.cols, idx.rows), (1, 1), "emptied, r = {r}");
            idx.debug_validate();
        }
    }

    #[test]
    fn range_query_zero_radius_hits_exact_point() {
        let idx = GridIndex::new(pts(&[(0.25, 0.25), (0.26, 0.25)]), 0.1);
        assert_eq!(idx.range_query(Point::new(0.25, 0.25), 0.0), vec![0]);
    }

    #[test]
    fn query_outside_bounding_box_is_safe() {
        let idx = GridIndex::new(pts(&[(0.5, 0.5)]), 0.1);
        assert!(idx.range_query(Point::new(10.0, 10.0), 0.2).is_empty());
        assert_eq!(idx.range_query(Point::new(-5.0, -5.0), 20.0), vec![0]);
    }

    #[test]
    fn range_matches_brute_force_on_random_points() {
        use muaa_core::DetRng;
        let mut rng = DetRng::seed_from_u64(7);
        let points: Vec<Point> = (0..800)
            .map(|_| Point::new(rng.gen_f64(), rng.gen_f64()))
            .collect();
        let idx = GridIndex::new(points.clone(), 0.05);
        for _ in 0..30 {
            let q = Point::new(rng.gen_f64(), rng.gen_f64());
            let r = rng.gen_f64() * 0.2;
            let mut got = idx.range_query(q, r);
            got.sort_unstable();
            let expect: Vec<u32> = points
                .iter()
                .enumerate()
                .filter(|(_, p)| p.distance_sq(&q) <= r * r)
                .map(|(i, _)| i as u32)
                .collect();
            assert_eq!(got, expect);
        }
    }

    #[test]
    fn identical_points_all_returned() {
        let idx = GridIndex::new(pts(&[(0.5, 0.5); 5]), 0.1);
        assert_eq!(idx.range_query(Point::new(0.5, 0.5), 0.01).len(), 5);
    }

    /// Reference implementation with the pre-CSR nested-Vec bucket
    /// layout: buckets filled sequentially in point order, queried in
    /// row-major cell order. The CSR index must reproduce its output
    /// *sequences* (not just sets) exactly.
    struct NestedVecGrid {
        points: Vec<Point>,
        buckets: Vec<Vec<u32>>,
        cols: usize,
        rows: usize,
        cell: f64,
        min_x: f64,
        min_y: f64,
    }

    impl NestedVecGrid {
        fn new(points: Vec<Point>, cell_size: f64) -> Self {
            let (min_x, min_y, max_x, max_y) = bounds(&points);
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
                let (cx, cy) = cell_of(p, min_x, min_y, cell, cols, rows);
                buckets[cy * cols + cx].push(i as u32);
            }
            NestedVecGrid {
                points,
                buckets,
                cols,
                rows,
                cell,
                min_x,
                min_y,
            }
        }

        fn range_query(&self, center: Point, radius: f64) -> Vec<u32> {
            let mut out = Vec::new();
            if self.points.is_empty() || radius < 0.0 || radius.is_nan() {
                return out;
            }
            let r2 = radius * radius;
            let (lo_cx, lo_cy) = cell_of(
                &Point::new(center.x - radius, center.y - radius),
                self.min_x,
                self.min_y,
                self.cell,
                self.cols,
                self.rows,
            );
            let (hi_cx, hi_cy) = cell_of(
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

    /// Deterministic replica of the CSR-vs-nested-Vec property: the
    /// flat layout must return the same hit *sequence* as the bucket
    /// layout for every query (order included). The property version in
    /// `tests/properties.rs` covers random geometry.
    #[test]
    fn csr_layout_matches_nested_vec_reference_order() {
        let points: Vec<Point> = (0..600)
            .map(|i| {
                let a = (i as f64 * 0.618_033_988_749_895) % 1.0;
                let b = (i as f64 * 0.754_877_666_246_693) % 1.0;
                Point::new(a, b)
            })
            .collect();
        for cell in [0.03, 0.11, 0.47] {
            let csr = GridIndex::with_cell_size(points.clone(), cell);
            let reference = NestedVecGrid::new(points.clone(), cell);
            for q in 0..40 {
                let center =
                    Point::new((q as f64 * 0.37) % 1.2 - 0.1, (q as f64 * 0.73) % 1.2 - 0.1);
                let radius = (q as f64 * 0.017) % 0.4;
                assert_eq!(
                    csr.range_query(center, radius),
                    reference.range_query(center, radius),
                    "cell {cell}, query {q}"
                );
            }
        }
    }

    /// Deterministic replica of the incremental-maintenance property
    /// (the property version lives in `tests/properties.rs`): after any
    /// interleaving of insert / swap_remove / relocate / compact, every
    /// query returns the exact sequence a fresh build on the live points
    /// returns.
    #[test]
    fn incremental_maintenance_matches_fresh_build_order() {
        let p_at = |i: u64| {
            Point::new(
                (i as f64 * 0.618_033_988_749_895) % 1.0,
                (i as f64 * 0.754_877_666_246_693) % 1.0,
            )
        };
        let mut live: Vec<Point> = (0..120).map(&p_at).collect();
        let mut idx = GridIndex::with_cell_size(live.clone(), 0.07);
        let mut next = 1000u64;
        // A scripted interleaving that exercises every operation,
        // including renames of entries a build filed and of entries a
        // patch filed.
        for step in 0..400u64 {
            match step % 7 {
                0 | 4 => {
                    next += 1;
                    let p = p_at(next);
                    let id = idx.insert(p);
                    assert_eq!(id as usize, live.len());
                    live.push(p);
                }
                1 | 5 => {
                    if !live.is_empty() {
                        let id = (step.wrapping_mul(2654435761) % live.len() as u64) as u32;
                        idx.swap_remove(id);
                        live.swap_remove(id as usize);
                    }
                }
                2 | 6 => {
                    if !live.is_empty() {
                        let id = (step.wrapping_mul(40503) % live.len() as u64) as u32;
                        next += 1;
                        let p = p_at(next);
                        idx.relocate(id, p);
                        live[id as usize] = p;
                    }
                }
                _ => {
                    if step % 21 == 3 {
                        idx.compact();
                    }
                }
            }
            // Sequence equality against a from-scratch build, every step.
            if step % 13 == 0 || step + 1 == 400 {
                let fresh = GridIndex::with_cell_size(live.clone(), 0.07);
                assert_eq!(idx.len(), live.len());
                for q in 0..12u64 {
                    let center = p_at(3 * q + step);
                    let radius = (q as f64 * 0.029) % 0.3;
                    assert_eq!(
                        idx.range_query(center, radius),
                        fresh.range_query(center, radius),
                        "range step {step} query {q}"
                    );
                }
            }
        }
    }

    /// Boundary-pinned point sets (clamped coordinates pile many points
    /// exactly onto the bounding box): mutations of boundary points must
    /// keep the pin counts — and therefore the live bounds and geometry
    /// staleness — exact, staying fresh-build equivalent throughout.
    /// This is also the O(1)-shrink regression fixture: before the pin
    /// counts, every one of these mutations re-scanned all points.
    #[test]
    fn boundary_pinned_mutations_stay_fresh_build_equivalent() {
        // Half the points clamped onto the box edges, half interior.
        let clamp = |v: f64| v.clamp(0.0, 1.0);
        let p_at = |i: u64| {
            let raw_x = (i as f64 * 0.618_033_988_749_895) % 1.6 - 0.3;
            let raw_y = (i as f64 * 0.754_877_666_246_693) % 1.6 - 0.3;
            Point::new(clamp(raw_x), clamp(raw_y))
        };
        let mut live: Vec<Point> = (0..80).map(p_at).collect();
        let mut idx = GridIndex::with_cell_size(live.clone(), 0.11);
        let mut next = 500u64;
        for step in 0..240u64 {
            match step % 5 {
                0 => {
                    // Relocate a boundary point inward (sheds a pin).
                    let id = (step.wrapping_mul(2654435761) % live.len() as u64) as u32;
                    let p = Point::new(0.2 + (step as f64 * 0.013) % 0.6, 0.5);
                    idx.relocate(id, p);
                    live[id as usize] = p;
                }
                1 => {
                    // Insert a new point exactly on the box (adds pins).
                    next += 1;
                    let p = p_at(next);
                    assert_eq!(idx.insert(p) as usize, live.len());
                    live.push(p);
                }
                2 => {
                    let id = (step.wrapping_mul(40503) % live.len() as u64) as u32;
                    idx.swap_remove(id);
                    live.swap_remove(id as usize);
                }
                3 => {
                    // Relocate onto the box (gains a pin).
                    let id = (step.wrapping_mul(97) % live.len() as u64) as u32;
                    let p = Point::new(1.0, (step as f64 * 0.017) % 1.0);
                    idx.relocate(id, p);
                    live[id as usize] = p;
                }
                _ => {
                    if step % 35 == 4 {
                        idx.compact();
                    }
                }
            }
            let fresh = GridIndex::with_cell_size(live.clone(), 0.11);
            for q in 0..6u64 {
                let center = p_at(7 * q + step);
                let radius = 0.05 + (q as f64 * 0.043) % 0.4;
                assert_eq!(
                    idx.range_query(center, radius),
                    fresh.range_query(center, radius),
                    "range step {step} query {q}"
                );
            }
        }
    }

    /// Compaction restores the exact fresh-build storage layout, not
    /// just fresh-build query answers.
    #[test]
    fn compaction_is_byte_identical_to_fresh_build() {
        let mut idx = GridIndex::with_cell_size(
            (0..200)
                .map(|i| Point::new((i as f64 * 0.37) % 1.0, (i as f64 * 0.53) % 1.0))
                .collect(),
            0.09,
        );
        for i in 0..60u32 {
            match i % 3 {
                0 => {
                    idx.insert(Point::new((i as f64 * 0.11) % 1.0, (i as f64 * 0.19) % 1.0));
                }
                1 => idx.swap_remove(i % idx.len() as u32),
                _ => idx.relocate(
                    (i * 7) % idx.len() as u32,
                    Point::new((i as f64 * 0.23) % 1.0, (i as f64 * 0.29) % 1.0),
                ),
            }
        }
        idx.compact();
        let fresh = GridIndex::with_cell_size((0..idx.len()).map(|i| idx.point(i)).collect(), 0.09);
        // Entries compare by id alone; the layout compares every bit.
        let layout = |g: &GridIndex| -> Vec<(u32, u64, u64)> {
            let bits = |e: &Entry| (e.id, e.at.x.to_bits(), e.at.y.to_bits());
            g.cells.ids().iter().map(bits).collect()
        };
        assert_eq!(layout(&idx), layout(&fresh));
        assert_eq!(idx.cells.spans(), fresh.cells.spans());
        assert_eq!(
            idx.cells.ids().len(),
            idx.len(),
            "arena holds only live entries"
        );
        assert_eq!((idx.cols, idx.rows), (fresh.cols, fresh.rows));
        assert_eq!(idx.cell.to_bits(), fresh.cell.to_bits());
    }

    /// Inserting far outside the original bounding box (geometry change)
    /// and shrinking back below it both stay fresh-build equivalent.
    #[test]
    fn geometry_changes_trigger_rebuild_equivalence() {
        let mut live = pts(&[(0.1, 0.1), (0.4, 0.4), (0.8, 0.2)]);
        let mut idx = GridIndex::with_cell_size(live.clone(), 0.1);
        // Outside the box: forces new geometry.
        let p = Point::new(5.0, -3.0);
        idx.insert(p);
        live.push(p);
        let fresh = GridIndex::with_cell_size(live.clone(), 0.1);
        assert_eq!(
            idx.range_query(Point::new(0.0, 0.0), 10.0),
            fresh.range_query(Point::new(0.0, 0.0), 10.0)
        );
        // Remove it again: bounds shrink back.
        idx.swap_remove(3);
        live.swap_remove(3);
        let fresh = GridIndex::with_cell_size(live.clone(), 0.1);
        assert_eq!(
            idx.range_query(Point::new(0.3, 0.3), 0.5),
            fresh.range_query(Point::new(0.3, 0.3), 0.5)
        );
        // Down to empty and back up.
        idx.swap_remove(2);
        idx.swap_remove(0);
        idx.swap_remove(0);
        assert!(idx.is_empty());
        assert!(idx.range_query(Point::new(0.0, 0.0), 1.0).is_empty());
        let id = idx.insert(Point::new(0.5, 0.5));
        assert_eq!(id, 0);
        assert_eq!(idx.range_query(Point::new(0.5, 0.5), 0.1), vec![0]);
    }
}
