//! A uniform grid index over a point set, with incremental maintenance.
//!
//! Points are bucketed into square cells; a circular range query visits
//! only the cells overlapping the query disc. For MUAA workloads
//! (points roughly in `[0,1]²`, query radii a few percent of the space)
//! this is the textbook structure: build is `O(n)`, queries touch
//! `O(r²/cell²)` cells.
//!
//! Storage is CSR / structure-of-arrays (DESIGN.md §11): instead of one
//! `Vec<u32>` bucket per cell, all point slots are stored cell-sorted in
//! parallel `xs`/`ys`/`slot_ids` arrays with one `cell_off` offset table.
//! A query row (`lo_cx..=hi_cx` within one `cy`) is then a *single
//! contiguous slice* of those arrays, so the distance predicate runs
//! over dense memory with no per-bucket pointer chase — and produces
//! hits in exactly the order the nested-`Vec` layout did (cells in
//! row-major order, points in insertion order within a cell).
//!
//! ## Incremental maintenance (DESIGN.md §12)
//!
//! [`insert`](GridIndex::insert), [`swap_remove`](GridIndex::swap_remove)
//! and [`relocate`](GridIndex::relocate) mutate the index without
//! rebuilding the CSR arrays: removed entries become *tombstones* (dead
//! slots skipped by queries) and new or renamed entries go to small
//! per-cell *overflow* lists kept sorted by id. Because a fresh build's
//! stable counting sort stores each cell's points in ascending-id order,
//! a query that merges a cell's live base run with its overflow list by
//! id emits hits in **exactly the sequence a fresh build would** — the
//! rebuild-equivalence invariant the `delta_equivalence` suite pins.
//! [`compact`](GridIndex::compact) (also triggered automatically once
//! garbage passes ~half the live count, or whenever the fresh-build grid
//! geometry would differ) rebuilds the CSR arrays from the live points,
//! byte-identical to a from-scratch construction.

use muaa_core::hash::IdHasher;
use muaa_core::Point;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;

/// Sentinel in `slot_of` for ids living in an overflow list (or dead).
const NO_SLOT: u32 = u32::MAX;

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
/// assert_eq!(index.k_nearest(Point::new(0.8, 0.8), 1), vec![1]);
/// index.relocate(1, Point::new(0.11, 0.1));
/// assert_eq!(index.range_query(Point::new(0.1, 0.1), 0.05).len(), 3);
/// ```
#[derive(Clone, Debug)]
pub struct GridIndex {
    /// All live points, indexed by caller id; serves [`point`](Self::point).
    points: Vec<Point>,
    /// X coordinates in slot (cell-sorted) order.
    xs: Vec<f64>,
    /// Y coordinates in slot (cell-sorted) order.
    ys: Vec<f64>,
    /// Caller index per slot.
    slot_ids: Vec<u32>,
    /// CSR offsets: slots of cell `c` are `cell_off[c]..cell_off[c+1]`.
    /// Length `cols · rows + 1`.
    cell_off: Vec<u32>,
    cols: usize,
    rows: usize,
    cell: f64,
    min_x: f64,
    min_y: f64,
    /// The requested (pre-clamp) cell size, so rebuilds reproduce the
    /// constructor's geometry decisions exactly.
    cell_param: f64,
    /// Base slot of each id, or [`NO_SLOT`] if it lives in overflow.
    slot_of: Vec<u32>,
    /// Tombstoned base slots (skipped by queries).
    dead: Vec<bool>,
    dead_count: usize,
    /// Per-cell overflow ids, each list sorted ascending. Keyed by cell
    /// index on the id hasher: queries only probe it.
    extra: HashMap<u32, Vec<u32>, BuildHasherDefault<IdHasher>>,
    extra_count: usize,
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
        let live_bounds = bounds(&points);
        let extreme_counts = count_extremes(&points, live_bounds);
        let (eff_cell, cols, rows) = geometry(live_bounds, cell);
        let (xs, ys, slot_ids, cell_off) =
            build_csr(&points, live_bounds.0, live_bounds.1, eff_cell, cols, rows);
        let n = points.len();
        let mut slot_of = vec![NO_SLOT; n];
        for (slot, &id) in slot_ids.iter().enumerate() {
            slot_of[id as usize] = slot as u32;
        }
        GridIndex {
            points,
            xs,
            ys,
            slot_ids,
            cell_off,
            cols,
            rows,
            cell: eff_cell,
            min_x: live_bounds.0,
            min_y: live_bounds.1,
            cell_param: cell,
            slot_of,
            dead: vec![false; n],
            dead_count: 0,
            extra: HashMap::default(),
            extra_count: 0,
            live_bounds,
            extreme_counts,
        }
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
        self.slot_of.push(NO_SLOT);
        if self.geometry_stale() {
            self.compact();
        } else {
            self.attach_extra(id);
            self.maybe_compact();
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
        self.slot_of.swap_remove(id as usize);
        if id != last {
            self.attach_extra(id);
        }
        self.shrink_live(removed);
        if self.geometry_stale() {
            self.compact();
        } else {
            self.maybe_compact();
        }
    }

    /// Move `id` to a new position.
    pub fn relocate(&mut self, id: u32, p: Point) {
        let old = self.points[id as usize];
        let slot = self.slot_of[id as usize];
        if slot != NO_SLOT {
            let old_cell = self.cell_index(&old);
            let new_cell = self.cell_index(&p);
            self.points[id as usize] = p;
            if old_cell == new_cell {
                // Same cell: coordinates update in place, id order and
                // slot layout are untouched.
                self.xs[slot as usize] = p.x;
                self.ys[slot as usize] = p.y;
            } else {
                self.dead[slot as usize] = true;
                self.dead_count += 1;
                self.slot_of[id as usize] = NO_SLOT;
                self.attach_extra(id);
            }
        } else {
            let old_cell = self.cell_index(&old);
            let new_cell = self.cell_index(&p);
            self.points[id as usize] = p;
            if old_cell != new_cell {
                self.remove_extra(old_cell, id);
                self.attach_extra(id);
            }
        }
        self.expand_live(p);
        self.shrink_live(old);
        if self.geometry_stale() {
            self.compact();
        } else {
            self.maybe_compact();
        }
    }

    /// Rebuild the CSR arrays from the live points, dropping every
    /// tombstone and overflow entry. The result is byte-identical to
    /// `GridIndex::with_cell_size(points, cell_param)` on the current
    /// point set — queries before and after compaction return the same
    /// sequences, and post-compaction storage equals a fresh build's.
    pub fn compact(&mut self) {
        self.live_bounds = bounds(&self.points);
        self.extreme_counts = count_extremes(&self.points, self.live_bounds);
        let (eff_cell, cols, rows) = geometry(self.live_bounds, self.cell_param);
        let (xs, ys, slot_ids, cell_off) = build_csr(
            &self.points,
            self.live_bounds.0,
            self.live_bounds.1,
            eff_cell,
            cols,
            rows,
        );
        let n = self.points.len();
        self.slot_of = vec![NO_SLOT; n];
        for (slot, &id) in slot_ids.iter().enumerate() {
            self.slot_of[id as usize] = slot as u32;
        }
        self.xs = xs;
        self.ys = ys;
        self.slot_ids = slot_ids;
        self.cell_off = cell_off;
        self.cols = cols;
        self.rows = rows;
        self.cell = eff_cell;
        self.min_x = self.live_bounds.0;
        self.min_y = self.live_bounds.1;
        self.dead = vec![false; n];
        self.dead_count = 0;
        self.extra.clear();
        self.extra_count = 0;
    }

    /// Kill `id`'s current entry (tombstone its base slot or pull it out
    /// of overflow). `points[id]` must still hold the position the entry
    /// was filed under.
    fn detach(&mut self, id: u32) {
        let slot = self.slot_of[id as usize];
        if slot != NO_SLOT {
            self.dead[slot as usize] = true;
            self.dead_count += 1;
            self.slot_of[id as usize] = NO_SLOT;
        } else {
            let cell = self.cell_index(&self.points[id as usize]);
            self.remove_extra(cell, id);
        }
    }

    /// File `id` (at its current point) into its cell's overflow list,
    /// keeping the list sorted ascending by id.
    fn attach_extra(&mut self, id: u32) {
        let cell = self.cell_index(&self.points[id as usize]);
        let list = self.extra.entry(cell).or_default();
        let pos = list.partition_point(|&e| e < id);
        list.insert(pos, id);
        self.extra_count += 1;
    }

    fn remove_extra(&mut self, cell: u32, id: u32) {
        // Present by construction: remove mirrors a prior insert. lint: allow(unwrap)
        let list = self.extra.get_mut(&cell).expect("overflow cell missing");
        let pos = list
            .iter()
            .position(|&e| e == id)
            .expect("overflow entry missing"); // mirrors insert; lint: allow(unwrap)
        list.remove(pos);
        if list.is_empty() {
            self.extra.remove(&cell);
        }
        self.extra_count -= 1;
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
    /// arrays use — queries would then emit hits in a different cell
    /// order than the fresh build, so the caller must rebuild.
    fn geometry_stale(&self) -> bool {
        let (eff_cell, cols, rows) = geometry(self.live_bounds, self.cell_param);
        self.min_x != self.live_bounds.0
            || self.min_y != self.live_bounds.1
            || self.cell != eff_cell
            || self.cols != cols
            || self.rows != rows
    }

    /// Deferred-compaction policy: rebuild once tombstones + overflow
    /// entries outnumber half the live points (small grids get a grace
    /// allowance so single-digit point sets don't rebuild every call).
    fn maybe_compact(&mut self) {
        if self.dead_count + self.extra_count > self.points.len() / 2 + 8 {
            self.compact();
        }
    }

    /// Flat cell index of `p` under the current geometry.
    #[inline]
    fn cell_index(&self, p: &Point) -> u32 {
        let (cx, cy) = cell_of(p, self.min_x, self.min_y, self.cell, self.cols, self.rows);
        (cy * self.cols + cx) as u32
    }

    // --- queries -----------------------------------------------------

    /// Visit every live entry whose cell overlaps the query disc as
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
        if self.dead_count == 0 && self.extra_count == 0 {
            // Pristine layout: every cell row is one dense scan, and
            // slot order within a cell is ascending id already.
            for cy in lo_cy..=hi_cy {
                let row = cy * self.cols;
                let s = self.cell_off[row + lo_cx] as usize;
                let e = self.cell_off[row + hi_cx + 1] as usize;
                for slot in s..e {
                    let d2 = Point::new(self.xs[slot], self.ys[slot]).distance_sq(&center);
                    f(self.slot_ids[slot], d2);
                }
            }
            return;
        }
        // Mutated layout: merge each cell's live base run (ascending id)
        // with its overflow list (ascending id) so the emission sequence
        // matches a fresh build on the live points.
        for cy in lo_cy..=hi_cy {
            let row = cy * self.cols;
            for cx in lo_cx..=hi_cx {
                let c = row + cx;
                let mut base = (self.cell_off[c] as usize..self.cell_off[c + 1] as usize)
                    .filter(|&slot| !self.dead[slot])
                    .peekable();
                let empty: &[u32] = &[];
                let mut over = self
                    .extra
                    .get(&(c as u32))
                    .map_or(empty, Vec::as_slice)
                    .iter()
                    .copied()
                    .peekable();
                loop {
                    let take_base = match (base.peek(), over.peek()) {
                        (Some(&slot), Some(&oid)) => self.slot_ids[slot] < oid,
                        (Some(_), None) => true,
                        (None, Some(_)) => false,
                        (None, None) => break,
                    };
                    if take_base {
                        // Peeked Some on this branch. lint: allow(unwrap)
                        let slot = base.next().unwrap();
                        let d2 = Point::new(self.xs[slot], self.ys[slot]).distance_sq(&center);
                        f(self.slot_ids[slot], d2);
                    } else {
                        // Peeked Some on this branch. lint: allow(unwrap)
                        let oid = over.next().unwrap();
                        let d2 = self.points[oid as usize].distance_sq(&center);
                        f(oid, d2);
                    }
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

    /// The `k` nearest points to `center` (ties broken by index),
    /// sorted by increasing distance. Uses expanding ring search over
    /// the grid.
    pub fn k_nearest(&self, center: Point, k: usize) -> Vec<u32> {
        if k == 0 || self.points.is_empty() {
            return Vec::new();
        }
        let k = k.min(self.points.len());
        // Expand the search radius until at least k candidates are found,
        // then do a final pass at the confirmed radius to avoid missing
        // closer points in unvisited cells.
        let mut radius = self.cell.max(1e-9);
        // The search must be allowed to grow until it provably covers
        // every indexed point, even when the query lies far outside the
        // bounding box of the data.
        let max_radius = self.farthest_corner_distance(center) + self.cell;
        let mut candidates: Vec<u32> = Vec::new();
        loop {
            self.range_query_into(center, radius, &mut candidates);
            if candidates.len() >= k || radius > max_radius {
                break;
            }
            radius *= 2.0;
        }
        let mut scored: Vec<(f64, u32)> = candidates
            .iter()
            .map(|&i| (self.points[i as usize].distance_sq(&center), i))
            .collect();
        scored.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        scored.truncate(k);
        // The k-th candidate's distance bounds the true answer; re-query
        // at that radius in case the ring expansion overshot cells.
        if let Some(&(dk, _)) = scored.last() {
            let true_r = dk.sqrt();
            if true_r > radius {
                self.range_query_into(center, true_r, &mut candidates);
                scored = candidates
                    .iter()
                    .map(|&i| (self.points[i as usize].distance_sq(&center), i))
                    .collect();
                scored.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                scored.truncate(k);
            }
        }
        scored.into_iter().map(|(_, i)| i).collect()
    }

    /// Distance from `p` to the farthest corner of the grid's bounding
    /// box — an upper bound on the distance to any indexed point.
    fn farthest_corner_distance(&self, p: Point) -> f64 {
        let max_x = self.min_x + self.cols as f64 * self.cell;
        let max_y = self.min_y + self.rows as f64 * self.cell;
        let dx = (p.x - self.min_x).abs().max((p.x - max_x).abs());
        let dy = (p.y - self.min_y).abs().max((p.y - max_y).abs());
        (dx * dx + dy * dy).sqrt()
    }

    /// Number of tombstoned slots plus overflow entries — the garbage
    /// the next [`compact`](Self::compact) will clear. Test/bench hook.
    pub fn garbage(&self) -> usize {
        self.dead_count + self.extra_count
    }

    /// Validate the index's structural invariants (DESIGN.md §13): CSR
    /// layout (monotone offsets, aligned array lengths), the
    /// tombstone/overflow counters, the `slot_of` ↔ `slot_ids`
    /// bijection over live entries, per-cell ascending-id order in both
    /// base runs and overflow lists, and that the incrementally
    /// maintained live bounds and pin counts match a from-scratch scan.
    /// A no-op unless `debug_assertions` are on; the mutation property
    /// tests call it after every delta.
    pub fn debug_validate(&self) {
        if !cfg!(debug_assertions) {
            return;
        }
        let n = self.points.len();
        let slots = self.slot_ids.len();
        let cells = self.cols * self.rows;
        assert_eq!(self.xs.len(), slots, "xs must align with slot_ids");
        assert_eq!(self.ys.len(), slots, "ys must align with slot_ids");
        assert_eq!(self.dead.len(), slots, "dead must align with slot_ids");
        assert_eq!(self.slot_of.len(), n, "slot_of must cover every id");
        assert_eq!(
            self.cell_off.len(),
            cells + 1,
            "one offset per cell plus the end cap"
        );
        assert_eq!(self.cell_off[0], 0, "CSR offsets start at zero");
        assert!(
            self.cell_off.windows(2).all(|w| w[0] <= w[1]),
            "cell_off must be monotone non-decreasing"
        );
        assert_eq!(
            self.cell_off[cells] as usize, slots,
            "final offset caps the slot array"
        );
        assert_eq!(
            self.dead_count,
            self.dead.iter().filter(|&&d| d).count(),
            "dead_count drifted from the tombstone tally"
        );
        // Counter/ordering validation over the overflow lists — order
        // of the map walk cannot affect the result. lint: allow(hash_iter)
        let overflow: usize = self.extra.values().map(Vec::len).sum();
        assert_eq!(
            self.extra_count, overflow,
            "extra_count drifted from the overflow tally"
        );
        // Per-entry assertions only; no value depends on the walk
        // order of the map. lint: allow(hash_iter)
        for (&cell, list) in &self.extra {
            assert!((cell as usize) < cells, "overflow cell {cell} out of range");
            assert!(!list.is_empty(), "empty overflow lists must be pruned");
            assert!(
                list.windows(2).all(|w| w[0] < w[1]),
                "overflow list of cell {cell} is not strictly ascending"
            );
            for &id in list {
                assert!((id as usize) < n, "overflow id {id} out of range");
                assert_eq!(
                    self.slot_of[id as usize], NO_SLOT,
                    "id {id} is filed both in a base slot and in overflow"
                );
                assert_eq!(
                    self.cell_index(&self.points[id as usize]),
                    cell,
                    "overflow id {id} filed under the wrong cell"
                );
            }
        }
        let mut live_slots = 0usize;
        for s in 0..slots {
            if self.dead[s] {
                continue;
            }
            live_slots += 1;
            let id = self.slot_ids[s] as usize;
            assert!(id < n, "live slot {s} names out-of-range id {id}");
            assert_eq!(
                self.slot_of[id], s as u32,
                "live slot {s} not mirrored by slot_of"
            );
            assert_eq!(
                self.xs[s].to_bits(),
                self.points[id].x.to_bits(),
                "slot {s} x coordinate drifted from points[{id}]"
            );
            assert_eq!(
                self.ys[s].to_bits(),
                self.points[id].y.to_bits(),
                "slot {s} y coordinate drifted from points[{id}]"
            );
            let cell = self.cell_index(&self.points[id]) as usize;
            assert!(
                (self.cell_off[cell] as usize..self.cell_off[cell + 1] as usize).contains(&s),
                "live slot {s} sits outside its cell's run"
            );
        }
        assert_eq!(
            live_slots + self.extra_count,
            n,
            "every id must be in exactly one of base slots and overflow"
        );
        for cell in 0..cells {
            let run = self.cell_off[cell] as usize..self.cell_off[cell + 1] as usize;
            let mut prev: Option<u32> = None;
            for s in run {
                if self.dead[s] {
                    continue;
                }
                if let Some(p) = prev {
                    assert!(
                        p < self.slot_ids[s],
                        "live ids of cell {cell} are not ascending"
                    );
                }
                prev = Some(self.slot_ids[s]);
            }
        }
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
/// requested `cell_param` uses. Shared by the constructor, compaction
/// and the staleness check so all three agree bit-for-bit.
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

/// Cell-sorted CSR arrays for `points` under the given geometry.
/// Cell assignment is embarrassingly parallel; the fill is a stable
/// counting sort in point order, so every cell's slot run lists points
/// in ascending-id order — identical to the sequential nested-Vec
/// bucket fill this replaced.
#[allow(clippy::type_complexity)]
fn build_csr(
    points: &[Point],
    min_x: f64,
    min_y: f64,
    cell: f64,
    cols: usize,
    rows: usize,
) -> (Vec<f64>, Vec<f64>, Vec<u32>, Vec<u32>) {
    let cell_ids = muaa_core::par::par_map(points, 4096, |_, p| {
        let (cx, cy) = cell_of(p, min_x, min_y, cell, cols, rows);
        cy * cols + cx
    });
    let n = points.len();
    let cells = cols * rows;
    let mut cell_off = vec![0u32; cells + 1];
    for &c in &cell_ids {
        cell_off[c + 1] += 1;
    }
    for c in 0..cells {
        cell_off[c + 1] += cell_off[c];
    }
    let mut cursor: Vec<u32> = cell_off[..cells].to_vec();
    let mut xs = vec![0.0; n];
    let mut ys = vec![0.0; n];
    let mut slot_ids = vec![0u32; n];
    for (i, &c) in cell_ids.iter().enumerate() {
        let slot = cursor[c] as usize;
        cursor[c] += 1;
        xs[slot] = points[i].x;
        ys[slot] = points[i].y;
        slot_ids[slot] = i as u32;
    }
    (xs, ys, slot_ids, cell_off)
}

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
        (0.0, 0.0, 1.0, 1.0)
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
        assert!(idx.k_nearest(Point::new(0.5, 0.5), 3).is_empty());
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
    fn k_nearest_orders_by_distance() {
        let idx = GridIndex::new(pts(&[(0.9, 0.9), (0.1, 0.0), (0.2, 0.0), (0.5, 0.5)]), 0.1);
        assert_eq!(idx.k_nearest(Point::new(0.0, 0.0), 2), vec![1, 2]);
        assert_eq!(idx.k_nearest(Point::new(0.0, 0.0), 10), vec![1, 2, 3, 0]);
        assert!(idx.k_nearest(Point::new(0.0, 0.0), 0).is_empty());
    }

    #[test]
    fn k_nearest_matches_brute_force_on_random_points() {
        use muaa_core::DetRng;
        let mut rng = DetRng::seed_from_u64(42);
        let points: Vec<Point> = (0..500)
            .map(|_| Point::new(rng.gen_f64(), rng.gen_f64()))
            .collect();
        let idx = GridIndex::new(points.clone(), 0.03);
        for _ in 0..20 {
            let q = Point::new(rng.gen_f64(), rng.gen_f64());
            let got = idx.k_nearest(q, 7);
            let mut brute: Vec<(f64, u32)> = points
                .iter()
                .enumerate()
                .map(|(i, p)| (p.distance_sq(&q), i as u32))
                .collect();
            brute.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            let expect: Vec<u32> = brute.iter().take(7).map(|&(_, i)| i).collect();
            assert_eq!(got, expect);
        }
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
        assert_eq!(idx.k_nearest(Point::new(0.0, 0.0), 3).len(), 3);
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
        // including renames of base-slot and overflow entries.
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
                    assert_eq!(
                        idx.k_nearest(center, 1 + (q as usize % 5)),
                        fresh.k_nearest(center, 1 + (q as usize % 5)),
                        "knn step {step} query {q}"
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
                assert_eq!(
                    idx.k_nearest(center, 1 + (q as usize % 4)),
                    fresh.k_nearest(center, 1 + (q as usize % 4)),
                    "knn step {step} query {q}"
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
        assert_eq!(idx.xs, fresh.xs);
        assert_eq!(idx.ys, fresh.ys);
        assert_eq!(idx.slot_ids, fresh.slot_ids);
        assert_eq!(idx.cell_off, fresh.cell_off);
        assert_eq!((idx.cols, idx.rows), (fresh.cols, fresh.rows));
        assert_eq!(idx.cell.to_bits(), fresh.cell.to_bits());
        assert_eq!(idx.garbage(), 0);
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
