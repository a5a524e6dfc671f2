//! [`SolverContext`]: the shared state every solver runs against —
//! instance, utility model, spatial indexes, and the zero-allocation
//! candidate substrate (DESIGN.md §11): a CSR eligibility index
//! answering "which customers can vendor j reach" / "which vendors
//! cover customer i" as borrowed slices, plus flat structure-of-arrays
//! Pearson moments feeding the batched pair-base kernel
//! [`SolverContext::pair_base_block`].
//!
//! Since DESIGN.md §12 the context is an *epoch-based mutable engine*:
//! [`SolverContext::apply_delta`] patches the instance (via
//! clone-on-first-write), both spatial indexes, both CSR adjacency
//! directions and exactly the touched slots of the pair-base memo —
//! producing a context whose every solver output is bit-identical to a
//! from-scratch build on the post-delta instance (the rebuild
//! equivalence invariant, pinned by `tests/delta_equivalence.rs`).
//! To make that invariant geometry-independent, eligibility rows are
//! stored in *canonical ascending-id order*.

use muaa_core::{
    par, AdType, AdTypeId, CoreError, Customer, CustomerId, Delta, DeltaBatch, Money,
    PearsonUtility, ProblemInstance, UtilityModel, Vendor, VendorId,
};
use muaa_spatial::{GridIndex, VendorIndex};
use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, Ordering};

/// Largest number of live eligible pairs the pair-base memo holds under
/// the **default** cap: 2²³ slots = 64 MiB of `AtomicU64`. Above this,
/// pairs are still evaluated through the fused-moment fast path, just
/// not memoized. Override per context with
/// [`SolverContext::with_pair_cache_cap`].
const MEMO_MAX_PAIRS: usize = 1 << 23;

/// Default pair-cache cap in bytes (64 MiB = 2²³ live eligible pairs),
/// the value [`SolverContext::with_pair_cache_cap`] starts from.
pub const DEFAULT_PAIR_CACHE_CAP: usize = MEMO_MAX_PAIRS * std::mem::size_of::<AtomicU64>();

/// Chunk floor of [`SolverContext::fill_memo`]: a context with at most
/// this many customers fills inline, a larger one in at most one chunk
/// per this many customers. So small live contexts (tag selection
/// re-solves a 600-customer one per candidate) spawn no thread for a
/// fill that is mostly hits.
const FILL_MIN_CUSTOMERS: usize = 4096;

/// Sentinel marking an unfilled memo slot. This is a NaN bit pattern;
/// [`SolverContext::pair_base`] never returns NaN (non-finite distances
/// are mapped to 0 and similarities are clamped), so no real value
/// collides with it.
const MEMO_EMPTY: u64 = u64::MAX;

/// Precomputed per-customer Pearson moments, plus the cap of the
/// pair-base memo whose slots ride along the c2v eligibility arena
/// ([`CsrDir::slots`]).
///
/// Moments are stored as flat structure-of-arrays (DESIGN.md §11):
/// `weights` holds the customers × tags activity-weight matrix
/// row-major, `sw`/`swx`/`swxx` one scalar per customer. The batched
/// kernel walks customer rows of these arrays directly — no per-pair
/// struct lookup, no allocation.
struct PairCache {
    /// Tag-universe size (row stride of `weights`).
    tags: usize,
    /// Activity weights `α_x(φ_i)`, customers × tags, row-major.
    weights: Vec<f64>,
    /// `Σ_x w_x` per customer.
    sw: Vec<f64>,
    /// `Σ_x w_x · ψ_i[x]` per customer.
    swx: Vec<f64>,
    /// `Σ_x w_x · ψ_i[x]²` per customer.
    swxx: Vec<f64>,
    /// Cap (in live eligible pairs) the memo must fit under; persisted
    /// so deltas that grow or shrink the eligible set re-evaluate the
    /// allocation decision against the *configured* cap, not the
    /// default.
    cap_pairs: usize,
}

impl PairCache {
    /// Compute every customer's moments straight into its row of the
    /// flat arrays, sequentially: [`SolverContext::indexed`] already
    /// runs this beside the spatial index builds.
    fn build(instance: &ProblemInstance, pearson: &PearsonUtility) -> Self {
        let (n, tags) = (instance.num_customers(), pearson.activity().tags());
        let mut cache = PairCache {
            tags,
            weights: Vec::with_capacity(n * tags),
            sw: Vec::with_capacity(n),
            swx: Vec::with_capacity(n),
            swxx: Vec::with_capacity(n),
            cap_pairs: MEMO_MAX_PAIRS,
        };
        for c in instance.customers() {
            cache.push_customer(pearson, c);
        }
        cache
    }

    /// Number of customer rows in the moment tables.
    fn customers(&self) -> usize {
        self.sw.len()
    }

    /// Append one customer's moments, written in place into a new row
    /// of `weights`.
    fn push_customer(&mut self, pearson: &PearsonUtility, c: &Customer) {
        let start = self.weights.len();
        self.weights.resize(start + self.tags, 0.0);
        let (sw, swx, swxx) = pearson.customer_moments_into(c, &mut self.weights[start..]);
        self.sw.push(sw);
        self.swx.push(swx);
        self.swxx.push(swxx);
    }

    /// Swap-remove customer row `i`, mirroring
    /// [`Delta::RemoveCustomer`]'s id rename: the last row's moments
    /// move into row `i`.
    fn swap_remove_customer(&mut self, i: usize) {
        let last = self.customers() - 1;
        if i != last && self.tags > 0 {
            let (head, tail) = self.weights.split_at_mut(last * self.tags);
            head[i * self.tags..(i + 1) * self.tags].copy_from_slice(&tail[..self.tags]);
        }
        self.weights.truncate(last * self.tags);
        self.sw.swap_remove(i);
        self.swx.swap_remove(i);
        self.swxx.swap_remove(i);
    }
}

/// One direction of the eligibility adjacency as a *span-arena* CSR
/// (DESIGN.md §12): `spans[k] = (start, len, cap)` gives row `k` its
/// own run of `cap` cells in the shared `ids` arena. The first `len`
/// hold the row's ids sorted ascending (the canonical order —
/// geometry-independent, so incrementally patched rows match
/// from-scratch builds element for element); the rest are the row's
/// slack.
///
/// Unlike classic offset-array CSR, rows are independently resizable.
/// An insertion shifts within the run while slack lasts; a full row
/// first moves to the arena tail with its capacity doubled, so a row
/// that grows to n ids is copied O(log n) times (amortized O(1) per
/// insert). A removal shifts in place and leaves the freed cell as
/// slack. Runs left behind by moves are garbage: compaction repacks
/// every row dense (cap = len) once [`within_bound`](Self::within_bound)
/// fails, which keeps the arena within 4 × live + 192 ids. Spans are
/// `u32`: 4 G ids ≈ 32 GiB — beyond any in-memory instance.
#[derive(Debug)]
struct CsrDir<T> {
    /// `(start, len, cap)` into `ids`, one per row.
    spans: Vec<(u32, u32, u32)>,
    ids: Vec<T>,
    /// Total live elements (Σ span lens).
    live: usize,
    /// Total reserved cells (Σ span caps): live ids plus slack.
    reserved: usize,
    /// The pair-base memo (DESIGN.md §10), on the c2v direction of a
    /// memoized context only: `slots[p]` holds the `f64` bits of pair
    /// `(row, ids[p])`, or [`MEMO_EMPTY`]. Every operation below moves a
    /// slot together with its id, so a value follows its pair through
    /// row moves, swap-removes and compaction. A pair added to a row
    /// starts empty, including one that lands in slack, which can still
    /// hold a removed pair's bits. Relaxed atomics: every thread that
    /// fills a slot computes the same deterministic value, so racing
    /// writers are benign, and a slot publishes no other data.
    slots: Option<Vec<AtomicU64>>,
}

impl<T> Default for CsrDir<T> {
    fn default() -> Self {
        CsrDir {
            spans: Vec::new(),
            ids: Vec::new(),
            live: 0,
            reserved: 0,
            slots: None,
        }
    }
}

/// `n` empty memo slots.
fn empty_slots(n: usize) -> impl Iterator<Item = AtomicU64> {
    (0..n).map(|_| AtomicU64::new(MEMO_EMPTY))
}

/// Append copies of `slots[range]` to `slots`: the slot twin of
/// `Vec::extend_from_within`, which atomics (not `Clone`) cannot use.
fn extend_slots_from_within(slots: &mut Vec<AtomicU64>, range: std::ops::Range<usize>) {
    slots.reserve(range.len());
    for p in range {
        let bits = slots[p].load(Ordering::Relaxed);
        slots.push(AtomicU64::new(bits));
    }
}

impl<T: Copy + Ord + Default> CsrDir<T> {
    /// Build from per-row lists, densely packed (cap = len).
    fn from_lists(lists: Vec<Vec<T>>) -> Self {
        let total: usize = lists.iter().map(Vec::len).sum();
        assert!(
            total <= u32::MAX as usize,
            "eligibility index exceeds u32 offset range"
        );
        let mut spans = Vec::with_capacity(lists.len());
        let mut ids = Vec::with_capacity(total);
        for list in &lists {
            spans.push((ids.len() as u32, list.len() as u32, list.len() as u32));
            ids.extend_from_slice(list);
        }
        CsrDir {
            spans,
            ids,
            live: total,
            reserved: total,
            slots: None,
        }
    }

    #[inline]
    fn row(&self, k: usize) -> &[T] {
        let (start, len, _) = self.spans[k];
        &self.ids[start as usize..(start + len) as usize]
    }

    /// Give row `k` a run of at least `need` cells. A run that is too
    /// small moves to the arena tail with its capacity at least
    /// doubled, taking its ids and their memo slots along; the old run
    /// becomes garbage. The caller compacts once it is done with `k`.
    fn make_room(&mut self, k: usize, need: usize) {
        let (start, len, cap) = self.spans[k];
        if need <= cap as usize {
            return;
        }
        let new_cap = need.max(2 * cap as usize);
        let (lo, hi) = (start as usize, (start + len) as usize);
        let tail = self.ids.len();
        assert!(
            tail + new_cap <= u32::MAX as usize,
            "eligibility index exceeds u32 offset range"
        );
        self.ids.extend_from_within(lo..hi);
        self.ids.resize(tail + new_cap, T::default());
        if let Some(slots) = &mut self.slots {
            extend_slots_from_within(slots, lo..hi);
            slots.extend(empty_slots(new_cap - len as usize));
        }
        self.spans[k] = (tail as u32, len, new_cap as u32);
        self.reserved += new_cap - cap as usize;
    }

    /// Replace row `k` with `new` (sorted), every pair with an empty
    /// memo slot: in place when it fits the row's run.
    fn set_row(&mut self, k: usize, new: &[T]) {
        self.make_room(k, new.len());
        let (start, len, _) = self.spans[k];
        let run = start as usize..start as usize + new.len();
        self.ids[run.clone()].copy_from_slice(new);
        if let Some(slots) = &self.slots {
            for slot in &slots[run] {
                slot.store(MEMO_EMPTY, Ordering::Relaxed);
            }
        }
        self.spans[k].1 = new.len() as u32;
        self.live = self.live - len as usize + new.len();
        self.maybe_compact();
    }

    /// Append a new row holding `new` (sorted), densely, with empty memo
    /// slots.
    fn push_row(&mut self, new: &[T]) {
        self.spans.push((self.ids.len() as u32, 0, 0));
        self.set_row(self.spans.len() - 1, new);
    }

    /// Swap-remove row `k`: the last row takes index `k`, keeping its
    /// span and therefore its memo slots.
    fn swap_remove_row(&mut self, k: usize) {
        let (_, len, cap) = self.spans.swap_remove(k);
        self.live -= len as usize;
        self.reserved -= cap as usize;
        self.maybe_compact();
    }

    /// Insert `id` into sorted row `k` (no-op if already present). The
    /// row's other pairs keep their memo slots; the new one starts empty.
    fn insert_sorted(&mut self, k: usize, id: T) {
        let Err(pos) = self.row(k).binary_search(&id) else {
            return;
        };
        let len = self.spans[k].1 as usize;
        self.make_room(k, len + 1);
        let lo = self.spans[k].0 as usize;
        self.ids.copy_within(lo + pos..lo + len, lo + pos + 1);
        self.ids[lo + pos] = id;
        if let Some(slots) = &mut self.slots {
            // The first slack cell rotates to `pos`; it may still hold a
            // removed pair's bits, so it starts empty.
            slots[lo + pos..=lo + len].rotate_right(1);
            slots[lo + pos].store(MEMO_EMPTY, Ordering::Relaxed);
        }
        self.spans[k].1 += 1;
        self.live += 1;
        self.maybe_compact();
    }

    /// Remove `id` from sorted row `k` (no-op if absent). In place: the
    /// row's tail shifts left and the freed cell becomes slack.
    fn remove_sorted(&mut self, k: usize, id: T) {
        let (start, len, _) = self.spans[k];
        let (lo, hi) = (start as usize, (start + len) as usize);
        let Ok(pos) = self.ids[lo..hi].binary_search(&id) else {
            return;
        };
        self.ids.copy_within(lo + pos + 1..hi, lo + pos);
        if let Some(slots) = &mut self.slots {
            // The removed pair's slot rotates into the slack.
            slots[lo + pos..hi].rotate_left(1);
        }
        self.spans[k].1 -= 1;
        self.live -= 1;
        self.maybe_compact();
    }

    /// The arena bound that compaction restores after every update:
    /// garbage (cells outside every run) at most the reserved size, and
    /// slack (reserved cells past each row's length) at most the live
    /// size, each give or take 64 cells. Together: at most 4 × live +
    /// 192 ids. Insertions alone never break it, since a moved row's
    /// capacity stays under twice its length and its old runs sum to
    /// less than its capacity.
    fn within_bound(&self) -> bool {
        self.ids.len() <= 2 * self.reserved + 64 && self.reserved <= 2 * self.live + 64
    }

    /// Structural self-check, free unless `debug_assertions` are on:
    /// every run stays inside the arena and holds its row, no two runs
    /// overlap, `live` and `reserved` equal the span-length and capacity
    /// sums, the arena is within its bound, and every row is strictly
    /// ascending (the canonical order the rebuild-equivalence invariant
    /// depends on).
    fn debug_validate(&self, what: &str) {
        if !cfg!(debug_assertions) {
            return;
        }
        let (mut total, mut reserved) = (0usize, 0usize);
        for (k, &(start, len, cap)) in self.spans.iter().enumerate() {
            let end = start as usize + cap as usize;
            assert!(len <= cap, "{what}: row {k} holds {len} ids in {cap} cells");
            assert!(
                end <= self.ids.len(),
                "{what}: row {k} run [{start}, {end}) escapes the arena (len {})",
                self.ids.len()
            );
            total += len as usize;
            reserved += cap as usize;
            assert!(
                self.row(k).windows(2).all(|w| w[0] < w[1]),
                "{what}: row {k} is not strictly ascending"
            );
        }
        let mut runs: Vec<(u32, u32)> = self
            .spans
            .iter()
            .filter(|&&(_, _, cap)| cap > 0)
            .map(|&(start, _, cap)| (start, start + cap))
            .collect();
        runs.sort_unstable();
        for w in runs.windows(2) {
            assert!(
                w[0].1 <= w[1].0,
                "{what}: runs [{}, {}) and [{}, {}) overlap",
                w[0].0,
                w[0].1,
                w[1].0,
                w[1].1
            );
        }
        assert_eq!(
            self.live, total,
            "{what}: live counter drifted from the span-length sum"
        );
        assert_eq!(
            self.reserved, reserved,
            "{what}: reserved counter drifted from the capacity sum"
        );
        assert!(
            self.within_bound(),
            "{what}: arena of {} ids past its bound (reserved {}, live {})",
            self.ids.len(),
            self.reserved,
            self.live
        );
        if let Some(slots) = &self.slots {
            assert_eq!(
                slots.len(),
                self.ids.len(),
                "{what}: memo slots must pair one-to-one with arena ids"
            );
        }
    }

    /// Repack rows densely (cap = len) once the arena leaves its bound.
    fn maybe_compact(&mut self) {
        if self.within_bound() {
            return;
        }
        let mut ids = Vec::with_capacity(self.live);
        let mut slots = self.slots.as_ref().map(|_| Vec::with_capacity(self.live));
        for span in &mut self.spans {
            let (start, len, _) = *span;
            let range = start as usize..(start + len) as usize;
            *span = (ids.len() as u32, len, len);
            ids.extend_from_slice(&self.ids[range.clone()]);
            if let (Some(new), Some(old)) = (&mut slots, &self.slots) {
                new.extend(
                    old[range]
                        .iter()
                        .map(|s| AtomicU64::new(s.load(Ordering::Relaxed))),
                );
            }
        }
        self.ids = ids;
        self.slots = slots;
        self.reserved = self.live;
    }

    /// The memo slot of pair `(k, id)`, found by binary search in row
    /// `k`: `None` when the memo is off or `id` is not in the row (an
    /// ineligible pair).
    #[inline]
    fn slot(&self, k: usize, id: T) -> Option<&AtomicU64> {
        let slots = self.slots.as_ref()?;
        let pos = self.row(k).binary_search(&id).ok()?;
        Some(&slots[self.spans[k].0 as usize + pos])
    }

    /// Allocate the memo cold, or drop it, so that it exists iff the
    /// live pair count fits `cap_pairs`. A memo that still fits keeps
    /// its values.
    fn fit_slots(&mut self, cap_pairs: usize) {
        let fits = 0 < cap_pairs && self.live <= cap_pairs;
        if fits != self.slots.is_some() {
            self.slots = fits.then(|| empty_slots(self.ids.len()).collect());
        }
    }
}

/// Bidirectional vendor ↔ customer eligibility adjacency: one [`CsrDir`]
/// per direction, rows sorted ascending by id. The c2v direction also
/// carries the pair-base memo.
#[derive(Default)]
struct EligibilityIndex {
    /// Vendor → eligible customers.
    v2c: CsrDir<CustomerId>,
    /// Customer → eligible (covering) vendors, plus the memo slots.
    c2v: CsrDir<VendorId>,
}

impl EligibilityIndex {
    /// Pair a freshly packed v2c with its transpose over `customers`
    /// rows, by counting sort: count each customer's vendors, lay the
    /// rows out densely by prefix sum, then scatter vendor ids. Vendors
    /// are visited in ascending order, so every c2v row comes out
    /// canonical without a sort.
    fn from_v2c(v2c: CsrDir<CustomerId>, customers: usize) -> Self {
        // Count into each span's cap, then lay the runs out back to
        // back; the scatter below grows each len up to its cap.
        let mut spans = vec![(0u32, 0u32, 0u32); customers];
        for v in 0..v2c.spans.len() {
            for &cid in v2c.row(v) {
                spans[cid.index()].2 += 1;
            }
        }
        let mut start = 0u32;
        for span in &mut spans {
            span.0 = start;
            start += span.2;
        }
        let mut ids = vec![VendorId::default(); v2c.live];
        for v in 0..v2c.spans.len() {
            for &cid in v2c.row(v) {
                let span = &mut spans[cid.index()];
                ids[(span.0 + span.1) as usize] = VendorId::from(v);
                span.1 += 1;
            }
        }
        let c2v = CsrDir {
            spans,
            ids,
            live: v2c.live,
            reserved: v2c.live,
            slots: None,
        };
        EligibilityIndex { v2c, c2v }
    }

    /// Reset vendor `vid`'s memo slots to empty: one binary search per
    /// eligible customer, O(|U_j| log) rather than a sweep over every
    /// customer. A tag change alters the vendor's pair base with each
    /// customer while every customer's moments stay valid, so each
    /// refill is one fused pass against the stored moments.
    fn invalidate_vendor(&self, vid: VendorId) {
        for &cid in self.v2c.row(vid.index()) {
            if let Some(slot) = self.c2v.slot(cid.index(), vid) {
                slot.store(MEMO_EMPTY, Ordering::Relaxed);
            }
        }
    }
}

/// Read-only solver state: the problem instance, the utility model, and
/// (optionally) grid indexes over customer and vendor locations.
///
/// Two construction modes:
///
/// * [`SolverContext::indexed`] — builds the grids; correct whenever
///   the model's `distance` is (clamped) Euclidean distance between the
///   stored locations, i.e. for
///   [`PearsonUtility`](muaa_core::PearsonUtility). The grid serves as
///   a candidate pre-filter; the model's distance remains the
///   authoritative validity check.
/// * [`SolverContext::brute_force`] — no indexes; validity scans all
///   entities. Required for [`TableUtility`](muaa_core::TableUtility)
///   and other non-geometric distance models; fine for small instances.
///
/// Both modes materialize the eligibility index (DESIGN.md §11)
/// eagerly, so [`eligible_customers`](Self::eligible_customers) /
/// [`eligible_vendors`](Self::eligible_vendors) are O(1) slice borrows
/// in every solver inner loop.
pub struct SolverContext<'a> {
    /// Borrowed until the first [`apply_delta`](Self::apply_delta),
    /// which clones the instance so deltas mutate a private copy.
    instance: Cow<'a, ProblemInstance>,
    model: &'a dyn UtilityModel,
    customer_grid: Option<GridIndex>,
    vendor_index: Option<VendorIndex>,
    /// `Some` iff the model downcasts to [`PearsonUtility`]; enables the
    /// fused-moment pair-base fast path.
    pearson: Option<&'a PearsonUtility>,
    cache: Option<PairCache>,
    eligibility: EligibilityIndex,
}

// Manual impl: `model` is a `&dyn UtilityModel`, which has no `Debug`
// bound; summarize the index configuration instead of dumping it.
impl std::fmt::Debug for SolverContext<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SolverContext")
            .field("customers", &self.instance.customers().len())
            .field("vendors", &self.instance.vendors().len())
            .field("indexed", &self.customer_grid.is_some())
            .field("pearson_fast_path", &self.pearson.is_some())
            .field("cached", &self.cache.is_some())
            .finish_non_exhaustive()
    }
}

impl<'a> SolverContext<'a> {
    /// Build a context with spatial indexes (Euclidean models only; see
    /// the type docs). For Pearson models this also precomputes the
    /// per-customer similarity moments and allocates the pair-base memo
    /// (see DESIGN.md §10); the spatial indexes and the cache are built
    /// concurrently, then the eligibility CSR is filled from the grids
    /// and the memo sized to its pairs.
    pub fn indexed(instance: &'a ProblemInstance, model: &'a dyn UtilityModel) -> Self {
        let pearson = model.as_pearson();
        let (indexes, cache) = par::join(
            || {
                let customer_points = instance.customers().iter().map(|c| c.location).collect();
                // No vendors means a mean radius of 0, for which the grid
                // picks its own default cell.
                let mean_radius = instance.stats().mean_radius;
                let customer_grid = GridIndex::new(customer_points, mean_radius);
                let vendor_index = VendorIndex::new(instance.vendors());
                (customer_grid, vendor_index)
            },
            || pearson.map(|p| PairCache::build(instance, p)),
        );
        let mut ctx = SolverContext {
            instance: Cow::Borrowed(instance),
            model,
            customer_grid: Some(indexes.0),
            vendor_index: Some(indexes.1),
            pearson,
            cache,
            eligibility: EligibilityIndex::default(),
        };
        ctx.eligibility = ctx.build_eligibility();
        ctx.fit_memo();
        ctx
    }

    /// Build a context without spatial indexes (any distance model).
    /// Pair validity scans all entities, but Pearson models still get
    /// the moments cache — only non-geometric models (e.g.
    /// [`TableUtility`](muaa_core::TableUtility)) bypass it entirely.
    pub fn brute_force(instance: &'a ProblemInstance, model: &'a dyn UtilityModel) -> Self {
        let pearson = model.as_pearson();
        let mut ctx = SolverContext {
            instance: Cow::Borrowed(instance),
            model,
            customer_grid: None,
            vendor_index: None,
            pearson,
            cache: pearson.map(|p| PairCache::build(instance, p)),
            eligibility: EligibilityIndex::default(),
        };
        ctx.eligibility = ctx.build_eligibility();
        ctx.fit_memo();
        ctx
    }

    /// Run the per-vendor validity scans once, in parallel, and pack
    /// them into the span-arena [`EligibilityIndex`], c2v as their
    /// transpose. Every row comes out in canonical ascending-id order,
    /// so incrementally patched contexts and from-scratch builds expose
    /// identical candidate sequences regardless of grid geometry.
    fn build_eligibility(&self) -> EligibilityIndex {
        let per_vendor = par::par_map(self.instance.vendors(), 4, |j, _| {
            self.valid_customers_scan(VendorId::from(j))
        });
        EligibilityIndex::from_v2c(
            CsrDir::from_lists(per_vendor),
            self.instance.num_customers(),
        )
    }

    /// Drop the pair cache (moments and memo), forcing every pair-base
    /// evaluation through the uncached [`UtilityModel`] calls. Intended
    /// for tests and benchmarks that compare the two paths.
    pub fn without_pair_cache(mut self) -> Self {
        self.cache = None;
        self.pearson = None;
        self.eligibility.c2v.slots = None;
        self
    }

    /// Re-size the pair-base memo cap to `bytes` (default
    /// [`DEFAULT_PAIR_CACHE_CAP`] = 64 MiB). The memo keeps one 8-byte
    /// atomic slot per cell of the customer → vendor eligibility arena
    /// (DESIGN.md §10), and is allocated iff the live eligible pairs
    /// × 8 bytes fit under `bytes`; the arena's row slack and garbage
    /// keep slots too, at most 4 × live + 192 cells in all. Ineligible
    /// pairs are never memoized. `0` disables memoization entirely —
    /// pairs still go through the fused-moment fast path, so values are
    /// unchanged, just recomputed per call. Any already-memoized values
    /// are discarded (the memo restarts cold). The cap persists across
    /// [`apply_delta`](Self::apply_delta) calls: a delta that grows the
    /// eligible pairs past it drops the memo, one that shrinks them back
    /// under re-allocates it cold. No-op for non-Pearson models, which
    /// have no cache.
    pub fn with_pair_cache_cap(mut self, bytes: usize) -> Self {
        if let Some(cache) = &mut self.cache {
            cache.cap_pairs = bytes / std::mem::size_of::<AtomicU64>();
            self.eligibility.c2v.slots = None;
            self.fit_memo();
        }
        self
    }

    /// Allocate (cold) or drop the pair-base memo so that it exists iff
    /// the live eligible pairs fit the configured cap.
    fn fit_memo(&mut self) {
        if let Some(cache) = &self.cache {
            self.eligibility.c2v.fit_slots(cache.cap_pairs);
        }
    }

    /// Number of allocated memo slots (0 without a memo).
    #[cfg(test)]
    pub(crate) fn memo_slots(&self) -> usize {
        self.eligibility.c2v.slots.as_ref().map_or(0, Vec::len)
    }

    /// `true` iff the fused-moment pair cache is active.
    pub fn has_pair_cache(&self) -> bool {
        self.cache.is_some()
    }

    /// The problem instance (the post-delta copy once
    /// [`apply_delta`](Self::apply_delta) has run).
    #[inline]
    pub fn instance(&self) -> &ProblemInstance {
        &self.instance
    }

    /// The instance epoch: bumped once per applied delta, `0` for a
    /// freshly built context on an unmutated instance.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.instance.epoch()
    }

    /// The utility model.
    #[inline]
    pub fn model(&self) -> &'a dyn UtilityModel {
        self.model
    }

    /// `true` iff the pair satisfies the spatial constraint
    /// `d(u_i, v_j) ≤ r_j` under the model's distance.
    pub fn pair_valid(&self, cid: CustomerId, vid: VendorId) -> bool {
        let c = self.instance.customer(cid);
        let v = self.instance.vendor(vid);
        self.model.distance(cid, c, vid, v) <= v.radius
    }

    /// The valid customers `U_j` of a vendor (paper Alg. 1 line 3), as
    /// a borrowed slice of the precomputed eligibility CSR, sorted
    /// ascending by id. The hot accessor: no allocation, no spatial
    /// query.
    #[inline]
    pub fn eligible_customers(&self, vid: VendorId) -> &[CustomerId] {
        self.eligibility.v2c.row(vid.index())
    }

    /// The valid vendors `V'` of a customer (paper Alg. 2 line 2), as a
    /// borrowed slice of the precomputed eligibility CSR, sorted
    /// ascending by id.
    #[inline]
    pub fn eligible_vendors(&self, cid: CustomerId) -> &[VendorId] {
        self.eligibility.c2v.row(cid.index())
    }

    /// Owned copy of [`eligible_customers`](Self::eligible_customers),
    /// for callers that mutate the list. Prefer the slice accessor.
    pub fn valid_customers(&self, vid: VendorId) -> Vec<CustomerId> {
        self.eligible_customers(vid).to_vec()
    }

    /// Validate the candidate substrate's structural invariants
    /// (DESIGN.md §13): both CSR directions densely cover the instance,
    /// every row is canonically ascending and inside its id arena, and
    /// the two directions describe the same pair set. A no-op unless
    /// `debug_assertions` are on; the delta-equivalence property tests
    /// call it after every patched build.
    pub fn debug_validate(&self) {
        if !cfg!(debug_assertions) {
            return;
        }
        let n_c = self.instance.customers().len();
        let n_v = self.instance.vendors().len();
        assert_eq!(
            self.eligibility.v2c.spans.len(),
            n_v,
            "v2c must have one row per vendor"
        );
        assert_eq!(
            self.eligibility.c2v.spans.len(),
            n_c,
            "c2v must have one row per customer"
        );
        self.eligibility.v2c.debug_validate("v2c");
        self.eligibility.c2v.debug_validate("c2v");
        // Every v2c pair must be mirrored in c2v; with equal pair counts
        // and strictly ascending rows on both sides (checked above),
        // one-directional containment is set equality.
        let mut pairs = 0usize;
        for v in 0..n_v {
            for &c in self.eligibility.v2c.row(v) {
                assert!(c.index() < n_c, "v2c row {v} holds out-of-range {c}");
                assert!(
                    self.eligibility
                        .c2v
                        .row(c.index())
                        .binary_search(&VendorId::from(v))
                        .is_ok(),
                    "pair ({c}, v{v}) present in v2c but missing from c2v"
                );
                pairs += 1;
            }
        }
        assert_eq!(
            pairs, self.eligibility.c2v.live,
            "v2c and c2v disagree on the live pair count"
        );
        for c in 0..n_c {
            for &v in self.eligibility.c2v.row(c) {
                assert!(v.index() < n_v, "c2v row {c} holds out-of-range {v}");
            }
        }
        // Row/column invalidation bookkeeping (DESIGN.md §17): the pair
        // cache's flat arrays must track the instance shape, the stored
        // moments must equal a fresh per-customer recompute bit for bit,
        // and every *filled* memo slot must equal a fresh fused
        // evaluation — a stale value surviving a row or column reset
        // (e.g. a missed `invalidate_vendor` on a tag change) fails here.
        let c2v = &self.eligibility.c2v;
        let Some(cache) = &self.cache else {
            assert!(c2v.slots.is_none(), "memo slots without a pair cache");
            return;
        };
        assert_eq!(cache.customers(), n_c, "cache rows must track customers");
        assert_eq!(
            cache.weights.len(),
            n_c * cache.tags,
            "weights matrix must be customers × tags"
        );
        assert_eq!(cache.sw.len(), n_c, "sw must have one entry per customer");
        assert_eq!(cache.swx.len(), n_c, "swx must have one entry per customer");
        assert_eq!(
            cache.swxx.len(),
            n_c,
            "swxx must have one entry per customer"
        );
        if let Some(pearson) = self.pearson {
            for (i, c) in self.instance.customers().iter().enumerate() {
                let m = pearson.customer_moments(c);
                let row = &cache.weights[i * cache.tags..(i + 1) * cache.tags];
                assert!(
                    row.iter()
                        .zip(m.weights())
                        .all(|(a, b)| a.to_bits() == b.to_bits()),
                    "customer {i}: stored weight row drifted from a fresh recompute"
                );
                assert_eq!(cache.sw[i].to_bits(), m.sw().to_bits(), "customer {i} sw");
                assert_eq!(
                    cache.swx[i].to_bits(),
                    m.swx().to_bits(),
                    "customer {i} swx"
                );
                assert_eq!(
                    cache.swxx[i].to_bits(),
                    m.swxx().to_bits(),
                    "customer {i} swxx"
                );
            }
        }
        assert_eq!(
            c2v.slots.is_some(),
            0 < cache.cap_pairs && c2v.live <= cache.cap_pairs,
            "memo must exist iff the live eligible pairs fit the cap"
        );
        let Some(slots) = &c2v.slots else { return };
        for i in 0..n_c {
            let start = c2v.spans[i].0 as usize;
            for (pos, &vid) in c2v.row(i).iter().enumerate() {
                let bits = slots[start + pos].load(Ordering::Relaxed);
                if bits == MEMO_EMPTY {
                    continue;
                }
                let fresh = self
                    .pair_base_fused(cache, CustomerId::from(i), vid)
                    .to_bits();
                assert_eq!(
                    bits, fresh,
                    "stale memo slot (c{i}, {vid}) survived an invalidation"
                );
            }
        }
    }

    /// Owned copy of [`eligible_vendors`](Self::eligible_vendors), for
    /// callers that mutate the list (e.g. NEAREST's distance sort).
    /// Prefer the slice accessor.
    pub fn valid_vendors(&self, cid: CustomerId) -> Vec<VendorId> {
        self.eligible_vendors(cid).to_vec()
    }

    /// Compute a vendor's valid-customer list from scratch (spatial
    /// pre-filter + exact check), in canonical ascending-id order. Used
    /// per vendor to build the eligibility CSR (both directions) and to
    /// recompute rows touched by vendor deltas; solvers read
    /// [`eligible_customers`] instead.
    fn valid_customers_scan(&self, vid: VendorId) -> Vec<CustomerId> {
        let v = self.instance.vendor(vid);
        match &self.customer_grid {
            Some(grid) => {
                let mut pre = Vec::new();
                grid.range_query_into(v.location, v.radius, &mut pre);
                let mut out: Vec<CustomerId> = pre
                    .into_iter()
                    .map(CustomerId::from)
                    .filter(|&cid| self.pair_valid(cid, vid))
                    .collect();
                // Grid emission order depends on cell geometry; sorting
                // makes the row canonical (and thus delta-invariant).
                out.sort_unstable();
                out
            }
            None => self
                .instance
                .customers_enumerated()
                .map(|(cid, _)| cid)
                .filter(|&cid| self.pair_valid(cid, vid))
                .collect(),
        }
    }

    /// Compute a customer's valid-vendor list from scratch, in
    /// canonical ascending-id order: the one c2v row an `AddCustomer`
    /// or `MoveCustomer` delta needs. Builds derive c2v as the
    /// transpose of v2c instead; solvers read [`eligible_vendors`].
    fn valid_vendors_scan(&self, cid: CustomerId) -> Vec<VendorId> {
        let c = self.instance.customer(cid);
        match &self.vendor_index {
            Some(index) => {
                let mut pre = Vec::new();
                index.covering_into(c.location, &mut pre);
                pre.retain(|&vid| self.pair_valid(cid, vid));
                pre.sort_unstable();
                pre
            }
            None => self
                .instance
                .vendors_enumerated()
                .map(|(vid, _)| vid)
                .filter(|&vid| self.pair_valid(cid, vid))
                .collect(),
        }
    }

    /// Vendor ids sorted by model distance from the customer, nearest
    /// first, restricted to valid (covering) vendors — the NEAREST
    /// baseline's candidate order.
    pub fn vendors_by_distance(&self, cid: CustomerId) -> Vec<VendorId> {
        let c = self.instance.customer(cid);
        let mut valid = self.valid_vendors(cid);
        valid.sort_by(|&a, &b| {
            let da = self.model.distance(cid, c, a, self.instance.vendor(a));
            let db = self.model.distance(cid, c, b, self.instance.vendor(b));
            da.total_cmp(&db).then(a.cmp(&b))
        });
        valid
    }

    /// The pair's *base utility* `p_i · s(u_i,v_j,φ) / d(u_i,v_j,φ)`:
    /// Eq. (4) without the ad-type factor. `λ_ijk = base · β_k`, so
    /// callers evaluating several ad types per pair compute this once.
    ///
    /// With a Pearson model this goes through the pair cache: a memo
    /// lookup when the pair is eligible and the memo is allocated,
    /// otherwise a single fused pass over the tag vectors using the
    /// customer's precomputed moments. Both are bit-identical to the
    /// uncached evaluation.
    #[cfg_attr(any(), muaa::hot)]
    pub fn pair_base(&self, cid: CustomerId, vid: VendorId) -> f64 {
        let Some(cache) = &self.cache else {
            return self.pair_base_uncached(cid, vid);
        };
        self.pair_base_cached(cache, cid, vid)
    }

    /// Batched pair-base kernel: evaluate one vendor against a whole
    /// customer slice (typically its
    /// [`eligible_customers`](Self::eligible_customers) list) into
    /// `out` (cleared first; `out[k]` corresponds to `cids[k]`).
    ///
    /// This is the DESIGN.md §11 block kernel: the vendor row is
    /// hoisted out of the loop, each customer's moments are read
    /// straight from the flat SoA arrays, and memo slots are filled as
    /// a side effect. Every value is bit-identical to
    /// [`pair_base`](Self::pair_base) — the memo path performs the same
    /// load/fill per slot, and misses share `pair_base`'s arithmetic.
    /// Callers reuse `out` across vendors for zero steady-state
    /// allocation.
    #[cfg_attr(any(), muaa::hot)]
    pub fn pair_base_block(&self, vid: VendorId, cids: &[CustomerId], out: &mut Vec<f64>) {
        // Counting (not strict) region: the reserve below allocates on a
        // cold scratch buffer; steady-state reuse is what must be free,
        // and the sanitize tests assert exactly that on a warm buffer.
        let _hot = muaa_core::sanitize::AllocGuard::counting("context.pair_base_block");
        out.clear();
        out.reserve(cids.len());
        let Some(cache) = &self.cache else {
            out.extend(cids.iter().map(|&cid| self.pair_base_uncached(cid, vid)));
            return;
        };
        for &cid in cids {
            // In-capacity after the reserve above; the counting
            // guard + sanitize tests pin this. lint: allow(hot_alloc)
            out.push(self.pair_base_cached(cache, cid, vid));
        }
    }

    /// Fill every empty memo slot, customer by customer (DESIGN.md
    /// §10): the c2v arena is walked in contiguous customer chunks, one
    /// per thread, so each customer's moment row is read once for all
    /// its covering vendors instead of once per vendor. GREEDY and RECON
    /// call this before their vendor-major reads of every pair; a
    /// context without a memo has nothing to fill.
    pub(crate) fn fill_memo(&self) {
        let (Some(cache), Some(slots)) = (&self.cache, &self.eligibility.c2v.slots) else {
            return;
        };
        let spans = &self.eligibility.c2v.spans;
        par::par_map(spans, FILL_MIN_CUSTOMERS, |i, &(start, len, _)| {
            let run = start as usize..(start + len) as usize;
            self.fill_row(cache, slots, CustomerId::from(i), run);
        });
    }

    /// [`fill_memo`](Self::fill_memo)'s per-customer body: fill the
    /// empty slots of `cid`'s c2v run through the fused kernel.
    #[cfg_attr(any(), muaa::hot)]
    fn fill_row(
        &self,
        cache: &PairCache,
        slots: &[AtomicU64],
        cid: CustomerId,
        run: std::ops::Range<usize>,
    ) {
        let _hot = muaa_core::sanitize::AllocGuard::strict("context.fill_memo");
        let vids = &self.eligibility.c2v.ids[run.clone()];
        for (slot, &vid) in slots[run].iter().zip(vids) {
            if slot.load(Ordering::Relaxed) == MEMO_EMPTY {
                let base = self.pair_base_fused(cache, cid, vid);
                slot.store(base.to_bits(), Ordering::Relaxed);
            }
        }
    }

    /// The memo path shared by [`pair_base`](Self::pair_base) and the
    /// block kernel: find the pair's slot by binary search in the
    /// customer's (short) c2v row, return a hit, fill a miss. A pair
    /// without a slot — the memo is off, or the pair is ineligible —
    /// takes the fused path unmemoized.
    #[cfg_attr(any(), muaa::hot)]
    fn pair_base_cached(&self, cache: &PairCache, cid: CustomerId, vid: VendorId) -> f64 {
        let Some(slot) = self.eligibility.c2v.slot(cid.index(), vid) else {
            return self.pair_base_fused(cache, cid, vid);
        };
        let bits = slot.load(Ordering::Relaxed);
        if bits != MEMO_EMPTY {
            return f64::from_bits(bits);
        }
        let base = self.pair_base_fused(cache, cid, vid);
        slot.store(base.to_bits(), Ordering::Relaxed);
        base
    }

    /// Fused-moment pair base: distance and similarity in one pass over
    /// the flat SoA moment arrays, no allocation, no virtual dispatch.
    /// Arithmetic is bit-identical to
    /// [`pair_base_uncached`](Self::pair_base_uncached) on a Pearson
    /// model (see `PearsonUtility::similarity_from_parts`).
    #[cfg_attr(any(), muaa::hot)]
    fn pair_base_fused(&self, cache: &PairCache, cid: CustomerId, vid: VendorId) -> f64 {
        let _hot = muaa_core::sanitize::AllocGuard::strict("context.pair_base_fused");
        let pearson = self
            .pearson
            .expect("pair cache exists only for Pearson models");
        let c = self.instance.customer(cid);
        let v = self.instance.vendor(vid);
        let d = c
            .location
            .clamped_distance(&v.location, pearson.min_distance());
        if d <= 0.0 || d.is_nan() || d.is_infinite() {
            return 0.0;
        }
        let i = cid.index();
        let row = &cache.weights[i * cache.tags..(i + 1) * cache.tags];
        let s = PearsonUtility::similarity_from_parts(
            row,
            c.interests.as_slice(),
            cache.sw[i],
            cache.swx[i],
            cache.swxx[i],
            v.tags.as_slice(),
        );
        let base = c.view_probability * s / d;
        muaa_core::sanitize::note_f64(base);
        base
    }

    /// Pair base through the [`UtilityModel`] trait calls — the only
    /// path for non-Pearson models and for contexts stripped with
    /// [`without_pair_cache`](Self::without_pair_cache).
    #[cfg_attr(any(), muaa::hot)]
    fn pair_base_uncached(&self, cid: CustomerId, vid: VendorId) -> f64 {
        let c = self.instance.customer(cid);
        let v = self.instance.vendor(vid);
        let d = self.model.distance(cid, c, vid, v);
        if d <= 0.0 || d.is_nan() || d.is_infinite() {
            return 0.0;
        }
        let base = c.view_probability * self.model.similarity(cid, c, vid, v) / d;
        muaa_core::sanitize::note_f64(base);
        base
    }

    /// Utility `λ_ijk` from a precomputed [`pair_base`](Self::pair_base).
    #[inline]
    #[cfg_attr(any(), muaa::hot)]
    pub fn utility_from_base(&self, base: f64, ad: AdTypeId) -> f64 {
        base * self.instance.ad_type(ad).effectiveness
    }

    /// Budget efficiency `γ_ijk` from a precomputed pair base.
    #[inline]
    #[cfg_attr(any(), muaa::hot)]
    pub fn efficiency_from_base(&self, base: f64, ad: AdTypeId) -> f64 {
        let t = self.instance.ad_type(ad);
        base * t.effectiveness / t.cost.as_dollars()
    }

    /// Utility `λ_ijk` of a full triple.
    pub fn utility(&self, cid: CustomerId, vid: VendorId, ad: AdTypeId) -> f64 {
        self.utility_from_base(self.pair_base(cid, vid), ad)
    }

    /// Budget efficiency `γ_ijk` of a full triple.
    pub fn efficiency(&self, cid: CustomerId, vid: VendorId, ad: AdTypeId) -> f64 {
        self.efficiency_from_base(self.pair_base(cid, vid), ad)
    }

    /// The "best" ad type for a pair under a remaining budget: the
    /// affordable type with the highest budget efficiency (paper
    /// Alg. 2 line 4). Returns `(ad type, λ, γ)`; `None` when nothing
    /// affordable has positive utility.
    #[cfg_attr(any(), muaa::hot)]
    pub fn best_ad_type(
        &self,
        cid: CustomerId,
        vid: VendorId,
        remaining: Money,
    ) -> Option<(AdTypeId, f64, f64)> {
        let _hot = muaa_core::sanitize::AllocGuard::strict("context.best_ad_type");
        let base = self.pair_base(cid, vid);
        if base <= 0.0 {
            return None;
        }
        let mut best: Option<(AdTypeId, f64, f64)> = None;
        for (tid, t) in self.instance.ad_types_enumerated() {
            if t.cost > remaining {
                continue;
            }
            let lambda = base * t.effectiveness;
            let gamma = lambda / t.cost.as_dollars();
            if lambda <= 0.0 {
                continue;
            }
            let better = match best {
                None => true,
                Some((_, _, bg)) => gamma > bg,
            };
            if better {
                best = Some((tid, lambda, gamma));
            }
        }
        best
    }

    /// Like [`best_ad_type`](Self::best_ad_type) but maximizing utility
    /// `λ` instead of efficiency `γ` — what NEAREST uses once the
    /// vendor is fixed.
    #[cfg_attr(any(), muaa::hot)]
    pub fn best_ad_type_by_utility(
        &self,
        cid: CustomerId,
        vid: VendorId,
        remaining: Money,
    ) -> Option<(AdTypeId, f64)> {
        let base = self.pair_base(cid, vid);
        if base <= 0.0 {
            return None;
        }
        let mut best: Option<(AdTypeId, f64)> = None;
        for (tid, t) in self.instance.ad_types_enumerated() {
            if t.cost > remaining {
                continue;
            }
            let lambda = base * t.effectiveness;
            if lambda <= 0.0 {
                continue;
            }
            if best.is_none_or(|(_, bl)| lambda > bl) {
                best = Some((tid, lambda));
            }
        }
        best
    }

    /// Convenience accessors mirroring the instance's.
    #[inline]
    pub fn customer(&self, cid: CustomerId) -> &Customer {
        self.instance.customer(cid)
    }

    /// Vendor lookup.
    #[inline]
    pub fn vendor(&self, vid: VendorId) -> &Vendor {
        self.instance.vendor(vid)
    }

    /// Ad-type lookup.
    #[inline]
    pub fn ad_type(&self, tid: AdTypeId) -> &AdType {
        self.instance.ad_type(tid)
    }

    /// Apply a batch of [`Delta`]s to this context: the instance (via
    /// clone-on-first-write), the spatial indexes, both CSR adjacency
    /// directions and the touched pair-base memo slots are all patched
    /// incrementally — no rebuild. After a successful return, every
    /// query and solver result on this context is **bit-identical** to
    /// one from a [`SolverContext`] built from scratch on the post-delta
    /// instance (DESIGN.md §12), at a cost proportional to the touched
    /// neighborhoods instead of the whole instance.
    ///
    /// Deltas apply front to back; on the first invalid delta an error
    /// is returned and the valid prefix stays applied (matching
    /// [`ProblemInstance::apply_delta`]), so the context remains
    /// consistent either way. Each applied delta bumps the epoch.
    pub fn apply_delta(&mut self, batch: &DeltaBatch) -> Result<(), CoreError> {
        for delta in batch {
            self.apply(delta)?;
        }
        Ok(())
    }

    /// Apply a single delta: instance first (validation + epoch), then
    /// index/CSR/memo maintenance keyed on what the delta can change.
    /// Same contract as [`apply_delta`](Self::apply_delta) for a
    /// one-delta batch; streaming layers that must interleave their own
    /// per-delta bookkeeping (e.g. `BrokerSession`) call this directly.
    pub fn apply(&mut self, delta: &Delta) -> Result<(), CoreError> {
        // Pre-state the patching needs: CSR rows about to be renamed.
        let pre = match delta {
            Delta::RemoveCustomer(cid) if cid.index() < self.instance.num_customers() => {
                let last = self.instance.num_customers() - 1;
                Some((
                    self.eligibility.c2v.row(cid.index()).to_vec(),
                    self.eligibility.c2v.row(last).to_vec(),
                ))
            }
            Delta::MoveCustomer(cid, _) if cid.index() < self.instance.num_customers() => {
                Some((self.eligibility.c2v.row(cid.index()).to_vec(), Vec::new()))
            }
            _ => None,
        };
        self.instance.to_mut().apply(delta)?;
        match delta {
            Delta::AddCustomer(_) => {
                let cid = CustomerId::from(self.instance.num_customers() - 1);
                let c = self.instance.customer(cid);
                if let Some(grid) = &mut self.customer_grid {
                    let local = grid.insert(c.location);
                    debug_assert_eq!(local as usize, cid.index());
                }
                if let (Some(cache), Some(pearson)) = (&mut self.cache, self.pearson) {
                    cache.push_customer(pearson, c);
                }
                let row = self.valid_vendors_scan(cid);
                for &vid in &row {
                    self.eligibility.v2c.insert_sorted(vid.index(), cid);
                }
                self.eligibility.c2v.push_row(&row);
            }
            Delta::RemoveCustomer(cid) => {
                let (row_cid, row_last) = pre.expect("validated remove captures rows");
                // Post-apply, `last` is the id the renamed customer held.
                let last = self.instance.num_customers();
                if let Some(grid) = &mut self.customer_grid {
                    grid.swap_remove(cid.index() as u32);
                }
                if let Some(cache) = &mut self.cache {
                    cache.swap_remove_customer(cid.index());
                }
                for &vid in &row_cid {
                    self.eligibility.v2c.remove_sorted(vid.index(), *cid);
                }
                if cid.index() != last {
                    // The former last customer now answers to `cid`.
                    let old_id = CustomerId::from(last);
                    for &vid in &row_last {
                        self.eligibility.v2c.remove_sorted(vid.index(), old_id);
                        self.eligibility.v2c.insert_sorted(vid.index(), *cid);
                    }
                }
                self.eligibility.c2v.swap_remove_row(cid.index());
            }
            Delta::MoveCustomer(cid, to) => {
                let (old_row, _) = pre.expect("validated move captures row");
                if let Some(grid) = &mut self.customer_grid {
                    grid.relocate(cid.index() as u32, *to);
                }
                let new_row = self.valid_vendors_scan(*cid);
                diff_sorted(&old_row, &new_row, |vid, gained| {
                    if gained {
                        self.eligibility.v2c.insert_sorted(vid.index(), *cid);
                    } else {
                        self.eligibility.v2c.remove_sorted(vid.index(), *cid);
                    }
                });
                // Moments depend only on interests and arrival, but every
                // memoized pair base embeds the old distance: the new row
                // comes with empty slots.
                self.eligibility.c2v.set_row(cid.index(), &new_row);
            }
            Delta::VendorRadius(vid, radius) => {
                let old_row = self.eligibility.v2c.row(vid.index()).to_vec();
                if let Some(index) = &mut self.vendor_index {
                    index.set_radius(*vid, *radius);
                }
                // Pair bases exclude the radius, so memoized values stay:
                // surviving pairs keep their slots through the c2v
                // patches below, gained pairs start empty.
                let new_row = self.valid_customers_scan(*vid);
                diff_sorted(&old_row, &new_row, |cid, gained| {
                    if gained {
                        self.eligibility.c2v.insert_sorted(cid.index(), *vid);
                    } else {
                        self.eligibility.c2v.remove_sorted(cid.index(), *vid);
                    }
                });
                self.eligibility.v2c.set_row(vid.index(), &new_row);
            }
            Delta::VendorTags(vid, _) => {
                // Every memoized pair base of the vendor embeds the
                // similarity against the old tag vector — reset its
                // eligible slots. The per-customer moments depend only
                // on customer state and stay valid, so each refill is
                // one fused pass through the batched kernel.
                self.eligibility.invalidate_vendor(*vid);
                // Eligibility is geometric for the built-in models, but
                // `distance` receives the whole vendor through the trait
                // object, so re-derive the row instead of assuming
                // tag-blindness; for Euclidean models the diff is empty.
                let old_row = self.eligibility.v2c.row(vid.index()).to_vec();
                let new_row = self.valid_customers_scan(*vid);
                diff_sorted(&old_row, &new_row, |cid, gained| {
                    if gained {
                        self.eligibility.c2v.insert_sorted(cid.index(), *vid);
                    } else {
                        self.eligibility.c2v.remove_sorted(cid.index(), *vid);
                    }
                });
                self.eligibility.v2c.set_row(vid.index(), &new_row);
            }
            // Budgets and ad types sit outside every index: eligibility
            // is geometric, pair bases exclude the ad factor, and both
            // are read from the (already updated) instance at use time.
            Delta::VendorBudget(..) | Delta::AdType(..) => {}
        }
        // The eligible pairs may have crossed the persisted cap.
        self.fit_memo();
        Ok(())
    }
}

/// Walk two sorted id lists and report each id present in exactly one:
/// `f(id, true)` for ids gained by `new`, `f(id, false)` for ids lost.
fn diff_sorted<T: Copy + Ord>(old: &[T], new: &[T], mut f: impl FnMut(T, bool)) {
    let (mut i, mut j) = (0, 0);
    while i < old.len() || j < new.len() {
        match (old.get(i), new.get(j)) {
            (Some(&a), Some(&b)) if a == b => {
                i += 1;
                j += 1;
            }
            (Some(&a), Some(&b)) if a < b => {
                f(a, false);
                i += 1;
            }
            (Some(_), Some(&b)) => {
                f(b, true);
                j += 1;
            }
            (Some(&a), None) => {
                f(a, false);
                i += 1;
            }
            (None, Some(&b)) => {
                f(b, true);
                j += 1;
            }
            (None, None) => unreachable!(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use muaa_core::{
        AdType, Customer, InstanceBuilder, PearsonUtility, Point, TagVector, Timestamp, Vendor,
    };

    fn make_instance() -> ProblemInstance {
        InstanceBuilder::new()
            .ad_types([
                AdType::new("TL", Money::from_dollars(1.0), 0.1),
                AdType::new("PL", Money::from_dollars(2.0), 0.4),
            ])
            .customers([
                Customer {
                    location: Point::new(0.5, 0.5),
                    capacity: 2,
                    view_probability: 0.5,
                    interests: TagVector::new(vec![1.0, 0.0]).unwrap(),
                    arrival: Timestamp::MIDNIGHT,
                },
                Customer {
                    location: Point::new(0.9, 0.9),
                    capacity: 1,
                    view_probability: 0.2,
                    interests: TagVector::new(vec![0.0, 1.0]).unwrap(),
                    arrival: Timestamp::MIDNIGHT,
                },
            ])
            .vendors([
                Vendor {
                    location: Point::new(0.5, 0.6),
                    radius: 0.2,
                    budget: Money::from_dollars(3.0),
                    tags: TagVector::new(vec![1.0, 0.0]).unwrap(),
                },
                Vendor {
                    location: Point::new(0.5, 0.4),
                    radius: 0.5,
                    budget: Money::from_dollars(3.0),
                    tags: TagVector::new(vec![0.0, 1.0]).unwrap(),
                },
            ])
            .build()
            .unwrap()
    }

    /// A medium synthetic instance for the CSR / block-kernel tests:
    /// deterministic coordinates, varied radii, several tags.
    fn synthetic_instance(customers: usize, vendors: usize) -> ProblemInstance {
        let tags = 4;
        let frac = |k: usize, m: f64| (k as f64 * m) % 1.0;
        InstanceBuilder::new()
            .ad_types([
                AdType::new("TL", Money::from_dollars(1.0), 0.1),
                AdType::new("PL", Money::from_dollars(2.0), 0.4),
            ])
            .customers((0..customers).map(|i| Customer {
                location: Point::new(frac(i, 0.618_033_988), frac(i, 0.754_877_666)),
                capacity: 1 + (i % 3) as u32,
                view_probability: 0.1 + 0.8 * frac(i, 0.3),
                interests: TagVector::new((0..tags).map(|t| frac(i + t, 0.41)).collect()).unwrap(),
                arrival: Timestamp::from_hours(frac(i, 0.07) * 24.0),
            }))
            .vendors((0..vendors).map(|j| Vendor {
                location: Point::new(frac(j, 0.234_567), frac(j, 0.876_543)),
                radius: 0.02 + 0.2 * frac(j, 0.13),
                budget: Money::from_dollars(2.0 + 5.0 * frac(j, 0.29)),
                tags: TagVector::new((0..tags).map(|t| frac(j + 2 * t, 0.57)).collect()).unwrap(),
            }))
            .build()
            .unwrap()
    }

    #[test]
    fn indexed_and_brute_force_agree_on_validity() {
        let inst = make_instance();
        let model = PearsonUtility::uniform(2);
        let indexed = SolverContext::indexed(&inst, &model);
        let brute = SolverContext::brute_force(&inst, &model);
        for (cid, _) in inst.customers_enumerated() {
            let mut a = indexed.valid_vendors(cid);
            let mut b = brute.valid_vendors(cid);
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "customer {cid}");
        }
        for (vid, _) in inst.vendors_enumerated() {
            let mut a = indexed.valid_customers(vid);
            let mut b = brute.valid_customers(vid);
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "vendor {vid}");
        }
    }

    #[test]
    fn valid_sets_respect_radii() {
        let inst = make_instance();
        let model = PearsonUtility::uniform(2);
        let ctx = SolverContext::indexed(&inst, &model);
        // Customer 0 at (0.5,0.5): vendor 0 (r 0.2, d 0.1) valid,
        // vendor 1 (r 0.5, d 0.1) valid.
        let mut v0 = ctx.valid_vendors(CustomerId::new(0));
        v0.sort_unstable();
        assert_eq!(v0, vec![VendorId::new(0), VendorId::new(1)]);
        // Customer 1 at (0.9,0.9): far from both.
        assert!(ctx.valid_vendors(CustomerId::new(1)).is_empty());
        // Vendor 0 reaches only customer 0.
        assert_eq!(
            ctx.valid_customers(VendorId::new(0)),
            vec![CustomerId::new(0)]
        );
    }

    /// Deterministic replica of the CSR-eligibility property (the
    /// property version lives in `tests/cache_equivalence.rs`): every
    /// slice in the precomputed index must agree with brute-force
    /// `pair_valid` over the full bipartite graph, in both construction
    /// modes.
    #[test]
    fn eligibility_csr_matches_pair_valid_scan() {
        let inst = synthetic_instance(300, 40);
        let model = PearsonUtility::uniform(4);
        for ctx in [
            SolverContext::indexed(&inst, &model),
            SolverContext::brute_force(&inst, &model),
        ] {
            for (vid, _) in inst.vendors_enumerated() {
                let expect: Vec<CustomerId> = inst
                    .customers_enumerated()
                    .map(|(cid, _)| cid)
                    .filter(|&cid| ctx.pair_valid(cid, vid))
                    .collect();
                assert_eq!(ctx.eligible_customers(vid), expect, "vendor {vid}");
            }
            for (cid, _) in inst.customers_enumerated() {
                let expect: Vec<VendorId> = inst
                    .vendors_enumerated()
                    .map(|(vid, _)| vid)
                    .filter(|&vid| ctx.pair_valid(cid, vid))
                    .collect();
                assert_eq!(ctx.eligible_vendors(cid), expect, "customer {cid}");
            }
        }
    }

    /// The c2v transpose at its edge shapes, in both construction
    /// modes: no customers, no vendors, neither, customers no vendor
    /// covers and vendors that cover nobody, at either end of their id
    /// range. c2v keeps exactly one row per customer, each equal to the
    /// customer's own covering scan.
    #[test]
    fn c2v_transpose_handles_empty_sides_and_rows() {
        let base = make_instance();
        let model = PearsonUtility::uniform(2);
        let covered: Vec<Customer> = base.customers().to_vec();
        let vendors: Vec<Vendor> = base.vendors().to_vec();
        let lonely = |x: f64| Customer {
            location: Point::new(x, 0.05),
            ..covered[0].clone()
        };
        let idle = |x: f64| Vendor {
            location: Point::new(x, 0.95),
            radius: 0.01,
            ..vendors[0].clone()
        };
        let mut customers = vec![lonely(0.05)];
        customers.extend(covered.iter().cloned());
        customers.push(lonely(0.95));
        let mut padded = vec![idle(0.05)];
        padded.extend(vendors.iter().cloned());
        padded.push(idle(0.95));
        let shapes = [
            (Vec::new(), Vec::new()),
            (Vec::new(), vendors.clone()),
            (covered.clone(), Vec::new()),
            // The last vendor covers customer 0: a transpose that drops
            // the last v2c row shows here.
            (covered, vendors),
            (customers, padded),
        ];
        for (customers, vendors) in shapes {
            let inst = InstanceBuilder::new()
                .ad_types(base.ad_types().to_vec())
                .customers(customers)
                .vendors(vendors)
                .build()
                .unwrap();
            for ctx in [
                SolverContext::indexed(&inst, &model),
                SolverContext::brute_force(&inst, &model),
            ] {
                assert_eq!(ctx.eligibility.c2v.spans.len(), inst.num_customers());
                assert_eq!(ctx.eligibility.v2c.spans.len(), inst.num_vendors());
                for (cid, _) in inst.customers_enumerated() {
                    assert_eq!(
                        ctx.eligible_vendors(cid),
                        ctx.valid_vendors_scan(cid),
                        "customer {cid}"
                    );
                }
                ctx.debug_validate();
            }
        }
    }

    #[test]
    fn pair_base_block_is_bit_identical_to_pair_base() {
        let inst = synthetic_instance(200, 30);
        let model = PearsonUtility::uniform(4);
        // All three cache configurations: memoized, fused-only (cap 0),
        // and fully uncached.
        let memoized = SolverContext::indexed(&inst, &model);
        let fused = SolverContext::indexed(&inst, &model).with_pair_cache_cap(0);
        let uncached = SolverContext::indexed(&inst, &model).without_pair_cache();
        let mut block = Vec::new();
        for ctx in [&memoized, &fused, &uncached] {
            for (vid, _) in inst.vendors_enumerated() {
                let cids: Vec<CustomerId> = ctx.eligible_customers(vid).to_vec();
                ctx.pair_base_block(vid, &cids, &mut block);
                assert_eq!(block.len(), cids.len());
                for (k, &cid) in cids.iter().enumerate() {
                    assert_eq!(
                        block[k].to_bits(),
                        memoized.pair_base(cid, vid).to_bits(),
                        "pair ({cid}, {vid})"
                    );
                }
            }
        }
    }

    /// The cap counts live eligible pairs at 8 bytes each, not the
    /// customers × vendors table: `make_instance` has 4 pairs, 2 of them
    /// eligible, so 16 bytes hold the whole memo, and any smaller
    /// nonzero cap holds none of it (there is no per-row minimum).
    #[test]
    fn pair_cache_cap_bounds_live_eligible_pairs() {
        let inst = make_instance();
        let model = PearsonUtility::uniform(2);
        let fits = SolverContext::indexed(&inst, &model).with_pair_cache_cap(16);
        assert_eq!(fits.eligibility.c2v.live, 2);
        assert_eq!(fits.memo_slots(), 2);
        let too_small = SolverContext::indexed(&inst, &model).with_pair_cache_cap(15);
        assert_eq!(too_small.memo_slots(), 0);
        let disabled = SolverContext::indexed(&inst, &model).with_pair_cache_cap(0);
        assert_eq!(disabled.memo_slots(), 0);
        assert_eq!(DEFAULT_PAIR_CACHE_CAP, 64 << 20);
        assert_eq!(SolverContext::indexed(&inst, &model).memo_slots(), 2);
        // Values are unchanged in every configuration, eligible and
        // ineligible pairs alike; only the eligible ones are memoized.
        let reference = SolverContext::indexed(&inst, &model).without_pair_cache();
        for ctx in [&fits, &too_small, &disabled] {
            for (cid, _) in inst.customers_enumerated() {
                for (vid, _) in inst.vendors_enumerated() {
                    assert_eq!(
                        ctx.pair_base(cid, vid).to_bits(),
                        reference.pair_base(cid, vid).to_bits()
                    );
                }
            }
            ctx.debug_validate();
        }
        assert_eq!(filled_slots(&fits), eligible_pairs(&fits));
    }

    #[test]
    fn utility_decomposes_via_pair_base() {
        let inst = make_instance();
        let model = PearsonUtility::uniform(2);
        let ctx = SolverContext::indexed(&inst, &model);
        let cid = CustomerId::new(0);
        let vid = VendorId::new(0);
        let base = ctx.pair_base(cid, vid);
        assert!(base > 0.0);
        for (tid, t) in inst.ad_types_enumerated() {
            let direct = model.utility(cid, inst.customer(cid), vid, inst.vendor(vid), t);
            assert!((ctx.utility(cid, vid, tid) - direct).abs() < 1e-12);
            assert!((ctx.utility_from_base(base, tid) - direct).abs() < 1e-12);
            assert!(
                (ctx.efficiency_from_base(base, tid) - direct / t.cost.as_dollars()).abs() < 1e-12
            );
        }
    }

    #[test]
    fn best_ad_type_maximizes_efficiency_under_budget() {
        let inst = make_instance();
        let model = PearsonUtility::uniform(2);
        let ctx = SolverContext::indexed(&inst, &model);
        let cid = CustomerId::new(0);
        let vid = VendorId::new(0);
        // PL: β/c = 0.4/2 = 0.2 per $; TL: 0.1/1 = 0.1 → PL wins when affordable.
        let (tid, lam, gam) = ctx
            .best_ad_type(cid, vid, Money::from_dollars(3.0))
            .unwrap();
        assert_eq!(inst.ad_type(tid).name, "PL");
        assert!(lam > 0.0 && gam > 0.0);
        // With only $1 remaining, TL is the best affordable.
        let (tid, _, _) = ctx
            .best_ad_type(cid, vid, Money::from_dollars(1.0))
            .unwrap();
        assert_eq!(inst.ad_type(tid).name, "TL");
        // With $0.50 nothing fits.
        assert!(ctx.best_ad_type(cid, vid, Money::from_cents(50)).is_none());
    }

    #[test]
    fn best_ad_type_none_for_zero_similarity_pair() {
        let inst = make_instance();
        let model = PearsonUtility::uniform(2);
        let ctx = SolverContext::indexed(&inst, &model);
        // Customer 0 (interests [1,0]) vs vendor 1 (tags [0,1]):
        // anti-correlated, similarity clamps to 0.
        assert!(ctx
            .best_ad_type(CustomerId::new(0), VendorId::new(1), Money::MAX)
            .is_none());
    }

    #[test]
    fn pair_cache_is_bit_identical_to_uncached() {
        let inst = make_instance();
        let model = PearsonUtility::uniform(2);
        let cached = SolverContext::indexed(&inst, &model);
        let uncached = SolverContext::indexed(&inst, &model).without_pair_cache();
        assert!(cached.has_pair_cache());
        assert!(!uncached.has_pair_cache());
        for (cid, _) in inst.customers_enumerated() {
            for (vid, _) in inst.vendors_enumerated() {
                let a = cached.pair_base(cid, vid);
                let b = uncached.pair_base(cid, vid);
                assert_eq!(a.to_bits(), b.to_bits(), "pair ({cid}, {vid})");
                // Second call exercises the memo-hit path.
                assert_eq!(cached.pair_base(cid, vid).to_bits(), a.to_bits());
            }
        }
    }

    #[test]
    fn non_pearson_models_get_no_cache() {
        let inst = make_instance();
        let table = muaa_core::TableUtility::new().with_pair(
            CustomerId::new(0),
            VendorId::new(0),
            0.9,
            7.5,
        );
        let ctx = SolverContext::brute_force(&inst, &table);
        assert!(!ctx.has_pair_cache());
        let base = ctx.pair_base(CustomerId::new(0), VendorId::new(0));
        assert!((base - 0.5 * 0.9 / 7.5).abs() < 1e-12);
    }

    #[test]
    fn brute_force_pearson_still_gets_cache() {
        let inst = make_instance();
        let model = PearsonUtility::uniform(2);
        let ctx = SolverContext::brute_force(&inst, &model);
        assert!(ctx.has_pair_cache());
        let reference = SolverContext::brute_force(&inst, &model).without_pair_cache();
        for (cid, _) in inst.customers_enumerated() {
            for (vid, _) in inst.vendors_enumerated() {
                assert_eq!(
                    ctx.pair_base(cid, vid).to_bits(),
                    reference.pair_base(cid, vid).to_bits()
                );
            }
        }
    }

    /// A customer compatible with `synthetic_instance` (4 tags).
    fn delta_customer(k: usize) -> Customer {
        let frac = |m: f64| (k as f64 * m) % 1.0;
        Customer {
            location: Point::new(frac(0.414_213_562), frac(0.732_050_807)),
            capacity: 1 + (k % 3) as u32,
            view_probability: 0.1 + 0.8 * frac(0.23),
            interests: TagVector::new((0..4).map(|t| ((k + t) as f64 * 0.37) % 1.0).collect())
                .unwrap(),
            arrival: Timestamp::from_hours(frac(0.11) * 24.0),
        }
    }

    /// Every externally observable surface of `ctx` must match `fresh`
    /// exactly: eligibility rows element-for-element and pair bases to
    /// the bit. This is the rebuild-equivalence invariant (DESIGN.md
    /// §12) at the context level; solver-level equivalence is pinned in
    /// `tests/delta_equivalence.rs`.
    fn assert_rebuild_equivalent(ctx: &SolverContext<'_>, fresh: &SolverContext<'_>) {
        ctx.debug_validate();
        fresh.debug_validate();
        let inst = ctx.instance();
        for (vid, _) in inst.vendors_enumerated() {
            assert_eq!(
                ctx.eligible_customers(vid),
                fresh.eligible_customers(vid),
                "vendor {vid} eligibility row"
            );
        }
        for (cid, _) in inst.customers_enumerated() {
            assert_eq!(
                ctx.eligible_vendors(cid),
                fresh.eligible_vendors(cid),
                "customer {cid} eligibility row"
            );
            for (vid, _) in inst.vendors_enumerated() {
                assert_eq!(
                    ctx.pair_base(cid, vid).to_bits(),
                    fresh.pair_base(cid, vid).to_bits(),
                    "pair ({cid}, {vid})"
                );
            }
        }
    }

    /// Deterministic replica of the delta-equivalence property (the
    /// property version lives in `tests/delta_equivalence.rs`): after
    /// every batch, the incrementally patched context matches a
    /// from-scratch build on its post-delta instance, in both
    /// construction modes.
    #[test]
    fn apply_delta_matches_fresh_context() {
        let inst = synthetic_instance(80, 12);
        let model = PearsonUtility::uniform(4);
        let mut ctx = SolverContext::indexed(&inst, &model);
        let mut brute = SolverContext::brute_force(&inst, &model);

        let batches = [
            // Movement and vendor churn.
            DeltaBatch::new()
                .move_customer(CustomerId::new(3), Point::new(0.9, 0.05))
                .move_customer(CustomerId::new(77), Point::new(0.01, 0.99))
                .vendor_radius(VendorId::new(0), 0.3)
                .vendor_radius(VendorId::new(5), 0.0)
                .vendor_budget(VendorId::new(2), Money::from_dollars(11.0)),
            // Arrivals and departures (swap-remove renames), repricing.
            DeltaBatch::new()
                .add_customer(delta_customer(500))
                .add_customer(delta_customer(501))
                .remove_customer(CustomerId::new(0))
                .remove_customer(CustomerId::new(40))
                .ad_type(
                    AdTypeId::new(0),
                    AdType::new("TL", Money::from_dollars(0.5), 0.3),
                ),
            // Remove the last customer, move a renamed one, grow a
            // radius far past its class.
            DeltaBatch::new()
                .remove_customer(CustomerId::new(79))
                .move_customer(CustomerId::new(40), Point::new(0.5, 0.5))
                .vendor_radius(VendorId::new(5), 0.9),
            // Tag churn (column resets) interleaved with row churn.
            DeltaBatch::new()
                .vendor_tags(
                    VendorId::new(2),
                    TagVector::new(vec![0.9, 0.1, 0.0, 1.0]).unwrap(),
                )
                .move_customer(CustomerId::new(10), Point::new(0.3, 0.7))
                .vendor_tags(VendorId::new(7), TagVector::zeros(4))
                .vendor_radius(VendorId::new(2), 0.4),
        ];
        let mut applied = 0u64;
        for batch in &batches {
            ctx.apply_delta(batch).unwrap();
            brute.apply_delta(batch).unwrap();
            applied += batch.len() as u64;
            assert_eq!(ctx.epoch(), applied);
            let fresh = SolverContext::indexed(ctx.instance(), &model);
            assert_rebuild_equivalent(&ctx, &fresh);
            let fresh_brute = SolverContext::brute_force(brute.instance(), &model);
            assert_rebuild_equivalent(&brute, &fresh_brute);
        }
        // The original instance is untouched (clone-on-write).
        assert_eq!(inst.num_customers(), 80);
        assert_eq!(inst.epoch(), 0);
    }

    /// A failing delta mid-batch keeps the valid prefix applied and the
    /// context consistent with a fresh build on its (prefix-mutated)
    /// instance.
    #[test]
    fn apply_delta_failure_leaves_consistent_prefix() {
        let inst = synthetic_instance(20, 5);
        let model = PearsonUtility::uniform(4);
        let mut ctx = SolverContext::indexed(&inst, &model);
        let batch = DeltaBatch::new()
            .move_customer(CustomerId::new(1), Point::new(0.2, 0.2))
            .vendor_radius(VendorId::new(0), -1.0) // invalid
            .remove_customer(CustomerId::new(2));
        assert!(ctx.apply_delta(&batch).is_err());
        assert_eq!(ctx.epoch(), 1, "only the valid prefix applied");
        assert_eq!(ctx.instance().num_customers(), 20);
        let fresh = SolverContext::indexed(ctx.instance(), &model);
        assert_rebuild_equivalent(&ctx, &fresh);
    }

    /// Arrivals extend a covering vendor's v2c row through its slack:
    /// 4 096 arrivals inside one vendor's disc move that row O(log n)
    /// times (a row rebuilt per insert would move 4 096 times), the
    /// arena stays within its bound throughout, and the patched context
    /// stays rebuild-equivalent.
    #[test]
    fn arrivals_grow_rows_by_doubling() {
        const ARRIVALS: usize = 4096;
        let inst = make_instance();
        let model = PearsonUtility::uniform(2);
        let mut ctx = SolverContext::indexed(&inst, &model);
        // Vendor 1 at (0.5, 0.4) with radius 0.5 covers the box
        // [0.5, 0.8] × [0.5, 0.7], inside the customers' bounding box.
        let vid = VendorId::new(1);
        let frac = |k: usize, m: f64| (k as f64 * m) % 1.0;
        let mut moves = 0;
        for k in 0..ARRIVALS {
            let start = ctx.eligibility.v2c.spans[vid.index()].0;
            let arrival = Customer {
                location: Point::new(
                    0.5 + 0.3 * frac(k, 0.618_033_988),
                    0.5 + 0.2 * frac(k, 0.754_877_666),
                ),
                capacity: 1,
                view_probability: 0.5,
                interests: TagVector::new(vec![frac(k, 0.41), 0.5]).unwrap(),
                arrival: Timestamp::MIDNIGHT,
            };
            ctx.apply(&Delta::AddCustomer(arrival)).unwrap();
            moves += usize::from(ctx.eligibility.v2c.spans[vid.index()].0 != start);
            let csr = &ctx.eligibility;
            assert!(
                csr.v2c.within_bound() && csr.c2v.within_bound(),
                "arrival {k}"
            );
        }
        assert_eq!(ctx.eligible_customers(vid).len(), ARRIVALS + 1);
        let bound = ARRIVALS.next_power_of_two().ilog2() as usize + 2;
        assert!(
            moves <= bound,
            "vendor row moved {moves} times, over {bound}"
        );
        let fresh = SolverContext::indexed(ctx.instance(), &model);
        assert_rebuild_equivalent(&ctx, &fresh);
    }

    /// The persisted cap governs the memo as deltas grow and shrink the
    /// *eligible* pairs: an arrival no vendor covers leaves it alone, one
    /// that pushes the pairs past the cap drops it, and a removal back
    /// under re-allocates it cold.
    #[test]
    fn pair_cache_cap_persists_across_deltas() {
        let inst = make_instance(); // 2 eligible pairs
        let model = PearsonUtility::uniform(2);
        // Cap of 3 live pairs = 24 bytes.
        let mut ctx = SolverContext::indexed(&inst, &model).with_pair_cache_cap(24);
        assert_eq!(ctx.memo_slots(), 2);
        let at = |x: f64, y: f64| Customer {
            location: Point::new(x, y),
            capacity: 1,
            view_probability: 0.5,
            interests: TagVector::new(vec![0.5, 0.5]).unwrap(),
            arrival: Timestamp::MIDNIGHT,
        };
        // Out of every vendor's reach: 6 pairs, still 2 eligible.
        ctx.apply_delta(&DeltaBatch::new().add_customer(at(0.95, 0.05)))
            .unwrap();
        assert_eq!(ctx.eligibility.c2v.live, 2);
        assert!(ctx.memo_slots() > 0);
        // In reach of both vendors: 4 eligible pairs, over the cap.
        ctx.apply_delta(&DeltaBatch::new().add_customer(at(0.45, 0.5)))
            .unwrap();
        assert_eq!(ctx.eligibility.c2v.live, 4);
        assert_eq!(ctx.memo_slots(), 0);
        // Removing customer 0 (2 pairs) brings it back under the cap.
        ctx.apply_delta(&DeltaBatch::new().remove_customer(CustomerId::new(0)))
            .unwrap();
        assert!(ctx.memo_slots() > 0);
        let fresh = SolverContext::indexed(ctx.instance(), &model);
        assert_rebuild_equivalent(&ctx, &fresh);
    }

    /// Filled memo slots of `ctx` as `(customer, vendor)` indices, in
    /// c2v order.
    fn filled_slots(ctx: &SolverContext<'_>) -> Vec<(usize, usize)> {
        slot_bits(ctx)
            .into_iter()
            .filter(|&(.., bits)| bits != MEMO_EMPTY)
            .map(|(i, j, _)| (i, j))
            .collect()
    }

    /// Every eligible pair of `ctx` with its memo slot's bits, as
    /// `(customer, vendor, bits)` in c2v order.
    fn slot_bits(ctx: &SolverContext<'_>) -> Vec<(usize, usize, u64)> {
        let c2v = &ctx.eligibility.c2v;
        let slots = c2v.slots.as_ref().expect("memoized context");
        let mut out = Vec::new();
        for (i, &(start, ..)) in c2v.spans.iter().enumerate() {
            for (pos, vid) in c2v.row(i).iter().enumerate() {
                let bits = slots[start as usize + pos].load(Ordering::Relaxed);
                out.push((i, vid.index(), bits));
            }
        }
        out
    }

    /// Every eligible pair of `ctx` as `(customer, vendor)` indices, in
    /// c2v order.
    fn eligible_pairs(ctx: &SolverContext<'_>) -> Vec<(usize, usize)> {
        ctx.instance()
            .customers_enumerated()
            .flat_map(|(cid, _)| {
                ctx.eligible_vendors(cid)
                    .iter()
                    .map(move |vid| (cid.index(), vid.index()))
            })
            .collect()
    }

    /// Fill `ctx`'s memo the lazy way: vendor by vendor through the
    /// block kernel.
    fn fill_vendor_major(ctx: &SolverContext<'_>) {
        let mut block = Vec::new();
        for (vid, _) in ctx.instance().vendors_enumerated() {
            ctx.pair_base_block(vid, ctx.eligible_customers(vid), &mut block);
        }
    }

    /// `fill_memo` fills every eligible pair with the bits the lazy
    /// vendor-major fill stores, at every thread count: the instance
    /// has more than twice the per-thread customer floor, so 2, 4 and 8
    /// threads really split it. After a tag change, a move and an
    /// arrival, a second fill matches a fresh build.
    #[test]
    fn fill_memo_matches_the_lazy_fill_at_every_thread_count() {
        let inst = synthetic_instance(2 * FILL_MIN_CUSTOMERS + 808, 40);
        assert!(inst.num_customers() / FILL_MIN_CUSTOMERS >= 2);
        let model = PearsonUtility::uniform(4);
        let lazy = SolverContext::indexed(&inst, &model);
        fill_vendor_major(&lazy);
        let expect = slot_bits(&lazy);
        assert_eq!(filled_slots(&lazy), eligible_pairs(&lazy));
        let deltas = [
            Delta::VendorTags(
                VendorId::new(3),
                TagVector::new(vec![0.9, 0.1, 0.0, 1.0]).unwrap(),
            ),
            Delta::MoveCustomer(CustomerId::new(17), Point::new(0.64, 0.14)),
            Delta::AddCustomer(Customer {
                location: Point::new(0.41, 0.26),
                ..delta_customer(500)
            }),
        ];
        let mut post = inst.clone();
        for delta in &deltas {
            post.apply(delta).unwrap();
        }
        let fresh = SolverContext::indexed(&post, &model);
        fill_vendor_major(&fresh);
        for threads in [1, 2, 4, 8] {
            let mut ctx = SolverContext::indexed(&inst, &model);
            par::with_threads(threads, || ctx.fill_memo());
            assert_eq!(
                filled_slots(&ctx),
                eligible_pairs(&ctx),
                "{threads} threads"
            );
            assert!(
                slot_bits(&ctx) == expect,
                "{threads} threads: slot bits differ"
            );
            for delta in &deltas {
                ctx.apply(delta).unwrap();
            }
            assert!(filled_slots(&ctx).len() < eligible_pairs(&ctx).len());
            par::with_threads(threads, || ctx.fill_memo());
            assert!(
                slot_bits(&ctx) == slot_bits(&fresh),
                "{threads} threads: slots after deltas differ from a fresh build"
            );
            ctx.debug_validate();
        }
    }

    /// Warm-memo retention per delta kind (DESIGN.md §12): afterwards
    /// exactly the slots whose pair base may have changed are empty —
    /// the moved customer's, the arrival's, the pairs a radius change
    /// added, the retagged vendor's — and every other eligible pair
    /// keeps its slot, the swap-renamed customer's included.
    /// `debug_validate` then checks every kept value against a fresh
    /// fused evaluation.
    #[test]
    fn warm_memo_keeps_exactly_the_unaffected_slots() {
        let mut inst = synthetic_instance(400, 12);
        let model = PearsonUtility::uniform(4);
        // Vendor 7 sits at (0.642, 0.136) with radius 0.202, vendor 6 at
        // (0.407, 0.259) with radius 0.176. Customer 399, whom a removal
        // renames, starts in vendor 7's reach.
        let near_v7 = Point::new(0.64, 0.14);
        let last = CustomerId::new(399);
        inst.apply(&Delta::MoveCustomer(last, near_v7)).unwrap();
        // Shrink vendor 6, grow vendor 7.
        let radii = [
            Delta::VendorRadius(VendorId::new(6), 0.05),
            Delta::VendorRadius(VendorId::new(7), 0.35),
        ];
        // (deltas, whether they must empty some slot)
        let cases: [(&[Delta], bool); 9] = [
            (&[Delta::MoveCustomer(CustomerId::new(3), near_v7)], true),
            (
                &[Delta::AddCustomer(Customer {
                    location: near_v7,
                    ..delta_customer(500)
                })],
                true,
            ),
            (&[Delta::RemoveCustomer(CustomerId::new(0))], false),
            // Growing vendor 7 splices it behind vendor 6 in shared rows;
            // shrinking vendor 6 cuts it out in front of vendor 7.
            (&radii[1..], true),
            (&radii[..1], false),
            // Both: a customer that loses vendor 6 and gains vendor 7
            // takes the new pair into its row's slack cell, which still
            // holds the (c, v6) bits.
            (&radii, true),
            (
                &[Delta::VendorTags(
                    VendorId::new(7),
                    TagVector::new(vec![0.9, 0.1, 0.0, 1.0]).unwrap(),
                )],
                true,
            ),
            (
                &[Delta::VendorBudget(
                    VendorId::new(2),
                    Money::from_dollars(11.0),
                )],
                false,
            ),
            (
                &[Delta::AdType(
                    AdTypeId::new(0),
                    AdType::new("TL", Money::from_dollars(0.5), 0.3),
                )],
                false,
            ),
        ];
        for &(deltas, resetting) in &cases {
            let mut ctx = SolverContext::indexed(&inst, &model);
            fill_vendor_major(&ctx);
            let before = eligible_pairs(&ctx);
            assert_eq!(
                filled_slots(&ctx),
                before,
                "{deltas:?}: warm-up fills every slot"
            );
            if let [Delta::RemoveCustomer(_)] = deltas {
                assert!(
                    !ctx.eligible_vendors(last).is_empty(),
                    "renamed customer has slots"
                );
            }
            let runs: Vec<u32> = ctx.eligibility.c2v.spans.iter().map(|s| s.0).collect();
            for delta in deltas {
                ctx.apply(delta).unwrap();
            }
            let emptied = |&(i, j): &(usize, usize)| match &deltas[deltas.len() - 1] {
                Delta::MoveCustomer(cid, _) => i == cid.index(),
                Delta::AddCustomer(_) => i == inst.num_customers(),
                Delta::VendorRadius(..) => !before.contains(&(i, j)),
                Delta::VendorTags(vid, _) => j == vid.index(),
                _ => false,
            };
            let after = eligible_pairs(&ctx);
            if deltas.len() == 2 {
                // Some customer swapped vendor 6 for vendor 7 in place.
                let swapped = |i: usize| {
                    before.contains(&(i, 6))
                        && after.contains(&(i, 7))
                        && !after.contains(&(i, 6))
                        && !before.contains(&(i, 7))
                        && ctx.eligibility.c2v.spans[i].0 == runs[i]
                };
                assert!(
                    (0..runs.len()).any(swapped),
                    "no pair entered through slack"
                );
            }
            let resets = after.iter().filter(|p| emptied(p)).count();
            let expect: Vec<_> = after.into_iter().filter(|p| !emptied(p)).collect();
            assert_eq!(filled_slots(&ctx), expect, "{deltas:?}");
            assert_eq!(resets > 0, resetting, "{deltas:?} exercises a reset");
            ctx.debug_validate();
        }
    }

    /// The memo is sized to the eligible pairs, not the customers ×
    /// vendors table: on the Table IV defaults (10 000 × 500 = 5 M
    /// pairs) a fresh context holds one slot per c2v arena entry, under
    /// 1 MiB in all.
    #[test]
    fn memo_holds_one_slot_per_c2v_entry() {
        let cfg = muaa_datagen::SyntheticConfig::default();
        let inst = muaa_datagen::generate_synthetic(&cfg);
        let model = PearsonUtility::uniform(cfg.tags);
        let ctx = SolverContext::indexed(&inst, &model);
        let arena = ctx.eligibility.c2v.ids.len();
        assert!(arena > 0);
        assert_eq!(ctx.memo_slots(), arena);
        assert!(ctx.memo_slots() * std::mem::size_of::<AtomicU64>() < 1 << 20);
    }

    /// VendorTags delta against a fully warmed memo: the touched column
    /// resets and refills to the fresh build's values, untouched columns
    /// keep serving their memoized bits, and the patched context is
    /// rebuild-equivalent — in memoized, fused-only and brute-force
    /// configurations.
    #[test]
    fn vendor_tags_delta_matches_fresh_build() {
        let inst = synthetic_instance(60, 8);
        let model = PearsonUtility::uniform(4);
        let mut memoized = SolverContext::indexed(&inst, &model);
        let mut fused_only = SolverContext::indexed(&inst, &model).with_pair_cache_cap(0);
        let mut brute = SolverContext::brute_force(&inst, &model);
        // Warm every slot so a stale survivor would be observable.
        for (cid, _) in inst.customers_enumerated() {
            for (vid, _) in inst.vendors_enumerated() {
                memoized.pair_base(cid, vid);
            }
        }
        let vid = VendorId::new(3);
        let batch =
            DeltaBatch::new().vendor_tags(vid, TagVector::new(vec![1.0, 0.0, 0.75, 0.25]).unwrap());
        for ctx in [&mut memoized, &mut fused_only, &mut brute] {
            ctx.apply_delta(&batch).unwrap();
            assert_eq!(ctx.vendor(vid).tags.as_slice(), &[1.0, 0.0, 0.75, 0.25]);
        }
        let fresh = SolverContext::indexed(memoized.instance(), &model);
        assert_rebuild_equivalent(&memoized, &fresh);
        assert_rebuild_equivalent(&fused_only, &fresh);
        let fresh_brute = SolverContext::brute_force(brute.instance(), &model);
        assert_rebuild_equivalent(&brute, &fresh_brute);
        // The tag change must actually alter at least one pair base in
        // the touched column (synthetic vendor 3 reaches customers).
        assert!(!memoized.eligible_customers(vid).is_empty());
        let old_ctx = SolverContext::indexed(&inst, &model);
        assert!(
            memoized
                .eligible_customers(vid)
                .iter()
                .any(|&cid| memoized.pair_base(cid, vid).to_bits()
                    != old_ctx.pair_base(cid, vid).to_bits()),
            "tag replacement should change some pair base"
        );
    }

    #[test]
    fn vendors_by_distance_orders_nearest_first() {
        let inst = make_instance();
        let model = PearsonUtility::uniform(2);
        let ctx = SolverContext::indexed(&inst, &model);
        let order = ctx.vendors_by_distance(CustomerId::new(0));
        assert_eq!(order.len(), 2);
        let c = inst.customer(CustomerId::new(0));
        let d0 = model.distance(CustomerId::new(0), c, order[0], inst.vendor(order[0]));
        let d1 = model.distance(CustomerId::new(0), c, order[1], inst.vendor(order[1]));
        assert!(d0 <= d1);
    }
}
