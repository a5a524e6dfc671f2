//! [`CsrDir`]: sorted rows that change in place, the one mutable-row
//! structure of the workspace (DESIGN.md §12).
//!
//! The solver context keeps both directions of its vendor ↔ customer
//! eligibility index in one each (with the pair-base memo riding along
//! the customer → vendor direction), and the spatial grid keeps one row
//! per cell. Each row is ascending by `T`'s order, so a row patched by
//! deltas holds exactly what a fresh build of the same contents holds.

use std::sync::atomic::{AtomicU64, Ordering};

/// Bits of an empty memo slot. This is a NaN pattern; the solver
/// context never memoizes NaN (non-finite distances map to 0 and
/// similarities are clamped), so no real value collides with it.
pub const MEMO_EMPTY: u64 = u64::MAX;

/// A *span-arena* CSR: `spans[k] = (start, len, cap)` gives row `k`
/// its own run of `cap` cells in the shared `ids` arena. The first
/// `len` hold the row's entries sorted ascending (the canonical order —
/// independent of how the row was built, so incrementally patched rows
/// match from-scratch builds element for element); the rest are the
/// row's slack.
///
/// Unlike classic offset-array CSR, rows are independently resizable.
/// An insertion shifts within the run while slack lasts; a full row
/// first moves to the arena tail with its capacity doubled, so a row
/// that grows to n entries is copied O(log n) times (amortized O(1) per
/// insert). A removal shifts in place and leaves the freed cell as
/// slack. Runs left behind by moves are garbage: compaction repacks
/// every row dense (cap = len) once [`within_bound`](Self::within_bound)
/// fails, which keeps the arena within 4 × live + 192 entries. Spans are
/// `u32`: 4 G entries ≈ 32 GiB of ids — beyond any in-memory instance.
#[derive(Debug, Default)]
pub struct CsrDir<T> {
    /// `(start, len, cap)` into `ids`, one per row.
    spans: Vec<(u32, u32, u32)>,
    ids: Vec<T>,
    /// Total live elements (Σ span lens).
    live: usize,
    /// Total reserved cells (Σ span caps): live ids plus slack.
    reserved: usize,
    /// The optional memo (DESIGN.md §10): `slots[p]` holds the `f64`
    /// bits of a value for the entry `(row, ids[p])`, or [`MEMO_EMPTY`].
    /// Every operation below moves a slot together with its id, so a
    /// value follows its entry through row moves, swap-removes and
    /// compaction. An entry added to a row starts empty, including one
    /// that lands in slack, which can still hold a removed entry's bits.
    /// Relaxed atomics: every thread that fills a slot computes the same
    /// deterministic value, so racing writers are benign, and a slot
    /// publishes no other data.
    slots: Option<Vec<AtomicU64>>,
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
    /// The transpose of `rows`, densely packed, by counting sort: lay
    /// the columns out back to back from their entry `counts`, then
    /// scatter `id(k)` for every row `k` into the columns it names.
    /// Rows are visited in order, so each transposed row comes out
    /// ascending without a sort whenever `id` is increasing in `k`.
    pub fn transpose<'r, A: Copy + 'r>(
        rows: impl Iterator<Item = &'r [A]>,
        counts: impl Iterator<Item = usize>,
        col: impl Fn(A) -> usize,
        id: impl Fn(usize) -> T,
    ) -> Self {
        // Each span's cap is its count; the scatter grows its len up to it.
        let mut total = 0usize;
        let mut spans: Vec<(u32, u32, u32)> = counts
            .map(|n| {
                let span = (total as u32, 0, n as u32);
                total += n;
                span
            })
            .collect();
        assert!(
            total <= u32::MAX as usize,
            "CSR arena exceeds u32 offset range"
        );
        let mut ids = vec![T::default(); total];
        for (k, row) in rows.enumerate() {
            for &a in row {
                let span = &mut spans[col(a)];
                ids[(span.0 + span.1) as usize] = id(k);
                span.1 += 1;
            }
        }
        CsrDir {
            spans,
            ids,
            live: total,
            reserved: total,
            slots: None,
        }
    }

    /// Row `k`'s entries, ascending.
    #[inline]
    pub fn row(&self, k: usize) -> &[T] {
        let (start, len, _) = self.spans[k];
        &self.ids[start as usize..(start + len) as usize]
    }

    /// Every row's `(start, len, cap)` run in [`ids`](Self::ids).
    #[inline]
    pub fn spans(&self) -> &[(u32, u32, u32)] {
        &self.spans
    }

    /// The whole arena: rows, their slack and garbage.
    #[inline]
    pub fn ids(&self) -> &[T] {
        &self.ids
    }

    /// The memo slots, one per arena cell, if the memo is on.
    #[inline]
    pub fn slots(&self) -> Option<&[AtomicU64]> {
        self.slots.as_deref()
    }

    /// Number of live entries over all rows.
    #[inline]
    pub fn live(&self) -> usize {
        self.live
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
            "CSR arena exceeds u32 offset range"
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

    /// Replace row `k` with `new` (sorted), every entry with an empty
    /// memo slot: in place when it fits the row's run.
    pub fn set_row(&mut self, k: usize, new: &[T]) {
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
    pub fn push_row(&mut self, new: &[T]) {
        self.spans.push((self.ids.len() as u32, 0, 0));
        self.set_row(self.spans.len() - 1, new);
    }

    /// Swap-remove row `k`: the last row takes index `k`, keeping its
    /// span and therefore its memo slots.
    pub fn swap_remove_row(&mut self, k: usize) {
        let (_, len, cap) = self.spans.swap_remove(k);
        self.live -= len as usize;
        self.reserved -= cap as usize;
        self.maybe_compact();
    }

    /// Insert `id` into sorted row `k` (no-op if an equal entry is
    /// present). The row's other entries keep their memo slots; the new
    /// one starts empty. An entry above the row's last one is appended
    /// without a search: an arriving customer holds the largest id, so
    /// every v2c row it joins, and its grid cell, take it this way.
    pub fn insert_sorted(&mut self, k: usize, id: T) {
        let row = self.row(k);
        let pos = match row.last() {
            Some(&last) if id <= last => match row.binary_search(&id) {
                Ok(_) => return,
                Err(pos) => pos,
            },
            _ => row.len(),
        };
        let len = self.spans[k].1 as usize;
        self.make_room(k, len + 1);
        let lo = self.spans[k].0 as usize;
        self.ids.copy_within(lo + pos..lo + len, lo + pos + 1);
        self.ids[lo + pos] = id;
        if let Some(slots) = &mut self.slots {
            // The first slack cell rotates to `pos`; it may still hold a
            // removed entry's bits, so it starts empty.
            slots[lo + pos..=lo + len].rotate_right(1);
            slots[lo + pos].store(MEMO_EMPTY, Ordering::Relaxed);
        }
        self.spans[k].1 += 1;
        self.live += 1;
        self.maybe_compact();
    }

    /// Remove the entry equal to `id` from sorted row `k` (no-op if
    /// absent). In place: the row's tail shifts left and the freed cell
    /// becomes slack.
    pub fn remove_sorted(&mut self, k: usize, id: T) {
        let (start, len, _) = self.spans[k];
        let (lo, hi) = (start as usize, (start + len) as usize);
        let Ok(pos) = self.ids[lo..hi].binary_search(&id) else {
            return;
        };
        self.ids.copy_within(lo + pos + 1..hi, lo + pos);
        if let Some(slots) = &mut self.slots {
            // The removed entry's slot rotates into the slack.
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
    /// 192 entries. Insertions alone never break it, since a moved row's
    /// capacity stays under twice its length and its old runs sum to
    /// less than its capacity.
    pub fn within_bound(&self) -> bool {
        self.ids.len() <= 2 * self.reserved + 64 && self.reserved <= 2 * self.live + 64
    }

    /// Structural self-check, free unless `debug_assertions` are on:
    /// every run stays inside the arena and holds its row, no two runs
    /// overlap, `live` and `reserved` equal the span-length and capacity
    /// sums, the arena is within its bound, and every row is strictly
    /// ascending (the canonical order the rebuild-equivalence invariant
    /// depends on). `what` names the directory in failure messages.
    pub fn debug_validate(&self, what: &str) {
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

    /// The memo slot of entry `(k, id)`, found by binary search in row
    /// `k`: `None` when the memo is off or `id` is not in the row.
    #[inline]
    pub fn slot(&self, k: usize, id: T) -> Option<&AtomicU64> {
        let slots = self.slots.as_ref()?;
        let pos = self.row(k).binary_search(&id).ok()?;
        Some(&slots[self.spans[k].0 as usize + pos])
    }

    /// Allocate the memo cold, or drop it, so that it exists iff the
    /// live entry count fits `cap`: `0` always drops it. A memo that
    /// still fits keeps its values.
    pub fn fit_slots(&mut self, cap: usize) {
        let fits = 0 < cap && self.live <= cap;
        if fits != self.slots.is_some() {
            self.slots = fits.then(|| empty_slots(self.ids.len()).collect());
        }
    }
}
