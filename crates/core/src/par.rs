//! Deterministic parallel primitives for the performance substrate.
//!
//! Every hot fan-out in the workspace (candidate collection, per-vendor
//! MCKP solves, spatial bulk-builds, moment precomputation) goes through
//! this module rather than spawning threads ad hoc. Two guarantees:
//!
//! 1. **Determinism** — [`par_map`] always returns results in input
//!    order, and callers only ever merge per-chunk results in that
//!    order, so parallel runs are *bit-identical* to sequential runs.
//!    There is no work stealing and no unordered reduction.
//! 2. **Gating** — threading is only used when the crate is built with
//!    the `parallel` feature (on by default), when the machine has more
//!    than one core, and when the current thread has not opted out via
//!    [`with_sequential`]. In every other case the exact same closure
//!    runs on the calling thread.
//!
//! The implementation is `std::thread::scope` with contiguous chunking —
//! deliberately dependency-free so the workspace builds in offline /
//! minimal containers. If a rayon-style pool becomes available, only
//! this module needs to change.

use std::cell::Cell;

thread_local! {
    static FORCE_SEQUENTIAL: Cell<bool> = const { Cell::new(false) };
    /// 0 = no override; otherwise the exact thread count fan-outs use.
    static THREAD_OVERRIDE: Cell<usize> = const { Cell::new(0) };
}

/// Restores the previous override even if the closure panics.
struct SeqGuard(bool);

impl Drop for SeqGuard {
    fn drop(&mut self) {
        FORCE_SEQUENTIAL.with(|c| c.set(self.0));
    }
}

/// Restores the previous thread-count override even on panic.
struct ThreadsGuard(usize);

impl Drop for ThreadsGuard {
    fn drop(&mut self) {
        THREAD_OVERRIDE.with(|c| c.set(self.0));
    }
}

/// Run `f` with all [`par_map`]/[`join`] calls *made from this thread*
/// forced onto the calling thread (tests and benches use this to compare
/// the parallel and sequential paths without rebuilding).
pub fn with_sequential<R>(f: impl FnOnce() -> R) -> R {
    let prev = FORCE_SEQUENTIAL.with(|c| c.replace(true));
    let _guard = SeqGuard(prev);
    f()
}

/// `true` iff the current thread is inside [`with_sequential`].
pub fn sequential_forced() -> bool {
    FORCE_SEQUENTIAL.with(Cell::get)
}

/// Run `f` with every fan-out *made from this thread* pinned to exactly
/// `threads` workers, regardless of the machine's core count.
/// `tests/thread_determinism.rs` uses this to replay the solvers at
/// 1/2/4/8 threads and byte-diff the outputs; they are bit-identical by
/// construction, and this knob makes that claim *testable* on any
/// machine (including single-core CI containers).
///
/// Ignored (always 1 thread) when the `parallel` feature is off or the
/// thread is inside [`with_sequential`] — those configurations promise
/// strictly single-threaded execution.
pub fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    let prev = THREAD_OVERRIDE.with(|c| c.replace(threads.max(1)));
    let _guard = ThreadsGuard(prev);
    f()
}

/// The number of worker threads fan-outs may use right now: the
/// [`with_threads`] override if one is active, else the machine's
/// available parallelism; always 1 when the `parallel` feature is off
/// or the current thread is inside [`with_sequential`].
pub fn max_threads() -> usize {
    if sequential_forced() {
        return 1;
    }
    #[cfg(feature = "parallel")]
    {
        let forced = THREAD_OVERRIDE.with(Cell::get);
        if forced > 0 {
            return forced;
        }
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    }
    #[cfg(not(feature = "parallel"))]
    {
        1
    }
}

/// Map `f` over `items`, in parallel when worthwhile, returning results
/// **in input order**. `f` receives `(index, &item)`.
///
/// `min_chunk` is the smallest number of items worth sending to a
/// thread; inputs at or below it run inline. Chunks are contiguous
/// slices of the input and results are concatenated in chunk order, so
/// the output is identical to the sequential map for any thread count.
pub fn par_map<T, R, F>(items: &[T], min_chunk: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let len = items.len();
    let min_chunk = min_chunk.max(1);
    let threads = max_threads();
    if threads <= 1 || len <= min_chunk {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let chunks = threads.min(len.div_ceil(min_chunk));
    let mut per_chunk: Vec<Vec<R>> = Vec::with_capacity(chunks);
    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = (0..chunks)
            .map(|c| {
                let lo = c * len / chunks;
                let hi = (c + 1) * len / chunks;
                scope.spawn(move || {
                    items[lo..hi]
                        .iter()
                        .enumerate()
                        .map(|(i, t)| f(lo + i, t))
                        .collect::<Vec<R>>()
                })
            })
            .collect();
        for h in handles {
            // Propagate worker panics to the caller. lint: allow(unwrap)
            per_chunk.push(h.join().expect("par_map worker panicked"));
        }
    });
    let mut out = Vec::with_capacity(len);
    for chunk in per_chunk {
        out.extend(chunk);
    }
    out
}

/// Run two independent closures, concurrently when threading is
/// enabled, and return both results. Order of side effects between the
/// two is unspecified; results are deterministic as long as the
/// closures are.
pub fn join<A, B, FA, FB>(fa: FA, fb: FB) -> (A, B)
where
    A: Send,
    B: Send,
    FA: FnOnce() -> A + Send,
    FB: FnOnce() -> B + Send,
{
    if max_threads() <= 1 {
        let a = fa();
        let b = fb();
        return (a, b);
    }
    std::thread::scope(|scope| {
        let hb = scope.spawn(fb);
        let a = fa();
        // Propagate worker panics to the caller. lint: allow(unwrap)
        let b = hb.join().expect("join worker panicked");
        (a, b)
    })
}

/// Stable parallel merge sort: sorts `items` by `compare` with the exact
/// permutation `slice::sort_by` (a stable sort) would produce, for any
/// comparator that is a total preorder.
///
/// The slice is cut into contiguous runs (one per available thread),
/// each run is stable-sorted in parallel, and adjacent runs are merged
/// pairwise with a left-preferring merge (on `Equal` the element from
/// the earlier run wins). Left preference keeps equal elements in input
/// order across run boundaries, so the result is independent of the
/// thread count — byte-identical to the sequential stable sort.
///
/// Falls back to `slice::sort_by` when threading is unavailable (the
/// `parallel` feature is off, [`with_sequential`] is active, one core)
/// or the input is small.
pub fn par_sort_by<T, F>(items: &mut [T], compare: F)
where
    T: Send + Sync + Clone,
    F: Fn(&T, &T) -> std::cmp::Ordering + Sync,
{
    /// Below this many elements the scatter/merge overhead dominates.
    const MIN_RUN: usize = 4 * 1024;

    let len = items.len();
    let threads = max_threads();
    let runs = threads.min(len.div_ceil(MIN_RUN));
    if runs <= 1 {
        items.sort_by(&compare);
        return;
    }

    // Sort each contiguous run in place, in parallel.
    let bounds: Vec<usize> = (0..=runs).map(|r| r * len / runs).collect();
    std::thread::scope(|scope| {
        let compare = &compare;
        let mut rest = &mut *items;
        let mut handles = Vec::with_capacity(runs);
        for r in 0..runs {
            let (run, tail) = rest.split_at_mut(bounds[r + 1] - bounds[r]);
            rest = tail;
            handles.push(scope.spawn(move || run.sort_by(compare)));
        }
        for h in handles {
            // Propagate worker panics to the caller. lint: allow(unwrap)
            h.join().expect("par_sort_by run worker panicked");
        }
    });

    // Pairwise merge rounds until one run remains. Each round's merges
    // are independent, so they run in parallel too.
    let mut bounds = bounds;
    let mut buf: Vec<T> = Vec::with_capacity(len);
    while bounds.len() > 2 {
        buf.clear();
        buf.extend_from_slice(items);
        let pairs = (bounds.len() - 1) / 2;
        {
            let items = &mut *items;
            let src = &buf[..];
            let compare = &compare;
            let merge_jobs: Vec<(usize, usize, usize)> = (0..pairs)
                .map(|p| (bounds[2 * p], bounds[2 * p + 1], bounds[2 * p + 2]))
                .collect();
            std::thread::scope(|scope| {
                let mut rest = items;
                let mut offset = 0usize;
                let mut handles = Vec::with_capacity(pairs);
                for &(lo, mid, hi) in &merge_jobs {
                    // Skip any gap before this job (odd trailing run).
                    let (_, tail) = rest.split_at_mut(lo - offset);
                    let (dst, tail) = tail.split_at_mut(hi - lo);
                    rest = tail;
                    offset = hi;
                    let (a, b) = (&src[lo..mid], &src[mid..hi]);
                    handles.push(scope.spawn(move || merge_left_preferring(a, b, compare, dst)));
                }
                for h in handles {
                    // Propagate worker panics to the caller. lint: allow(unwrap)
                    h.join().expect("par_sort_by merge worker panicked");
                }
            });
        }
        // Fold the bounds: every pair collapses into one run; an odd
        // trailing run carries over untouched.
        let mut next = Vec::with_capacity(bounds.len() / 2 + 2);
        next.push(bounds[0]);
        for p in 0..pairs {
            next.push(bounds[2 * p + 2]);
        }
        if 2 * pairs + 1 < bounds.len() {
            // Non-empty: seeded with the run boundaries above. lint: allow(unwrap)
            next.push(*bounds.last().unwrap());
        }
        bounds = next;
    }
}

/// Chunk width of the fixed-chunk float reducers ([`sum_f64`] /
/// [`par_sum_f64`]). Fixed so the reduction tree — and therefore the
/// floating-point rounding — is a function of the input alone, never of
/// the thread count.
pub const REDUCE_CHUNK: usize = 1024;

/// Order-fixed sequential sum: left-to-right within each
/// [`REDUCE_CHUNK`]-wide chunk, then left-to-right over the chunk
/// partials. This is the *canonical* reduction order for the workspace:
/// [`par_sum_f64`] reproduces it bit-for-bit at any thread count, which
/// is what lets `muaa-lint` rule D7 ban ad-hoc `.sum::<f64>()` /
/// `fold(+)` reductions in parallel code.
pub fn sum_f64(xs: &[f64]) -> f64 {
    let mut total = 0.0;
    for chunk in xs.chunks(REDUCE_CHUNK) {
        let mut partial = 0.0;
        for &x in chunk {
            partial += x;
        }
        total += partial;
    }
    total
}

/// Deterministic parallel sum: each [`REDUCE_CHUNK`]-wide chunk is
/// summed left-to-right (fanned out via [`par_map`]) and the partials
/// are folded left-to-right on the calling thread. Because chunk
/// boundaries are fixed — not derived from the worker count — the
/// result is bit-identical to [`sum_f64`] for any thread count,
/// including 1.
pub fn par_sum_f64(xs: &[f64]) -> f64 {
    if xs.len() <= REDUCE_CHUNK || max_threads() <= 1 {
        return sum_f64(xs);
    }
    let chunks: Vec<&[f64]> = xs.chunks(REDUCE_CHUNK).collect();
    let partials = par_map(&chunks, 1, |_, chunk| {
        let mut partial = 0.0;
        for &x in *chunk {
            partial += x;
        }
        partial
    });
    let mut total = 0.0;
    for p in partials {
        total += p;
    }
    total
}

/// Two-pointer stable merge of sorted `a` then `b` into `dst`
/// (`dst.len() == a.len() + b.len()`); ties take from `a`.
fn merge_left_preferring<T: Clone>(
    a: &[T],
    b: &[T],
    compare: &impl Fn(&T, &T) -> std::cmp::Ordering,
    dst: &mut [T],
) {
    let (mut i, mut j) = (0, 0);
    for slot in dst.iter_mut() {
        let take_a = if i >= a.len() {
            false
        } else if j >= b.len() {
            true
        } else {
            compare(&b[j], &a[i]) != std::cmp::Ordering::Less
        };
        if take_a {
            slot.clone_from(&a[i]);
            i += 1;
        } else {
            slot.clone_from(&b[j]);
            j += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_input_order() {
        let items: Vec<u64> = (0..10_000).collect();
        let out = par_map(&items, 16, |i, &x| {
            assert_eq!(i as u64, x);
            x * 2
        });
        let expect: Vec<u64> = items.iter().map(|&x| x * 2).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn par_map_matches_sequential_exactly() {
        let items: Vec<f64> = (0..5_000).map(|i| i as f64 * 0.1).collect();
        let par = par_map(&items, 8, |_, &x| x.sin() * x.cos());
        let seq = with_sequential(|| par_map(&items, 8, |_, &x| x.sin() * x.cos()));
        // Bit-identical, not just approximately equal.
        for (a, b) in par.iter().zip(&seq) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn par_map_empty_and_tiny_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(&empty, 1, |_, &x| x).is_empty());
        assert_eq!(par_map(&[7u32], 1, |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn with_sequential_restores_flag() {
        assert!(!sequential_forced());
        with_sequential(|| assert!(sequential_forced()));
        assert!(!sequential_forced());
    }

    #[test]
    fn par_sort_matches_sequential_stable_sort() {
        // Keys collide heavily so stability is actually exercised; the
        // payload records input order to detect any reordering of equals.
        let mut items: Vec<(u32, usize)> = (0..50_000)
            .map(|i| ((i as u32).wrapping_mul(2654435761) % 97, i))
            .collect();
        let mut expect = items.clone();
        expect.sort_by_key(|a| a.0);
        par_sort_by(&mut items, |a, b| a.0.cmp(&b.0));
        assert_eq!(items, expect);
    }

    #[test]
    fn par_sort_small_and_empty_inputs() {
        let mut empty: Vec<u32> = Vec::new();
        par_sort_by(&mut empty, |a, b| a.cmp(b));
        assert!(empty.is_empty());
        let mut one = vec![3u32];
        par_sort_by(&mut one, |a, b| a.cmp(b));
        assert_eq!(one, vec![3]);
        let mut few = vec![5u32, 1, 4, 1, 3];
        par_sort_by(&mut few, |a, b| a.cmp(b));
        assert_eq!(few, vec![1, 1, 3, 4, 5]);
    }

    #[test]
    fn par_sort_total_cmp_keys_are_thread_count_invariant() {
        let mut par: Vec<f64> = (0..60_000)
            .map(|i| ((i * 37 % 1009) as f64 - 500.0) * 0.125)
            .collect();
        let mut seq = par.clone();
        par_sort_by(&mut par, |a, b| b.total_cmp(a));
        with_sequential(|| par_sort_by(&mut seq, |a, b| b.total_cmp(a)));
        for (a, b) in par.iter().zip(&seq) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn with_threads_pins_the_fanout_width() {
        // The override wins over available_parallelism in a `parallel`
        // build and is ignored in a sequential one.
        let inside = with_threads(7, max_threads);
        if cfg!(feature = "parallel") {
            assert_eq!(inside, 7);
        } else {
            assert_eq!(inside, 1);
        }
        // Restored afterwards (0 override → machine default).
        let after = max_threads();
        assert!(after >= 1);
        // Nested overrides restore the outer one.
        let (outer, inner) = with_threads(2, || {
            let inner = with_threads(5, max_threads);
            (max_threads(), inner)
        });
        if cfg!(feature = "parallel") {
            assert_eq!((outer, inner), (2, 5));
        }
    }

    #[test]
    fn par_map_is_thread_count_invariant() {
        let items: Vec<f64> = (0..10_000).map(|i| (i as f64).sin()).collect();
        let base = with_threads(1, || par_map(&items, 8, |_, &x| x * 1.000001 + 0.5));
        for threads in [2usize, 3, 4, 8] {
            let out = with_threads(threads, || par_map(&items, 8, |_, &x| x * 1.000001 + 0.5));
            for (a, b) in out.iter().zip(&base) {
                assert_eq!(a.to_bits(), b.to_bits(), "thread count {threads} drifted");
            }
        }
    }

    #[test]
    fn fixed_chunk_sum_is_thread_count_invariant() {
        // Values chosen so naive reassociation visibly changes rounding.
        let xs: Vec<f64> = (0..REDUCE_CHUNK * 5 + 311)
            .map(|i| ((i as f64) * 1e-3).sin() * 10f64.powi((i % 7) as i32 - 3))
            .collect();
        let seq = sum_f64(&xs);
        for threads in [1usize, 2, 4, 8] {
            let par = with_threads(threads, || par_sum_f64(&xs));
            assert_eq!(
                par.to_bits(),
                seq.to_bits(),
                "par_sum_f64 drifted at {threads} threads"
            );
        }
        // Sanity: the value itself is a plausible sum.
        let naive: f64 = xs.iter().sum();
        assert!((seq - naive).abs() <= 1e-9 * naive.abs().max(1.0));
    }

    #[test]
    fn fixed_chunk_sum_small_inputs() {
        assert_eq!(sum_f64(&[]), 0.0);
        assert_eq!(par_sum_f64(&[]), 0.0);
        assert_eq!(sum_f64(&[1.5]), 1.5);
        assert_eq!(par_sum_f64(&[1.5, 2.5]), 4.0);
    }

    #[test]
    fn join_returns_both_results() {
        let (a, b) = join(|| 1 + 1, || "x".to_string());
        assert_eq!(a, 2);
        assert_eq!(b, "x");
        let (a, b) = with_sequential(|| join(|| 3, || 4));
        assert_eq!((a, b), (3, 4));
    }
}
