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
//! 2. **Gating** — threading is only used when the machine (or the
//!    [`with_threads`] override) offers more than one thread; otherwise
//!    the exact same closure runs on the calling thread.
//!
//! The implementation is `std::thread::scope` with contiguous chunking —
//! deliberately dependency-free so the workspace builds in offline /
//! minimal containers. If a rayon-style pool becomes available, only
//! this module needs to change.

use std::cell::Cell;

thread_local! {
    /// 0 = no override; otherwise the exact thread count fan-outs use.
    static THREAD_OVERRIDE: Cell<usize> = const { Cell::new(0) };
}

/// Restores the previous thread-count override even on panic.
struct ThreadsGuard(usize);

impl Drop for ThreadsGuard {
    fn drop(&mut self) {
        THREAD_OVERRIDE.with(|c| c.set(self.0));
    }
}

/// Run `f` with every fan-out *made from this thread* pinned to exactly
/// `threads` workers, regardless of the machine's core count.
/// `tests/thread_determinism.rs` uses this to replay the solvers at
/// 1/2/4/8 threads and byte-diff the outputs; they are bit-identical by
/// construction, and this knob makes that claim *testable* on any
/// machine (including single-core CI containers). `with_threads(1, f)`
/// runs every fan-out inside `f` on the calling thread.
pub fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    let prev = THREAD_OVERRIDE.with(|c| c.replace(threads.max(1)));
    let _guard = ThreadsGuard(prev);
    f()
}

/// The number of worker threads fan-outs may use right now: the
/// [`with_threads`] override if one is active, else the machine's
/// available parallelism.
pub fn max_threads() -> usize {
    let forced = THREAD_OVERRIDE.with(Cell::get);
    if forced > 0 {
        return forced;
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
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

/// Chunk width of the fixed-chunk float reducer [`sum_f64`]. Fixed so
/// the reduction tree — and therefore the floating-point rounding — is
/// a function of the input alone, never of the thread count.
pub const REDUCE_CHUNK: usize = 1024;

/// Order-fixed sequential sum: left-to-right within each
/// [`REDUCE_CHUNK`]-wide chunk, then left-to-right over the chunk
/// partials. This is the *canonical* reduction order for the workspace,
/// the spelling `muaa-lint` rules D14 and D17 sanction for float
/// reductions that parallel code or hot fns reach.
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
        let seq = with_threads(1, || par_map(&items, 8, |_, &x| x.sin() * x.cos()));
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
    fn with_threads_pins_the_fanout_width() {
        // The override wins over available_parallelism.
        assert_eq!(with_threads(7, max_threads), 7);
        assert_eq!(with_threads(0, max_threads), 1);
        // Restored afterwards (0 override → machine default).
        let after = max_threads();
        assert!(after >= 1);
        // Nested overrides restore the outer one.
        let (outer, inner) = with_threads(2, || {
            let inner = with_threads(5, max_threads);
            (max_threads(), inner)
        });
        assert_eq!((outer, inner), (2, 5));
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
        // Terms fanned out by `par_map` and reduced by `sum_f64`: the
        // sanctioned shape. Values chosen so naive reassociation
        // visibly changes rounding.
        let idx: Vec<usize> = (0..REDUCE_CHUNK * 5 + 311).collect();
        let term = |_, &i: &usize| ((i as f64) * 1e-3).sin() * 10f64.powi((i % 7) as i32 - 3);
        let seq = with_threads(1, || sum_f64(&par_map(&idx, 64, term)));
        for threads in [2usize, 4, 8] {
            let par = with_threads(threads, || sum_f64(&par_map(&idx, 64, term)));
            assert_eq!(
                par.to_bits(),
                seq.to_bits(),
                "sum_f64 drifted at {threads} threads"
            );
        }
        // Sanity: the value itself is a plausible sum.
        let naive: f64 = idx.iter().map(|i| term(0, i)).sum();
        assert!((seq - naive).abs() <= 1e-9 * naive.abs().max(1.0));
    }

    #[test]
    fn fixed_chunk_sum_small_inputs() {
        assert_eq!(sum_f64(&[]), 0.0);
        assert_eq!(sum_f64(&[1.5]), 1.5);
        assert_eq!(sum_f64(&[1.5, 2.5]), 4.0);
    }

    #[test]
    fn join_returns_both_results() {
        let (a, b) = join(|| 1 + 1, || "x".to_string());
        assert_eq!(a, 2);
        assert_eq!(b, "x");
        let (a, b) = with_threads(1, || join(|| 3, || 4));
        assert_eq!((a, b), (3, 4));
    }
}
