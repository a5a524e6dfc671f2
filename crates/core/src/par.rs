//! Deterministic parallel primitives for the performance substrate.
//!
//! Every hot fan-out in the workspace (the customer-major pair walk
//! behind GREEDY and the memo fill, per-vendor MCKP solves, spatial
//! bulk-builds, context construction) goes through this module rather
//! than spawning threads ad hoc. Two guarantees:
//!
//! 1. **Determinism** — [`par_map`] always returns results in input
//!    order, and callers only ever merge per-chunk results in that
//!    order, so parallel runs are *bit-identical* to sequential runs.
//!    Which thread runs a chunk never changes what it computes, and
//!    there is no unordered reduction.
//! 2. **Gating** — threading is only used when the machine (or the
//!    [`with_threads`] override) offers more than one thread; otherwise
//!    the exact same closure runs on the calling thread.
//!
//! Fan-outs run on one process-wide pool of `available_parallelism() −
//! 1` parked worker threads, started by the first fan-out; a one-core
//! host gets no worker and runs every fan-out inline. The thread count
//! is read once per process and kept, like the pool: on Linux each
//! `available_parallelism()` call re-reads the cgroup quota files, and
//! every fan-out needs the count. A fan-out
//! publishes its chunks, wakes idle workers and runs chunks itself;
//! the workers claim the rest. The caller only ever runs chunks of its
//! own fan-out and can finish it alone, so fan-outs nested in a chunk
//! (`SolverContext::indexed` builds both spatial indexes with
//! `par_map` inside a [`join`] arm) and fan-outs from concurrent
//! threads cannot deadlock: every claimed chunk is running, and the
//! caller runs every unclaimed one. A chunk must therefore never wait
//! for another chunk of its own fan-out. A panic in a chunk is caught
//! where it happens; the fan-out re-raises the first one on the caller
//! once every chunk has finished.

use std::any::Any;
use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;

thread_local! {
    /// 0 = no override; otherwise the exact chunk count fan-outs use.
    static THREAD_OVERRIDE: Cell<usize> = const { Cell::new(0) };
}

/// Restores the previous thread-count override even on panic.
struct ThreadsGuard(usize);

impl Drop for ThreadsGuard {
    fn drop(&mut self) {
        THREAD_OVERRIDE.with(|c| c.set(self.0));
    }
}

/// Run `f` with the raw override `threads` in force (0 = none).
fn with_override<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    let prev = THREAD_OVERRIDE.with(|c| c.replace(threads));
    let _guard = ThreadsGuard(prev);
    f()
}

/// Run `f` with every fan-out inside it split into `threads` chunks
/// (fewer for short inputs, see [`par_map`]), nested fan-outs in
/// chunks that pool workers run included. The chunks run on at most
/// `available_parallelism()` threads: the caller and the pool's
/// workers. `tests/thread_determinism.rs` uses this to replay the
/// solvers at 1/2/4/8 threads and byte-diff the outputs; they are
/// bit-identical by construction, and this knob makes that claim
/// *testable* on any machine (including single-core CI containers).
/// `with_threads(1, f)` runs every fan-out inside `f` on the calling
/// thread.
pub fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    with_override(threads.max(1), f)
}

/// The machine's available parallelism (1 if unknown), read once per
/// process: `available_parallelism()` re-reads the cgroup quota files
/// on Linux on every call (18–22 µs each on a 2-vCPU VM), and every
/// fan-out asks. It honours the affinity mask in force at that first
/// read; `taskset -c 0` sets the mask before the process starts, so it
/// reads 1.
fn machine_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// The chunk count fan-outs split into right now: the [`with_threads`]
/// override if one is active, else the machine's available
/// parallelism.
pub fn max_threads() -> usize {
    match THREAD_OVERRIDE.with(Cell::get) {
        0 => machine_threads(),
        forced => forced,
    }
}

/// Lock `m`, recovering the guard if a holder panicked. No lock here is
/// held while a chunk runs, and every critical section leaves its data
/// valid, so a poisoned lock holds valid data.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A caught chunk panic, re-raised on the caller.
type Panic = Box<dyn Any + Send>;

/// One published fan-out: `body(c)` for every chunk `c < chunks`,
/// claimed in index order by its caller and by woken workers.
struct Job {
    body: &'static (dyn Fn(usize) + Sync),
    chunks: usize,
    /// The caller's raw [`with_threads`] override, in force in every
    /// chunk whichever thread runs it.
    threads: usize,
    /// The next unclaimed chunk. A bare counter: it publishes no data,
    /// `fetch_add` alone makes each claim unique, and chunk results
    /// reach the caller through the `done` lock.
    next: AtomicUsize,
    /// Finished chunks, and the panics among them in finishing order.
    /// Kept, not dropped: a payload's `Drop` may panic, and
    /// [`run_chunks`](Self::run_chunks) must not unwind.
    done: Mutex<(usize, Vec<Panic>)>,
    all_done: Condvar,
}

impl Job {
    fn has_unclaimed(&self) -> bool {
        self.next.load(Ordering::Relaxed) < self.chunks
    }

    /// Claim and run chunks until none is left. Never unwinds: a chunk
    /// panic is caught and kept for [`wait`](Self::wait).
    fn run_chunks(&self) {
        loop {
            let c = self.next.fetch_add(1, Ordering::Relaxed);
            if c >= self.chunks {
                return;
            }
            let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
                with_override(self.threads, || (self.body)(c));
            }));
            let mut done = lock(&self.done);
            done.0 += 1;
            if let Err(payload) = outcome {
                done.1.push(payload);
            }
            if done.0 == self.chunks {
                self.all_done.notify_all();
            }
        }
    }

    /// Block until every chunk has finished; return their panics.
    fn wait(&self) -> Vec<Panic> {
        let mut done = lock(&self.done);
        while done.0 < self.chunks {
            done = self
                .all_done
                .wait(done)
                .unwrap_or_else(PoisonError::into_inner);
        }
        std::mem::take(&mut done.1)
    }
}

/// The pool's shared state: published fan-outs and the parking lot.
struct Shared {
    queue: Mutex<Queue>,
    wake: Condvar,
}

#[derive(Default)]
struct Queue {
    /// Published fan-outs, oldest first. Each leaves when its caller
    /// has found no chunk left to claim.
    jobs: Vec<Arc<Job>>,
    /// Workers parked on `wake`.
    idle: usize,
    /// Set when a [`Pool`] is dropped: workers exit.
    closed: bool,
}

impl Shared {
    /// A worker's life: run chunks of the oldest fan-out that has any
    /// left, park when none has. Chunk panics are caught in
    /// [`Job::run_chunks`], so a worker never dies of one.
    fn work(&self) {
        let mut queue = lock(&self.queue);
        loop {
            if let Some(job) = queue.jobs.iter().find(|j| j.has_unclaimed()).cloned() {
                drop(queue);
                job.run_chunks();
                drop(job);
                queue = lock(&self.queue);
            } else if queue.closed {
                return;
            } else {
                queue.idle += 1;
                queue = self
                    .wake
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
                queue.idle -= 1;
            }
        }
    }
}

/// A fork-join pool: parked workers plus the callers that publish
/// fan-outs to them. The process shares one ([`pool`]); dropping a
/// pool joins its workers.
struct Pool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl Pool {
    /// A pool with up to `workers` worker threads (fewer if the OS
    /// refuses to start one).
    fn new(workers: usize) -> Pool {
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue::default()),
            wake: Condvar::new(),
        });
        let workers = (0..workers)
            .filter_map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("muaa-par-{i}"))
                    .spawn(move || shared.work())
                    .ok()
            })
            .collect();
        Pool { shared, workers }
    }

    /// Run `body(c)` for every `c < chunks`, on the calling thread and
    /// on woken workers, and return once every call has returned. The
    /// first chunk panic is re-raised here, after that.
    fn run(&self, chunks: usize, body: &(dyn Fn(usize) + Sync)) {
        #[expect(
            unsafe_code,
            reason = "borrowed chunk bodies run on the pool's 'static workers"
        )]
        // SAFETY: only the lifetime changes. `body` is called only in
        // `Job::run_chunks`, for a claimed index below `chunks`, and
        // each call is counted in `job.done` after it returns (a panic
        // is caught first). This fn cannot return or unwind before
        // `job.wait()` has seen all `chunks` counted: `run_chunks`
        // never unwinds, and `lock` and `wait` recover from poisoning
        // instead of panicking. So every call through `body` ends
        // while the borrow is live. Claims past `chunks` never touch
        // `body`, so a worker still holding the `Job` afterwards never
        // calls it.
        let body = unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(body)
        };
        let job = Arc::new(Job {
            body,
            chunks,
            threads: THREAD_OVERRIDE.with(Cell::get),
            next: AtomicUsize::new(0),
            done: Mutex::new((0, Vec::new())),
            all_done: Condvar::new(),
        });
        {
            let mut queue = lock(&self.shared.queue);
            queue.jobs.push(Arc::clone(&job));
            for _ in 0..queue.idle.min(chunks.saturating_sub(1)) {
                self.shared.wake.notify_one();
            }
        }
        job.run_chunks();
        lock(&self.shared.queue)
            .jobs
            .retain(|j| !Arc::ptr_eq(j, &job));
        let mut panics = job.wait().into_iter();
        if let Some(first) = panics.next() {
            drop(panics);
            panic::resume_unwind(first);
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        lock(&self.shared.queue).closed = true;
        self.shared.wake.notify_all();
        for worker in self.workers.drain(..) {
            // A worker catches every chunk panic, so it cannot have
            // panicked; and `drop` must not panic either way.
            let _ = worker.join();
        }
    }
}

/// The process-wide pool: `available_parallelism() − 1` workers,
/// started on first use.
fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool::new(machine_threads() - 1))
}

/// How many chunks `len` items split into at `threads`: one per
/// `min_chunk` items at most, so no chunk is smaller than `min_chunk`.
fn chunk_count(len: usize, min_chunk: usize, threads: usize) -> usize {
    threads.min(len / min_chunk.max(1))
}

/// Map `f` over `items`, in parallel when worthwhile, returning results
/// **in input order**. `f` receives `(index, &item)`.
///
/// `min_chunk` is the smallest number of items worth a chunk of its
/// own: the input splits into at most one chunk per `min_chunk` items
/// and at most [`max_threads`] chunks, so inputs shorter than
/// `2 * min_chunk` run inline. Chunks are contiguous slices of the
/// input and results are concatenated in chunk order, so the output is
/// identical to the sequential map for any thread count.
pub fn par_map<T, R, F>(items: &[T], min_chunk: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    map_in(pool(), items, min_chunk, f)
}

/// [`par_map`] on a given pool.
fn map_in<T, R, F>(pool: &Pool, items: &[T], min_chunk: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let len = items.len();
    let chunks = chunk_count(len, min_chunk, max_threads());
    if chunks <= 1 || pool.workers.is_empty() {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let parts: Vec<Mutex<Vec<R>>> = (0..chunks).map(|_| Mutex::new(Vec::new())).collect();
    pool.run(chunks, &|c| {
        let lo = c * len / chunks;
        let hi = (c + 1) * len / chunks;
        let part = items[lo..hi]
            .iter()
            .enumerate()
            .map(|(i, t)| f(lo + i, t))
            .collect();
        *lock(&parts[c]) = part;
    });
    let mut out = Vec::with_capacity(len);
    for part in parts {
        out.extend(part.into_inner().unwrap_or_else(PoisonError::into_inner));
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
    join_in(pool(), fa, fb)
}

/// [`join`] on a given pool: a two-chunk fan-out, one arm per chunk.
fn join_in<A, B, FA, FB>(pool: &Pool, fa: FA, fb: FB) -> (A, B)
where
    A: Send,
    B: Send,
    FA: FnOnce() -> A + Send,
    FB: FnOnce() -> B + Send,
{
    if max_threads() <= 1 || pool.workers.is_empty() {
        let a = fa();
        let b = fb();
        return (a, b);
    }
    let arms = (Mutex::new(Some(fa)), Mutex::new(Some(fb)));
    let out = (Mutex::new(None), Mutex::new(None));
    pool.run(2, &|c| {
        if c == 0 {
            let fa = lock(&arms.0).take();
            let a = fa.map(|fa| fa());
            *lock(&out.0) = a;
        } else {
            let fb = lock(&arms.1).take();
            let b = fb.map(|fb| fb());
            *lock(&out.1) = b;
        }
    });
    let a = out.0.into_inner().unwrap_or_else(PoisonError::into_inner);
    let b = out.1.into_inner().unwrap_or_else(PoisonError::into_inner);
    let (Some(a), Some(b)) = (a, b) else {
        unreachable!("a fan-out returns only after both arms ran")
    };
    (a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;
    use std::thread::ThreadId;

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
        // Restored afterwards: with no override, the machine's count,
        // read once and still what `available_parallelism` reports.
        let machine = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        assert_eq!(max_threads(), machine);
        assert_eq!(max_threads(), machine);
        assert_eq!(with_threads(machine + 3, max_threads), machine + 3);
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
    fn join_returns_both_results() {
        let (a, b) = join(|| 1 + 1, || "x".to_string());
        assert_eq!(a, 2);
        assert_eq!(b, "x");
        let (a, b) = with_threads(1, || join(|| 3, || 4));
        assert_eq!((a, b), (3, 4));
    }

    /// No chunk is smaller than `min_chunk`: 4,097 items at a floor of
    /// 4,096 stay one chunk, and run inline on the caller.
    #[test]
    fn chunks_never_fall_below_min_chunk() {
        assert_eq!(chunk_count(4_097, 4_096, 2), 1);
        assert_eq!(chunk_count(8_191, 4_096, 8), 1);
        assert_eq!(chunk_count(8_192, 4_096, 8), 2);
        assert_eq!(chunk_count(8_192, 4_096, 1), 1);
        assert_eq!(chunk_count(30, 1, 2), 2);
        assert_eq!(chunk_count(3, 0, 8), 3);
        assert_eq!(chunk_count(0, 1, 8), 0);
        let items = vec![0u8; 4_097];
        let caller = std::thread::current().id();
        let ran_on = with_threads(2, || {
            par_map(&items, 4_096, |_, _| std::thread::current().id())
        });
        assert!(ran_on.iter().all(|&id| id == caller));
    }

    /// Run a two-chunk fan-out on `pool` with the chunks forced onto
    /// two threads: each waits at a barrier for the other, so a worker
    /// must run one of them. `body` learns whether it runs on the
    /// caller. The width 7 leaves two items two chunks.
    fn on_two_threads<R: Send>(pool: &Pool, body: impl Fn(bool) -> R + Sync) -> Vec<R> {
        let caller = std::thread::current().id();
        let barrier = Barrier::new(2);
        with_threads(7, || {
            map_in(pool, &[0, 1], 1, |_, _| {
                barrier.wait();
                body(std::thread::current().id() == caller)
            })
        })
    }

    /// Raises a flag when dropped, so a chunk can signal from inside
    /// its own unwind.
    struct SignalOnDrop<'a>(&'a (Mutex<bool>, Condvar));

    impl Drop for SignalOnDrop<'_> {
        fn drop(&mut self) {
            *lock(&self.0 .0) = true;
            self.0 .1.notify_all();
        }
    }

    /// A panic in a worker's chunk and one in the caller's own chunk
    /// both reach the caller, only after the other chunk has finished;
    /// the pool then serves the next fan-out correctly.
    #[test]
    fn chunk_panics_reach_the_caller_after_every_chunk_finished() {
        let pool = Pool::new(1);
        // One chunk runs on the worker, under the caller's width.
        let mut seen = on_two_threads(&pool, |on_caller| (on_caller, max_threads()));
        seen.sort_unstable();
        assert_eq!(seen, [(false, 7), (true, 7)]);
        let items: Vec<u32> = (0..64).collect();
        let expect: Vec<u32> = items.iter().map(|x| x + 1).collect();
        for panic_on_caller in [false, true] {
            let unwound = (Mutex::new(false), Condvar::new());
            let finished = AtomicUsize::new(0);
            let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
                on_two_threads(&pool, |on_caller| {
                    if on_caller == panic_on_caller {
                        let _signal = SignalOnDrop(&unwound);
                        panic!("chunk panicked");
                    }
                    // Parked until the panic has unwound the other
                    // chunk, then busy: the fan-out must wait for this.
                    let mut flag = lock(&unwound.0);
                    while !*flag {
                        flag = unwound.1.wait(flag).unwrap_or_else(PoisonError::into_inner);
                    }
                    drop(flag);
                    for _ in 0..1_000 {
                        std::thread::yield_now();
                    }
                    finished.fetch_add(1, Ordering::SeqCst);
                })
            }));
            assert!(outcome.is_err(), "panic_on_caller = {panic_on_caller}");
            assert_eq!(
                finished.load(Ordering::SeqCst),
                1,
                "the panic overtook a running chunk"
            );
            let out = with_threads(2, || map_in(&pool, &items, 1, |_, &x| x + 1));
            assert_eq!(out, expect);
        }
    }

    /// `par_map` nested in a `par_map` chunk and in a `join` arm equals
    /// the sequential map at every width.
    #[test]
    fn nested_fan_outs_match_the_sequential_map() {
        let pool = Pool::new(2);
        let outer: Vec<u64> = (0..12).collect();
        let inner = |x: u64| -> Vec<u64> { (0..20).map(|k| x * 100 + k).collect() };
        let nested = || {
            map_in(&pool, &outer, 1, |_, &x| {
                map_in(&pool, &inner(x), 2, |_, &y| y * 3)
            })
        };
        let expect: Vec<Vec<u64>> = outer
            .iter()
            .map(|&x| inner(x).iter().map(|y| y * 3).collect())
            .collect();
        for threads in [2, 4, 8] {
            assert_eq!(with_threads(threads, nested), expect, "{threads} threads");
            let (a, b) = with_threads(threads, || join_in(&pool, nested, nested));
            assert_eq!(a, expect, "{threads} threads, first arm");
            assert_eq!(b, expect, "{threads} threads, second arm");
        }
    }

    /// Four OS threads fanning out at once on one pool each get their
    /// own results.
    #[test]
    fn concurrent_fan_outs_get_their_own_results() {
        let pool = Pool::new(2);
        let start = Barrier::new(4);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let (pool, start) = (&pool, &start);
                s.spawn(move || {
                    let items: Vec<u64> = (0..48).map(|i| i * 4 + t).collect();
                    start.wait();
                    for round in 1..=5u64 {
                        let out = with_threads(4, || map_in(pool, &items, 4, |_, &x| x * round));
                        let expect: Vec<u64> = items.iter().map(|x| x * round).collect();
                        assert_eq!(out, expect, "thread {t}, round {round}");
                    }
                });
            }
        });
    }

    /// The pool reuses its threads: 100 consecutive fan-outs run on at
    /// most `available_parallelism()` distinct threads, where a spawn
    /// per fan-out would use a fresh pair each time.
    #[test]
    fn consecutive_fan_outs_reuse_the_pool_threads() {
        let items: Vec<u32> = (0..64).collect();
        let mut seen: Vec<ThreadId> = Vec::new();
        for _ in 0..100 {
            let ids = with_threads(2, || par_map(&items, 1, |_, _| std::thread::current().id()));
            for id in ids {
                if !seen.contains(&id) {
                    seen.push(id);
                }
            }
        }
        assert!(
            seen.len() <= machine_threads(),
            "{} threads for {} cores",
            seen.len(),
            machine_threads()
        );
    }
}
