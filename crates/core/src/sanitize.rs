//! Runtime sanitizer for the workspace's zero-allocation and finite-math
//! claims (DESIGN.md §14).
//!
//! The solver hot loops are *documented* as allocation-free and
//! NaN-free, and `muaa-lint` rule D13 enforces the allocation claim
//! statically in and under every `#[muaa::hot]`-annotated function. This
//! module is the dynamic half of that cross-check: built with the
//! `muaa-sanitize` feature, `muaa-core` installs a counting
//! [`std::alloc::GlobalAlloc`] with **thread-local** accounting and the
//! hot kernels wrap themselves in RAII guard regions:
//!
//! * [`AllocGuard::strict`] — panics on drop if the current thread
//!   allocated inside the region. Placed around regions that must be
//!   allocation-free on *every* call (the pair-base kernels, the fused
//!   similarity pass).
//! * [`AllocGuard::counting`] — records the region's allocation count
//!   in a global registry without panicking. Placed around regions that
//!   are zero-allocation only at steady state (query paths pushing into
//!   caller-reused buffers); tests warm the buffers up, reset the
//!   registry, and assert the steady-state count is zero.
//! * [`NanGuard`] — panics on drop if any value fed through
//!   [`note_f64`] inside the region was NaN or ±∞.
//!
//! Accounting is strictly per-thread: a guard opened on one thread never
//! observes another thread's allocations, so guarded regions inside
//! [`crate::par::par_map`] workers stay meaningful. Region statistics
//! are aggregated *across* threads into a process-wide registry (guard
//! drops are infrequent; the hot path itself only touches thread
//! locals).
//!
//! Without the `muaa-sanitize` feature every type here is a zero-sized
//! no-op and every function an empty `#[inline]` stub, so annotated hot
//! code pays nothing in normal builds.

#[cfg(feature = "muaa-sanitize")]
mod real {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;
    use std::collections::BTreeMap;
    use std::sync::Mutex;

    thread_local! {
        /// Allocations (alloc/realloc/alloc_zeroed) made by this thread.
        static ALLOCS: Cell<u64> = const { Cell::new(0) };
        /// Non-finite values observed by [`note_f64`] on this thread.
        static NONFINITE: Cell<u64> = const { Cell::new(0) };
        /// When set, the counting allocator ignores this thread's
        /// allocations (used while updating the global registry so a
        /// registry insert never trips an enclosing guard).
        static SUSPENDED: Cell<bool> = const { Cell::new(false) };
    }

    /// The counting allocator: defers to [`System`] and bumps the
    /// thread-local counter on every allocating call.
    struct CountingAlloc;

    impl CountingAlloc {
        fn count_one() {
            // `try_with` so allocations during TLS teardown (thread
            // exit) never panic inside the allocator.
            let _ = ALLOCS.try_with(|c| {
                let _ = SUSPENDED.try_with(|s| {
                    if !s.get() {
                        c.set(c.get() + 1);
                    }
                });
            });
        }
    }

    #[expect(unsafe_code, reason = "a global allocator is an unsafe trait impl")]
    // SAFETY: every method forwards verbatim to `System`, which upholds
    // the GlobalAlloc contract; the counter bump has no effect on the
    // returned memory.
    unsafe impl GlobalAlloc for CountingAlloc {
        // SAFETY: same layout contract as `System::alloc`.
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            Self::count_one();
            System.alloc(layout)
        }

        // SAFETY: same pointer/layout contract as `System::dealloc`.
        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }

        // SAFETY: same layout contract as `System::alloc_zeroed`.
        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            Self::count_one();
            System.alloc_zeroed(layout)
        }

        // SAFETY: same pointer/layout contract as `System::realloc`.
        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            Self::count_one();
            System.realloc(ptr, layout, new_size)
        }
    }

    #[global_allocator]
    static GLOBAL: CountingAlloc = CountingAlloc;

    /// Per-region totals aggregated across all guard drops.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct RegionStats {
        /// Guarded entries into the region (guard drops observed).
        pub entries: u64,
        /// Allocations observed inside the region, summed over entries.
        pub allocations: u64,
        /// Non-finite values noted inside the region, summed over
        /// entries.
        pub nonfinite: u64,
    }

    static REGISTRY: Mutex<BTreeMap<&'static str, RegionStats>> = Mutex::new(BTreeMap::new());

    fn record(region: &'static str, allocations: u64, nonfinite: u64) {
        let prev = SUSPENDED.with(|s| s.replace(true));
        {
            // Poisoning only happens if a panic occurred *inside* this
            // short critical section; recover the data either way.
            let mut map = match REGISTRY.lock() {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            };
            let entry = map.entry(region).or_default();
            entry.entries += 1;
            entry.allocations += allocations;
            entry.nonfinite += nonfinite;
        }
        SUSPENDED.with(|s| s.set(prev));
    }

    /// `true`: this build carries the sanitizer.
    pub fn enabled() -> bool {
        true
    }

    /// Allocations made by the current thread so far (monotone).
    pub fn thread_alloc_count() -> u64 {
        ALLOCS.with(Cell::get)
    }

    /// Non-finite values noted by the current thread so far (monotone).
    pub fn thread_nonfinite_count() -> u64 {
        NONFINITE.with(Cell::get)
    }

    /// Record one value produced by a hot kernel; NaN and ±∞ bump the
    /// thread-local non-finite counter that [`NanGuard`] checks.
    #[inline]
    pub fn note_f64(value: f64) {
        if !value.is_finite() {
            NONFINITE.with(|c| c.set(c.get() + 1));
        }
    }

    /// Snapshot of the per-region registry, sorted by region name.
    pub fn region_stats() -> Vec<(&'static str, RegionStats)> {
        let map = match REGISTRY.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        map.iter().map(|(&k, &v)| (k, v)).collect()
    }

    /// Reset the per-region registry (tests use this between a warm-up
    /// pass and the steady-state assertion).
    pub fn reset_region_stats() {
        let mut map = match REGISTRY.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        map.clear();
    }

    /// RAII allocation region. See the module docs for the
    /// strict/counting split.
    #[derive(Debug)]
    pub struct AllocGuard {
        region: &'static str,
        start: u64,
        strict: bool,
    }

    impl AllocGuard {
        /// A region that must never allocate: the guard panics on drop
        /// if the current thread allocated while it was live.
        #[inline]
        pub fn strict(region: &'static str) -> Self {
            AllocGuard {
                region,
                start: thread_alloc_count(),
                strict: true,
            }
        }

        /// A region whose allocations are recorded but tolerated
        /// (steady-state-zero regions; tests assert on the registry).
        #[inline]
        pub fn counting(region: &'static str) -> Self {
            AllocGuard {
                region,
                start: thread_alloc_count(),
                strict: false,
            }
        }

        /// Allocations observed on this thread since the guard opened.
        pub fn allocations(&self) -> u64 {
            thread_alloc_count() - self.start
        }
    }

    impl Drop for AllocGuard {
        fn drop(&mut self) {
            let delta = self.allocations();
            record(self.region, delta, 0);
            if self.strict && delta > 0 && !std::thread::panicking() {
                panic!(
                    "muaa-sanitize: zero-alloc region `{}` performed {} allocation(s)",
                    self.region, delta
                );
            }
        }
    }

    /// RAII finite-math region: panics on drop if any [`note_f64`] call
    /// made by this thread inside the region saw a NaN or ±∞.
    #[derive(Debug)]
    pub struct NanGuard {
        region: &'static str,
        start: u64,
    }

    impl NanGuard {
        /// Open a finite-math region.
        #[inline]
        pub fn new(region: &'static str) -> Self {
            NanGuard {
                region,
                start: thread_nonfinite_count(),
            }
        }
    }

    impl Drop for NanGuard {
        fn drop(&mut self) {
            let delta = thread_nonfinite_count() - self.start;
            if delta > 0 {
                record(self.region, 0, delta);
                if !std::thread::panicking() {
                    panic!(
                        "muaa-sanitize: region `{}` produced {} non-finite value(s)",
                        self.region, delta
                    );
                }
            }
        }
    }
}

#[cfg(not(feature = "muaa-sanitize"))]
mod real {
    /// Per-region totals; always empty without `muaa-sanitize`.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct RegionStats {
        /// Guarded entries into the region.
        pub entries: u64,
        /// Allocations observed inside the region.
        pub allocations: u64,
        /// Non-finite values noted inside the region.
        pub nonfinite: u64,
    }

    /// `false`: this build has no sanitizer; all guards are no-ops.
    #[inline(always)]
    pub fn enabled() -> bool {
        false
    }

    /// Always 0 without `muaa-sanitize`.
    #[inline(always)]
    pub fn thread_alloc_count() -> u64 {
        0
    }

    /// Always 0 without `muaa-sanitize`.
    #[inline(always)]
    pub fn thread_nonfinite_count() -> u64 {
        0
    }

    /// No-op without `muaa-sanitize`.
    #[inline(always)]
    pub fn note_f64(_value: f64) {}

    /// Always empty without `muaa-sanitize`.
    #[inline(always)]
    pub fn region_stats() -> Vec<(&'static str, RegionStats)> {
        Vec::new()
    }

    /// No-op without `muaa-sanitize`.
    #[inline(always)]
    pub fn reset_region_stats() {}

    /// Zero-sized no-op stand-in for the sanitizing allocation guard.
    #[derive(Debug)]
    pub struct AllocGuard;

    impl AllocGuard {
        /// No-op without `muaa-sanitize`.
        #[inline(always)]
        pub fn strict(_region: &'static str) -> Self {
            AllocGuard
        }

        /// No-op without `muaa-sanitize`.
        #[inline(always)]
        pub fn counting(_region: &'static str) -> Self {
            AllocGuard
        }

        /// Always 0 without `muaa-sanitize`.
        #[inline(always)]
        pub fn allocations(&self) -> u64 {
            0
        }
    }

    /// Zero-sized no-op stand-in for the finite-math guard.
    #[derive(Debug)]
    pub struct NanGuard;

    impl NanGuard {
        /// No-op without `muaa-sanitize`.
        #[inline(always)]
        pub fn new(_region: &'static str) -> Self {
            NanGuard
        }
    }
}

pub use real::{
    enabled, note_f64, region_stats, reset_region_stats, thread_alloc_count,
    thread_nonfinite_count, AllocGuard, NanGuard, RegionStats,
};

#[cfg(all(test, feature = "muaa-sanitize"))]
mod tests {
    use super::*;

    // The allocation counter is thread-local, so tests about *this*
    // thread's counter are immune to the test harness's own threads.

    #[test]
    fn counter_observes_allocations() {
        let before = thread_alloc_count();
        let v: Vec<u64> = Vec::with_capacity(32);
        assert!(
            thread_alloc_count() > before,
            "Vec::with_capacity must count"
        );
        drop(v);
    }

    #[test]
    fn strict_guard_passes_on_clean_region() {
        let guard = AllocGuard::strict("test.clean");
        let mut acc = 0u64;
        for i in 0..1000u64 {
            acc = acc.wrapping_add(i * i);
        }
        assert_eq!(guard.allocations(), 0);
        drop(guard);
        assert!(acc > 0);
    }

    #[test]
    fn strict_guard_panics_on_allocation() {
        let result = std::panic::catch_unwind(|| {
            let _guard = AllocGuard::strict("test.dirty");
            let v: Vec<u64> = Vec::with_capacity(8);
            drop(v);
        });
        assert!(
            result.is_err(),
            "strict guard must panic when the region allocates"
        );
    }

    #[test]
    fn counting_guard_records_without_panicking() {
        reset_region_stats();
        {
            let _guard = AllocGuard::counting("test.counting");
            let v: Vec<u64> = Vec::with_capacity(8);
            drop(v);
        }
        let stats = region_stats();
        let (_, s) = stats
            .iter()
            .find(|(name, _)| *name == "test.counting")
            .expect("region recorded");
        assert_eq!(s.entries, 1);
        assert!(s.allocations >= 1);
    }

    #[test]
    fn guards_nest_and_attribute_to_both_regions() {
        reset_region_stats();
        {
            let _outer = AllocGuard::counting("test.nest.outer");
            {
                let _inner = AllocGuard::counting("test.nest.inner");
                let v: Vec<u64> = Vec::with_capacity(8);
                drop(v);
            }
        }
        let stats = region_stats();
        let get = |name: &str| {
            stats
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, s)| *s)
                .expect("region recorded")
        };
        // The inner allocation is inside both live regions, and the
        // registry update for the inner guard is suspended so it does
        // not inflate the outer count.
        assert!(get("test.nest.inner").allocations >= 1);
        assert_eq!(
            get("test.nest.inner").allocations,
            get("test.nest.outer").allocations
        );
    }

    #[test]
    fn guard_on_one_thread_ignores_other_threads_allocations() {
        use std::sync::mpsc;
        let (ready_tx, ready_rx) = mpsc::channel();
        let (done_tx, done_rx) = mpsc::channel();
        let noisy = std::thread::spawn(move || {
            // Allocate furiously until told to stop.
            ready_tx.send(()).expect("main alive");
            let mut sink = 0usize;
            while done_rx.try_recv().is_err() {
                let v: Vec<u64> = Vec::with_capacity(64);
                sink = sink.wrapping_add(v.capacity());
            }
            sink
        });
        ready_rx.recv().expect("worker started");
        {
            // Strict guard on this thread: must not observe the worker.
            let guard = AllocGuard::strict("test.cross_thread");
            let mut acc = 0u64;
            for i in 0..200_000u64 {
                acc = acc.wrapping_add(i ^ (i << 7));
            }
            assert_eq!(
                guard.allocations(),
                0,
                "foreign-thread allocations leaked in"
            );
            std::hint::black_box(acc);
        }
        done_tx.send(()).expect("worker alive");
        noisy.join().expect("worker exits");
    }

    #[test]
    fn nan_guard_passes_finite_and_panics_on_nan() {
        {
            let _g = NanGuard::new("test.nan.clean");
            note_f64(1.0);
            note_f64(-2.5e300);
        }
        let result = std::panic::catch_unwind(|| {
            let _g = NanGuard::new("test.nan.dirty");
            note_f64(f64::NAN);
        });
        assert!(result.is_err(), "NanGuard must panic on a noted NaN");
        let result = std::panic::catch_unwind(|| {
            let _g = NanGuard::new("test.inf.dirty");
            note_f64(f64::INFINITY);
        });
        assert!(result.is_err(), "NanGuard must panic on a noted infinity");
    }

    #[test]
    fn nested_alloc_guards_cross_thread_via_par_map() {
        // A strict guard inside each par_map worker: workers allocate
        // their own result Vecs *outside* the guarded closure body, so
        // the guarded arithmetic region stays clean on every worker.
        let items: Vec<u64> = (0..512).collect();
        let out = crate::par::par_map(&items, 16, |_, &x| {
            let _g = AllocGuard::strict("test.par_worker");
            x.wrapping_mul(2654435761)
        });
        assert_eq!(out.len(), 512);
    }
}
