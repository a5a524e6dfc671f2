//! Lint-engine self-benchmark (DESIGN.md §19): time the workspace
//! pass in its four engine configs — cold vs. warm [`ParseCache`],
//! one worker vs. the machine's full thread count — and write the
//! numbers to `BENCH_lint.json` in the current directory.
//!
//! Every timed run's diagnostics are captured (`render_json` plus the
//! human `render`) and compared byte-for-byte against the cold
//! sequential reference: the engine's contract says caching and
//! parallelism are pure go-faster knobs, so a run whose output drifts
//! is a failed benchmark, not a fast one.
//!
//! The speedup floor is opt-in: set `MUAA_BENCH_MIN_LINT_SPEEDUP` to
//! fail the run (exit 1) when the warm-cache pass comes in under the
//! floor relative to the cold pass — CI enables it on runners whose
//! wall clocks are trustworthy.
//!
//! Usage: `lint_report [workspace-root]` (default: the enclosing
//! workspace of the current directory).

use muaa_lint::{run_sources_tuned, ParseCache, Report};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// Best-of-N wall clock for `f`, in seconds, alongside the last run's
/// result (identical across runs by the determinism contract).
fn best_of<R>(n: usize, mut f: impl FnMut() -> R) -> (f64, R) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..n {
        let t = Instant::now();
        let r = std::hint::black_box(f());
        best = best.min(t.elapsed().as_secs_f64());
        out = Some(r);
    }
    (best, out.expect("n >= 1"))
}

/// The two diagnostic streams a consumer can observe.
fn streams(report: &Report) -> (String, String) {
    (report.render_json(), report.render())
}

fn main() -> ExitCode {
    let root = match std::env::args().nth(1) {
        Some(p) => PathBuf::from(p),
        None => {
            let cwd = std::env::current_dir().expect("current dir");
            match muaa_lint::find_workspace_root(&cwd) {
                Some(r) => r,
                None => {
                    eprintln!(
                        "lint_report: no [workspace] Cargo.toml above {}",
                        cwd.display()
                    );
                    return ExitCode::from(2);
                }
            }
        }
    };
    let files = match muaa_lint::collect_sources(&root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("lint_report: cannot read {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    const ROUNDS: usize = 5;

    // --- Cold passes: a fresh cache every iteration, so every file is
    // lexed, item-treed and rule-checked from scratch.
    let (cold_seq_s, reference) = best_of(ROUNDS, || {
        run_sources_tuned(&files, &mut ParseCache::new(), Some(1))
    });
    let (cold_par_s, cold_par) = best_of(ROUNDS, || {
        run_sources_tuned(&files, &mut ParseCache::new(), None)
    });

    // --- Warm passes: one cache primed outside the timed region, then
    // reused — the per-file parses are cache hits; only the rule pass
    // and the workspace-level analyses re-run.
    let mut warm_seq_cache = ParseCache::new();
    run_sources_tuned(&files, &mut warm_seq_cache, Some(1));
    let (warm_seq_s, warm_seq) = best_of(ROUNDS, || {
        run_sources_tuned(&files, &mut warm_seq_cache, Some(1))
    });
    let mut warm_par_cache = ParseCache::new();
    run_sources_tuned(&files, &mut warm_par_cache, None);
    let (warm_par_s, warm_par) = best_of(ROUNDS, || {
        run_sources_tuned(&files, &mut warm_par_cache, None)
    });

    // --- Identity gate: all four configs must render byte-identically.
    let want = streams(&reference);
    for (name, report) in [
        ("cold-parallel", &cold_par),
        ("warm-sequential", &warm_seq),
        ("warm-parallel", &warm_par),
    ] {
        if streams(report) != want {
            eprintln!("lint_report: {name} diagnostics diverged from the cold sequential pass");
            return ExitCode::FAILURE;
        }
    }

    let cached_speedup = cold_seq_s / warm_seq_s;
    let parallel_speedup = cold_seq_s / cold_par_s;
    let json = format!(
        "{{\n  \"fixture\": {{\"files\": {}, \"violations\": {}, \"threads\": {}}},\n  \
         \"identity\": \"all four engine configs byte-identical\",\n  \
         \"cold_sequential_ms\": {:.3},\n  \
         \"cold_parallel_ms\": {:.3},\n  \
         \"warm_sequential_ms\": {:.3},\n  \
         \"warm_parallel_ms\": {:.3},\n  \
         \"speedup_cached_vs_cold\": {:.2},\n  \
         \"speedup_parallel_vs_sequential\": {:.2}\n}}\n",
        reference.files_checked,
        reference.violations.len(),
        threads,
        cold_seq_s * 1e3,
        cold_par_s * 1e3,
        warm_seq_s * 1e3,
        warm_par_s * 1e3,
        cached_speedup,
        parallel_speedup,
    );
    print!("{json}");
    std::fs::write("BENCH_lint.json", &json).expect("write BENCH_lint.json");

    if let Ok(floor) = std::env::var("MUAA_BENCH_MIN_LINT_SPEEDUP") {
        let floor: f64 = floor
            .parse()
            .expect("MUAA_BENCH_MIN_LINT_SPEEDUP must be a number");
        if cached_speedup < floor {
            eprintln!(
                "lint_report: warm-cache speedup {cached_speedup:.2}x under the \
                 MUAA_BENCH_MIN_LINT_SPEEDUP={floor} floor"
            );
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
