//! Byte-diff golden tests for the committed `results/*.csv` exports.
//!
//! Every CSV under `results/` comes from one command —
//! `cargo run --release -p muaa-experiments -- all --out results/`
//! (laptop preset, seed 2019) — and every random stream in that run is
//! a `muaa_core::DetRng`, so a fresh run reproduces the committed
//! bytes on any platform. These tests pin the *cheap* exports by
//! regenerating them in-process and comparing bytes, which also pins
//! `Table::write_csv`'s title→filename slug.
//!
//! What is deliberately **not** pinned here, and why:
//!
//! - timing tables (`fig_*_b_*.csv`, `online_per_customer_*.csv`):
//!   wall-clock columns are machine-dependent by nature;
//! - utility sweep tables (`fig_*_a_*.csv`, ablations, bounds):
//!   regenerating them means re-running the full competitor set for
//!   minutes per figure. Their *solver outputs* are already pinned by
//!   `tests/thread_determinism.rs` and the rebuild-equivalence suites,
//!   so a byte drift there could only come from the harness plumbing
//!   this file exercises via the ratio study.

use muaa_experiments::figures::{ratios, settings, tag_select_study};
use muaa_experiments::Table;
use std::path::{Path, PathBuf};

fn results_dir() -> PathBuf {
    match option_env!("CARGO_MANIFEST_DIR") {
        Some(dir) => Path::new(dir).join("../../results"),
        // Offline rustc builds (no cargo env): this file is compiled by
        // absolute path, so walk up from it to the repo root.
        None => Path::new(file!())
            .ancestors()
            .nth(4)
            .expect("repo root above crates/experiments/tests")
            .join("results"),
    }
}

/// Re-export `table` through the real `write_csv` path (temp dir) and
/// byte-compare the file against its committed sibling in `results/`.
fn assert_matches_committed(table: &Table) {
    let tmp = std::env::temp_dir().join(format!("muaa-golden-{}", std::process::id()));
    let written = table.write_csv(&tmp).expect("write regenerated CSV");
    let name = written
        .file_name()
        .and_then(|n| n.to_str())
        .expect("slug filename is utf-8")
        .to_owned();
    let regenerated = std::fs::read(&written).expect("read regenerated CSV");
    let committed = std::fs::read(results_dir().join(&name))
        .unwrap_or_else(|e| panic!("missing committed results/{name}: {e}"));
    let _ = std::fs::remove_file(&written);
    assert_eq!(
        regenerated, committed,
        "results/{name} drifted from a fresh seed-2019 regeneration; if the \
         change is intentional, re-export with `cargo run --release -p \
         muaa-experiments -- all --out results/` and review the full diff"
    );
}

#[test]
fn table_i_and_table_iv_match_committed_bytes() {
    assert_matches_committed(&settings::table1());
    assert_matches_committed(&settings::table4());
}

#[test]
fn empirical_ratio_csv_matches_committed_bytes() {
    // `all` runs the ratio study at the laptop preset: 20 trials.
    let report = ratios::run(20, 2019);
    assert_matches_committed(&ratios::to_table(&report));
}

#[test]
fn tag_selection_csv_matches_committed_bytes() {
    assert_matches_committed(&tag_select_study::run(600, 30, 2019));
}
