//! The tier-1 gate: run the full static-analysis pass over the *live*
//! workspace, so a plain `cargo test` rejects any new determinism or
//! safety violation (DESIGN.md §13).

use std::path::PathBuf;

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root")
}

#[test]
fn workspace_has_no_lint_violations() {
    let root = workspace_root();
    let report = muaa_lint::run(&root).expect("lint pass runs");
    assert!(
        report.files_checked > 50,
        "suspiciously few files checked ({}) — wrong root {}?",
        report.files_checked,
        root.display()
    );
    assert!(
        report.clean(),
        "muaa-lint found violations in the live workspace:\n{}",
        report.render()
    );
}

#[test]
fn every_workspace_unsafe_site_has_a_safety_comment() {
    let report = muaa_lint::run(&workspace_root()).expect("lint pass runs");
    let missing: Vec<_> = report
        .unsafe_sites
        .iter()
        .filter(|s| !s.has_safety)
        .collect();
    assert!(missing.is_empty(), "unsafe without SAFETY: {missing:?}");
}

/// The workspace's `unsafe` is six sites: the counting allocator's five
/// in `crates/core/src/sanitize.rs` (DESIGN.md §14) and the worker
/// pool's lifetime erasure in `crates/core/src/par.rs` (DESIGN.md §10).
/// A new site anywhere, e.g. a kernel in `simd.rs`, must update this
/// pin.
#[test]
fn unsafe_sites_are_the_counting_allocator_and_the_worker_pool() {
    let report = muaa_lint::run(&workspace_root()).expect("lint pass runs");
    let files: Vec<&str> = report
        .unsafe_sites
        .iter()
        .map(|s| s.file.as_str())
        .collect();
    assert_eq!(
        files,
        [
            "crates/core/src/par.rs",
            "crates/core/src/sanitize.rs",
            "crates/core/src/sanitize.rs",
            "crates/core/src/sanitize.rs",
            "crates/core/src/sanitize.rs",
            "crates/core/src/sanitize.rs",
        ],
        "{:?}",
        report.unsafe_sites
    );
}
