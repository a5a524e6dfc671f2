//! The tier-1 gate: run the full static-analysis pass over the *live*
//! workspace, so a plain `cargo test` rejects any new determinism or
//! safety violation (DESIGN.md §13), and replay every rule's witness.

use muaa_lint::rules::RULES;
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

/// A rule's witness: one mutation of a live workspace file that is a
/// real bug, that tier-1 `cargo test` and `cargo clippy --workspace
/// --all-targets -- -D warnings` both miss, and that the rule flags. A
/// rule keeps its place in [`RULES`] only while it has one; the runs
/// that showed the misses are recorded in CHANGES.md.
struct Witness {
    rule: &'static str,
    file: &'static str,
    /// Replaced once; must occur exactly once in `file`.
    from: &'static str,
    to: &'static str,
    /// What goes wrong at run time.
    bug: &'static str,
}

const WITNESSES: &[Witness] = &[
    Witness {
        rule: "D1",
        file: "crates/algorithms/src/online/oafa.rs",
        from: "b.gamma.total_cmp(&a.gamma)",
        to: "b.gamma.partial_cmp(&a.gamma).unwrap_or(std::cmp::Ordering::Equal)",
        bug: "a NaN efficiency makes O-AFA's candidate comparator inconsistent, so the \
              ad order is unspecified (or `sort_by` panics) and ±0 tie differently",
    },
    Witness {
        rule: "D12",
        file: "crates/algorithms/src/online/estimate.rs",
        from: "let gamma_min = q(0.02);",
        to: "let gamma_min = q(std::env::var(\"MUAA_GAMMA_MIN_QUANTILE\")\
             .map_or(0.02, |p| p.parse().unwrap_or(0.02)));",
        bug: "γ_min, and with it O-AFA's threshold, depends on the environment: one \
              instance and seed serve different ads on different machines",
    },
    Witness {
        rule: "D13",
        file: "crates/algorithms/src/context.rs",
        from: "AllocGuard::counting(\"context.pair_base_block\");\n        out.clear();",
        to: "AllocGuard::counting(\"context.pair_base_block\");\n        *out = Vec::new();",
        bug: "the block kernel drops its caller's buffer, so BATCHED-RECON allocates \
              once per vendor; only the sanitized suite, which tier-1 does not run, \
              counts allocations",
    },
    Witness {
        rule: "D15",
        file: "crates/algorithms/src/context.rs",
        from: "let _hot = muaa_core::sanitize::AllocGuard::strict(\"context.walk_pairs\");",
        to: "let _ = muaa_core::sanitize::AllocGuard::strict(\"context.walk_pairs\");",
        bug: "the walk's strict zero-allocation region is never armed: the sanitized \
              suite still passes, and so would an allocation added to the walk later",
    },
    Witness {
        rule: "D16",
        file: "crates/algorithms/src/context.rs",
        from: "    pub fn apply(&mut self, delta: &Delta) -> Result<(), CoreError> {\n        \
               self.instance.to_mut().apply(delta)?;",
        to: "    pub fn apply(&mut self, delta: &Delta) -> Result<(), CoreError> {\n        \
             if let Delta::VendorTags(vid, _) = delta {\n            \
             self.eligibility.invalidate_vendor(*vid);\n        }\n        \
             self.instance.to_mut().apply(delta)?;",
        bug: "a VendorTags delta is acted on before the instance validates it: an \
              unknown vendor id panics instead of returning Err, and a rejected delta \
              still resets the vendor's memo slots",
    },
];

#[test]
fn every_rule_fires_on_its_witness_mutation() {
    for rule in RULES {
        assert!(
            WITNESSES.iter().any(|w| w.rule == rule.id),
            "rule {} ({}) has no witness row: find a mutation that only it \
             catches, or delete the rule with its fixtures and allow key",
            rule.id,
            rule.summary
        );
    }
    let sources = muaa_lint::collect_sources(&workspace_root()).expect("workspace sources");
    for w in WITNESSES {
        let mut files = sources.clone();
        let (_, src) = files
            .iter_mut()
            .find(|(path, _)| path == w.file)
            .unwrap_or_else(|| panic!("{}: witness file {} is gone", w.rule, w.file));
        assert_eq!(
            src.matches(w.from).count(),
            1,
            "{}: the witness anchor must occur once in {}",
            w.rule,
            w.file
        );
        *src = src.replacen(w.from, w.to, 1);
        let report = muaa_lint::run_sources(&files);
        assert!(
            !report.clean() && report.violations.iter().all(|v| v.rule == w.rule),
            "{} must flag its witness ({}), and only it:\n{}",
            w.rule,
            w.bug,
            report.render()
        );
    }
}
