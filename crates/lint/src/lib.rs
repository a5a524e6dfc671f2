//! `muaa-lint` — the MUAA workspace's dependency-free determinism &
//! safety static-analysis pass (DESIGN.md §13).
//!
//! The repo's core guarantee — bit-identical (0 ULP) solver outputs
//! at every thread count and across the delta engine vs. a full
//! rebuild — is enforced dynamically by the equivalence test
//! suites. This crate enforces the part of it that rustc and clippy
//! cannot express *statically*: it walks every `.rs` file in the
//! workspace with a hand-rolled lexer (no `syn`, no registry access)
//! and rejects the construct classes that silently break the
//! contract. What the compiler can check — `unsafe` sites, SAFETY
//! comments, `unwrap`/`expect` in library code, wildcard arms over
//! `Delta` — is in the workspace lint tables instead. See
//! [`rules::RULES`] for the rule table and DESIGN.md §13 for the
//! rationale.
//!
//! Three entry points, same pass:
//!
//! * `cargo run -p muaa-lint` (or the `cargo lint` alias) — the CLI;
//! * the `workspace_gate` integration test — plain `cargo test` gates
//!   it, and replays each rule's witness mutation;
//! * [`run_sources`] / [`check_source`] — the pass over in-memory
//!   files, for fixtures.

pub mod callgraph;
pub mod cfg;
pub mod lexer;
pub mod rules;
pub mod tree;

use rules::{FileAnalysis, Violation};
use std::fs;
use std::path::{Path, PathBuf};

/// Outcome of a full workspace pass.
#[derive(Debug, Default)]
pub struct Report {
    pub files_checked: usize,
    pub violations: Vec<Violation>,
}

impl Report {
    /// `true` iff the workspace passes.
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Render diagnostics plus a summary line — the format
    /// `.github/muaa-lint-problem-matcher.json` parses.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for v in &self.violations {
            out.push_str(&format!("{v}\n"));
        }
        out.push_str(&format!(
            "muaa-lint: {} files checked, {} violation(s)\n",
            self.files_checked,
            self.violations.len()
        ));
        out
    }
}

/// Lint a single in-memory source file. `rel_path` decides which rules
/// apply (see [`rules::RULES`] scopes) — the unit-test fixtures use
/// paths like `crates/core/src/fixture.rs` to opt into a scope.
pub fn check_source(rel_path: &str, src: &str) -> Vec<Violation> {
    run_sources(&[(rel_path.to_string(), src.to_string())]).violations
}

/// The full pass over a set of in-memory `(rel_path, source)` files:
/// per-file rules (D1, D15, D16), then the call-graph rules (D12,
/// D13), then allow hygiene last, so its staleness check observes
/// every rule's allow consultations.
pub fn run_sources(files: &[(String, String)]) -> Report {
    let mut report = Report {
        files_checked: files.len(),
        ..Report::default()
    };
    let mut analyzed: Vec<(FileAnalysis, tree::ItemTree)> = Vec::with_capacity(files.len());
    for (rel, src) in files {
        let fa = FileAnalysis::new(rel, src);
        let items = tree::build(&fa);
        report.violations.extend(rules::run_all(&fa, &items));
        analyzed.push((fa, items));
    }
    let graph = callgraph::CallGraph::build(&analyzed);
    report
        .violations
        .extend(graph.d12_determinism_taint(&analyzed));
    report.violations.extend(graph.d13_hot_alloc(&analyzed));
    for (fa, _) in &analyzed {
        report.violations.extend(rules::allow_hygiene(fa));
    }
    report
        .violations
        .sort_by_key(|v| (v.file.clone(), v.line, v.col, v.rule));
    report
}

/// Directories never linted: build output, VCS, editor state, the
/// quality-filtered reference snapshots which are not workspace code,
/// and the lint crate's own deliberately-violating test fixtures.
const SKIP_DIRS: &[&str] = &[
    "target", ".git", ".claude", "related", "results", "fixtures",
];

/// Read every lintable `.rs` file under `root`, deterministically
/// (directory entries are visited in sorted order; paths come back
/// workspace-relative and `/`-separated) — the exact input shape
/// [`run_sources`] expects.
pub fn collect_sources(root: &Path) -> std::io::Result<Vec<(String, String)>> {
    let mut files = Vec::new();
    collect_rs_files(root, root, &mut files)?;
    files.sort();
    let mut sources = Vec::with_capacity(files.len());
    for rel in files {
        let src = fs::read_to_string(root.join(&rel))?;
        let rel_unix = rel.to_string_lossy().replace('\\', "/");
        sources.push((rel_unix, src));
    }
    Ok(sources)
}

/// Walk `root` and lint every workspace `.rs` file.
pub fn run(root: &Path) -> std::io::Result<Report> {
    Ok(run_sources(&collect_sources(root)?))
}

fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<_> = fs::read_dir(dir)?.collect::<Result<_, _>>()?;
    entries.sort_by_key(|e| e.file_name());
    for entry in entries {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_path_buf());
            }
        }
    }
    Ok(())
}

/// Find the workspace root: walk up from `start` to the first directory
/// whose `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn violations(rel_path: &str, src: &str) -> Vec<Violation> {
        check_source(rel_path, src)
    }

    fn rule_ids(rel_path: &str, src: &str) -> Vec<&'static str> {
        violations(rel_path, src).iter().map(|v| v.rule).collect()
    }

    // ---- D1 ---------------------------------------------------------

    #[test]
    fn d1_flags_partial_cmp_in_sort_by() {
        let src = "fn f(v: &mut Vec<f64>) { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }";
        let v = violations("crates/x/src/a.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "D1");
        assert_eq!(v[0].line, 1);
        assert!(v[0].message.contains("total_cmp"));
    }

    #[test]
    fn d1_flags_multi_line_comparator_closures() {
        let src = "fn f(v: &mut Vec<(f64, u32)>) {\n    v.sort_by(|a, b| {\n        a.0\n            .partial_cmp(&b.0)\n            .unwrap_or(std::cmp::Ordering::Equal)\n    });\n}";
        let v = violations("crates/x/src/a.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!((v[0].rule, v[0].line), ("D1", 4));
    }

    #[test]
    fn d1_flags_binary_search_and_extrema_and_lt_style() {
        for src in [
            "fn f(v: &[f64], u: f64) { let _ = v.binary_search_by(|c| c.partial_cmp(&u).unwrap()); }",
            "fn f(v: &[f64]) { let _ = v.iter().max_by(|a, b| a.partial_cmp(b).unwrap()); }",
            "fn f(v: &mut [f64]) { v.sort_unstable_by(|a, b| if a.lt(b) { std::cmp::Ordering::Less } else { std::cmp::Ordering::Greater }); }",
        ] {
            assert_eq!(rule_ids("crates/x/src/a.rs", src), vec!["D1"], "missed in: {src}");
        }
    }

    #[test]
    fn d1_ignores_total_cmp_strings_and_comments() {
        for src in [
            "fn f(v: &mut Vec<f64>) { v.sort_by(|a, b| a.total_cmp(b)); }",
            // The trap cases: partial_cmp in a string literal / comment.
            "fn f() { let _ = \"v.sort_by(|a,b| a.partial_cmp(b))\"; }",
            "fn f(v: &mut Vec<f64>) { v.sort_by(f64::total_cmp); /* partial_cmp would be wrong */ }",
            // partial_cmp *outside* a comparator chain is D1-clean.
            "fn f(a: f64, b: f64) -> bool { a.partial_cmp(&b).is_some() }",
        ] {
            assert!(rule_ids("crates/x/src/a.rs", src).is_empty(), "false positive in: {src}");
        }
    }

    #[test]
    fn d1_respects_allow_annotation() {
        let src = "fn f(v: &mut Vec<f64>) {\n    // NaNs filtered before this sort. lint: allow(partial_cmp)\n    v.sort_by(|a, b| a.partial_cmp(b).unwrap());\n}";
        assert!(violations("crates/x/src/a.rs", src).is_empty());
    }

    #[test]
    fn d1_applies_to_test_files_too() {
        let src = "fn f(v: &mut Vec<f64>) { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }";
        assert_eq!(rule_ids("crates/x/tests/t.rs", src), vec!["D1"]);
    }

    // ---- D6, folded into D13: hot bodies are their own roots ---------

    #[test]
    fn d6_flags_allocations_in_hot_fns_under_both_attr_spellings() {
        for attr in ["#[muaa::hot]", "#[cfg_attr(any(), muaa::hot)]"] {
            let src = format!(
                "{attr}\nfn kernel(out: &mut Vec<f64>) {{\n    let v = Vec::new();\n    out.push(1.0);\n    drop(v);\n}}"
            );
            let v = violations("crates/core/src/a.rs", &src);
            assert_eq!(v.len(), 2, "in: {src}\ngot: {v:?}");
            assert!(v.iter().all(|x| x.rule == "D13"));
            assert!(v[0].message.contains("kernel"));
        }
    }

    #[test]
    fn d6_flags_collect_format_box_and_to_vec() {
        let src = "#[muaa::hot]\nfn kernel(xs: &[f64]) {\n    let a: Vec<f64> = xs.iter().copied().collect();\n    let b = xs.to_vec();\n    let c = format!(\"{a:?}{b:?}\");\n    let d = Box::new(c);\n    drop(d);\n}";
        let v = violations("crates/core/src/a.rs", src);
        assert_eq!(v.len(), 4, "{v:?}");
        assert!(v.iter().all(|x| x.rule == "D13"));
    }

    #[test]
    fn d6_ignores_cold_fns_capacity_calls_and_justified_allows() {
        // No hot attribute → no rule.
        let cold = "fn kernel(out: &mut Vec<f64>) { out.push(1.0); }";
        assert!(violations("crates/core/src/a.rs", cold).is_empty());
        // Capacity-preserving calls stay legal in hot code.
        let reserve = "#[muaa::hot]\nfn kernel(out: &mut Vec<f64>) {\n    out.reserve(4);\n    out.clear();\n    out.extend([1.0]);\n}";
        assert!(violations("crates/core/src/a.rs", reserve).is_empty());
        // A justified allow waives a deliberate allocation.
        let allowed = "#[muaa::hot]\nfn kernel(out: &mut Vec<f64>) {\n    // one-time warm-up growth, pinned by the counting guard. lint: allow(hot_alloc)\n    out.push(1.0);\n}";
        assert!(violations("crates/core/src/a.rs", allowed).is_empty());
    }

    // ---- allow hygiene (D8's two checks, now the allow contract) -----

    #[test]
    fn d8_flags_bare_and_stale_allows() {
        // Annotation that works but never says why: reported under the
        // rule that owns the key.
        let bare = "fn f(v: &mut Vec<f64>) {\n    // lint: allow(partial_cmp)\n    v.sort_by(|a, b| a.partial_cmp(b).unwrap());\n}";
        let v = violations("crates/x/src/a.rs", bare);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "D1");
        assert!(v[0].message.contains("justification"));
        // Justified but suppressing nothing → stale.
        let stale =
            "// NaNs were filtered upstream of this sort. lint: allow(partial_cmp)\nfn f() {}\n";
        let v = violations("crates/x/src/a.rs", stale);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "D1");
        assert!(v[0].message.contains("stale"));
        // A key no rule owns is no annotation: it waives nothing and
        // cannot go stale.
        let unknown = "// Retired key, kept as a plain comment. lint: allow(hot_call)\nfn f() {}\n";
        assert!(violations("crates/x/src/a.rs", unknown).is_empty());
        // Justified and used → clean.
        let good = "fn f(v: &mut Vec<f64>) {\n    // NaNs filtered upstream of this sort. lint: allow(partial_cmp)\n    v.sort_by(|a, b| a.partial_cmp(b).unwrap());\n}";
        assert!(violations("crates/x/src/a.rs", good).is_empty());
    }

    #[test]
    fn d8_reads_the_whole_comment_block_and_skips_doc_comments() {
        // The justification may span the surrounding comment block.
        let block = "fn f(v: &mut Vec<f64>) {\n    // Presentation-only sort; NaNs impossible\n    // by construction. lint: allow(partial_cmp)\n    v.sort_by(|a, b| a.partial_cmp(b).unwrap());\n}";
        assert!(violations("crates/x/src/a.rs", block).is_empty());
        // Doc comments never register annotations — a rule table in
        // docs is not an allow and cannot go stale.
        let doc = "/// Escape hatch: `// lint: allow(partial_cmp)` waives D1.\nfn f() {}";
        assert!(violations("crates/x/src/a.rs", doc).is_empty());
    }

    // ---- engine -----------------------------------------------------

    #[test]
    fn self_check_own_sources_pass() {
        // The linter lints itself: its sources mention every banned
        // construct, but only inside string literals and comments.
        for (path, src) in [
            ("crates/lint/src/lexer.rs", include_str!("lexer.rs")),
            ("crates/lint/src/rules.rs", include_str!("rules.rs")),
            ("crates/lint/src/tree.rs", include_str!("tree.rs")),
            ("crates/lint/src/callgraph.rs", include_str!("callgraph.rs")),
            ("crates/lint/src/cfg.rs", include_str!("cfg.rs")),
            ("crates/lint/src/lib.rs", include_str!("lib.rs")),
            ("crates/lint/src/main.rs", include_str!("main.rs")),
        ] {
            let v = check_source(path, src);
            assert!(
                v.is_empty(),
                "muaa-lint fails its own pass in {path}: {v:?}"
            );
        }
    }

    #[test]
    fn violations_render_file_line_col_rule_and_snippet() {
        let src = "fn f(v: &mut Vec<f64>) { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }";
        let v = violations("crates/x/src/a.rs", src);
        let rendered = format!("{}", v[0]);
        assert!(rendered.starts_with("crates/x/src/a.rs:1:"), "{rendered}");
        assert!(rendered.contains("[D1]"));
        assert!(rendered.contains("sort_by"), "snippet missing: {rendered}");
    }

    #[test]
    fn d15_flags_discarded_guard_binding() {
        let src = "fn f() -> usize {\n    let _ = AllocGuard::strict();\n    compute()\n}\n";
        let v = violations("crates/core/src/g.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "D15");
        assert!(v[0].message.contains("never armed"), "{}", v[0].message);
    }

    #[test]
    fn d16_flags_mutation_before_bump() {
        let src = "impl S {\n    fn apply(&mut self, d: &D) -> Result<(), ()> {\n        self.cols.invalidate_customer(d.id);\n        self.epoch.apply(d.instance());\n        Ok(())\n    }\n}\n";
        let v = violations("crates/core/src/e.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "D16");
        assert!(
            v[0].message.contains("without an epoch bump"),
            "{}",
            v[0].message
        );
    }
}
