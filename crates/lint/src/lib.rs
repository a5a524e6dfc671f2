//! `muaa-lint` — the MUAA workspace's dependency-free determinism &
//! safety static-analysis pass (DESIGN.md §13).
//!
//! The repo's core guarantee — bit-identical (0 ULP) solver outputs
//! at every thread count and across the delta engine vs. a full
//! rebuild — is enforced dynamically by the equivalence test
//! suites. This crate enforces it *statically*: it walks every `.rs`
//! file in the workspace with a hand-rolled lexer (no `syn`, no
//! registry access) and rejects the construct classes that silently
//! break the contract. See [`rules::RULES`] for the rule table and
//! DESIGN.md §13 for the rationale.
//!
//! Four entry points, same pass:
//!
//! * `cargo run -p muaa-lint` (or the `cargo lint` alias) — the CLI,
//!   with `--format=json` for machine consumers (CI runs both);
//! * the `workspace_gate` integration test — plain `cargo test` gates it;
//! * [`run_sources`] — the workspace-level pass over in-memory files
//!   (rule D9 needs cross-file visibility);
//! * [`check_source`] — single-file fixtures for the rule unit tests.

pub mod callgraph;
pub mod cfg;
pub mod lexer;
pub mod rules;
pub mod tree;

use rules::{FileAnalysis, UnsafeSite, Violation};
use std::fs;
use std::path::{Path, PathBuf};

/// Outcome of a full workspace pass.
#[derive(Debug, Default)]
pub struct Report {
    pub files_checked: usize,
    pub violations: Vec<Violation>,
    /// Every `unsafe` occurrence (compliant or not) — the D3 audit table.
    pub unsafe_sites: Vec<UnsafeSite>,
    /// GraphViz DOT rendering of the workspace call graph (`--graph`).
    pub dot: String,
    /// The unsafe-reachability audit: per crate, which public entry
    /// points reach each unsafe site (`--audit`).
    pub audit: String,
}

impl Report {
    /// `true` iff the workspace passes.
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Render diagnostics plus the audit table and a summary line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for v in &self.violations {
            out.push_str(&format!("{v}\n"));
        }
        if !self.unsafe_sites.is_empty() {
            out.push_str("\nunsafe audit table (D3):\n");
            out.push_str("  file:line:col                              SAFETY comment\n");
            for s in &self.unsafe_sites {
                out.push_str(&format!(
                    "  {:<42} {}\n",
                    format!("{}:{}:{}", s.file, s.line, s.col),
                    if s.has_safety { "yes" } else { "MISSING" }
                ));
            }
        }
        out.push_str(&format!(
            "muaa-lint: {} files checked, {} violation(s), {} unsafe site(s)\n",
            self.files_checked,
            self.violations.len(),
            self.unsafe_sites.len()
        ));
        out
    }

    /// Render one JSON object per line — each violation with `file`,
    /// `line`, `col`, `rule`, `allow_key`, `message`, `snippet`, then a
    /// summary object. Line-oriented so CI problem matchers and `jq`
    /// both consume it without a streaming parser.
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        for v in &self.violations {
            out.push_str(&format!(
                "{{\"file\":\"{}\",\"line\":{},\"col\":{},\"rule\":\"{}\",\
                 \"allow_key\":\"{}\",\"message\":\"{}\",\"snippet\":\"{}\"}}\n",
                json_escape(&v.file),
                v.line,
                v.col,
                v.rule,
                v.allow_key,
                json_escape(&v.message),
                json_escape(&v.snippet)
            ));
        }
        out.push_str(&format!(
            "{{\"files_checked\":{},\"violations\":{},\"unsafe_sites\":{}}}\n",
            self.files_checked,
            self.violations.len(),
            self.unsafe_sites.len()
        ));
        out
    }

    /// Render the run as SARIF 2.1.0 for GitHub code scanning: one
    /// run, the driver's rule table straight from [`rules::RULES`],
    /// one `result` per violation with a `%SRCROOT%`-relative
    /// location. Compact single-document JSON with the same
    /// hand-rolled escaping as `render_json` — the schema round-trip
    /// test parses it back field by field.
    pub fn render_sarif(&self) -> String {
        let mut out = String::from(
            "{\"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\",\
             \"version\":\"2.1.0\",\"runs\":[{\"tool\":{\"driver\":{\
             \"name\":\"muaa-lint\",\"version\":\"",
        );
        // Offline rustc builds have no cargo env; fall back rather
        // than failing the build.
        out.push_str(option_env!("CARGO_PKG_VERSION").unwrap_or("0.0.0"));
        out.push_str("\",\"rules\":[");
        for (i, r) in rules::RULES.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"id\":\"{}\",\"shortDescription\":{{\"text\":\"{}\"}},\
                 \"defaultConfiguration\":{{\"level\":\"error\"}},\
                 \"properties\":{{\"allowKey\":\"{}\"}}}}",
                r.id,
                json_escape(r.summary),
                r.allow_key
            ));
        }
        out.push_str("]}},\"results\":[");
        for (i, v) in self.violations.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"ruleId\":\"{}\",\"level\":\"error\",\
                 \"message\":{{\"text\":\"{}\"}},\"locations\":[{{\
                 \"physicalLocation\":{{\"artifactLocation\":{{\
                 \"uri\":\"{}\",\"uriBaseId\":\"%SRCROOT%\"}},\
                 \"region\":{{\"startLine\":{},\"startColumn\":{},\
                 \"snippet\":{{\"text\":\"{}\"}}}}}}}}]}}",
                v.rule,
                json_escape(&v.message),
                json_escape(&v.file),
                v.line,
                v.col,
                json_escape(&v.snippet)
            ));
        }
        out.push_str("]}]}\n");
        out
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control chars) —
/// all the renderer emits.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Lint a single in-memory source file. `rel_path` decides which rules
/// apply (see [`rules::RULES`] scopes) — the unit-test fixtures use
/// paths like `crates/core/src/fixture.rs` to opt into a scope.
pub fn check_source(rel_path: &str, src: &str) -> (Vec<Violation>, Vec<UnsafeSite>) {
    let report = run_sources(&[(rel_path.to_string(), src.to_string())]);
    (report.violations, report.unsafe_sites)
}

/// The full pass over a set of in-memory `(rel_path, source)` files:
/// per-file rules (D1–D4, D6, D15–D17), then the workspace-level passes —
/// the dead-validator audit (D9), the `Delta` arm-parity audit (D11)
/// and the call-graph rules (D12–D14) — then allow hygiene (D8) last,
/// so its staleness check observes every other rule's allow
/// consultations.
pub fn run_sources(files: &[(String, String)]) -> Report {
    let mut report = Report {
        files_checked: files.len(),
        ..Report::default()
    };
    let mut analyzed: Vec<(FileAnalysis, tree::ItemTree)> = Vec::with_capacity(files.len());
    for (rel, src) in files {
        let fa = FileAnalysis::new(rel, src);
        let items = tree::build(&fa);
        let (violations, sites) = rules::run_all(&fa, &items);
        report.violations.extend(violations);
        report.unsafe_sites.extend(sites);
        analyzed.push((fa, items));
    }
    report
        .violations
        .extend(rules::d9_dead_validators(&analyzed));
    report.violations.extend(rules::d11_delta_parity(&analyzed));
    let graph = callgraph::CallGraph::build(&analyzed);
    report
        .violations
        .extend(graph.d12_determinism_taint(&analyzed));
    report
        .violations
        .extend(graph.d13_transitive_hot_alloc(&analyzed));
    report
        .violations
        .extend(graph.d14_reduction_taint(&analyzed));
    report.dot = graph.render_dot(&analyzed);
    report.audit = graph.render_audit(&analyzed, &report.unsafe_sites);
    for (fa, _) in &analyzed {
        report.violations.extend(rules::d8_allow_hygiene(fa));
    }
    report
        .violations
        .sort_by_key(|v| (v.file.clone(), v.line, v.col, v.rule));
    report
        .unsafe_sites
        .sort_by_key(|s| (s.file.clone(), s.line, s.col));
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
fn collect_sources(root: &Path) -> std::io::Result<Vec<(String, String)>> {
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
        check_source(rel_path, src).0
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

    // ---- D2 ---------------------------------------------------------

    #[test]
    fn d2_flags_hash_map_iteration_in_scoped_crates() {
        let src = "use std::collections::HashMap;\nstruct S { m: HashMap<u32, u32> }\nimpl S {\n    fn f(&self) -> Vec<u32> { self.m.keys().copied().collect() }\n}";
        let v = violations("crates/core/src/a.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!((v[0].rule, v[0].line), ("D2", 4));
    }

    /// A table on a custom hasher (`muaa_core::hash::IdHasher`) is found
    /// by its `HashSet` token like any other.
    #[test]
    fn d2_flags_iteration_over_tables_on_a_custom_hasher() {
        let src = "use std::collections::HashSet;\nuse std::hash::BuildHasherDefault;\nstruct S { pairs: HashSet<(u32, u32), BuildHasherDefault<IdHasher>> }\nimpl S {\n    fn f(&self) -> usize { self.pairs.iter().count() }\n    fn g(&self) -> bool { self.pairs.contains(&(1, 2)) }\n}";
        let v = violations("crates/core/src/a.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!((v[0].rule, v[0].line), ("D2", 5));
    }

    #[test]
    fn d2_flags_for_loops_over_hash_sets() {
        let src = "use std::collections::HashSet;\nfn f(s: HashSet<u32>) -> u32 {\n    let mut t = 0;\n    for x in &s { t += x; }\n    t\n}";
        assert_eq!(rule_ids("crates/algorithms/src/a.rs", src), vec!["D2"]);
    }

    #[test]
    fn d2_flags_let_bound_maps() {
        let src = "use std::collections::HashMap;\nfn f() {\n    let mut m = HashMap::new();\n    m.insert(1u32, 2u32);\n    let _: Vec<_> = m.values().collect();\n}";
        assert_eq!(rule_ids("crates/spatial/src/a.rs", src), vec!["D2"]);
    }

    #[test]
    fn d2_ignores_lookups_out_of_scope_files_and_tests() {
        let lookup = "use std::collections::HashMap;\nstruct S { m: HashMap<u32, u32> }\nimpl S { fn g(&self) -> Option<&u32> { self.m.get(&1) } }";
        // Point lookups are deterministic — clean.
        assert!(violations("crates/core/src/a.rs", lookup).is_empty());
        let iter = "use std::collections::HashMap;\nstruct S { m: HashMap<u32, u32> }\nimpl S { fn g(&self) -> usize { self.m.iter().count() } }";
        // Out-of-scope crate: clean.
        assert!(violations("crates/datagen/src/a.rs", iter).is_empty());
        // In-scope but inside #[cfg(test)]: clean.
        let in_test = "use std::collections::HashMap;\n#[cfg(test)]\nmod tests {\n    use super::*;\n    fn h(m: &HashMap<u32, u32>) -> usize { m.iter().count() }\n}";
        assert!(violations("crates/core/src/a.rs", in_test).is_empty());
        // Annotated: clean.
        let allowed = "use std::collections::HashMap;\nstruct S { m: HashMap<u32, u32> }\nimpl S {\n    // order-insensitive fold; lint: allow(hash_iter)\n    fn g(&self) -> u32 { self.m.values().sum() }\n}";
        assert!(violations("crates/core/src/a.rs", allowed).is_empty());
    }

    // ---- D3 ---------------------------------------------------------

    #[test]
    fn d3_flags_unsafe_without_safety_comment() {
        let src = "fn f(p: *const u8) -> u8 { unsafe { *p } }";
        let (v, sites) = check_source("crates/x/src/a.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "D3");
        assert_eq!(sites.len(), 1);
        assert!(!sites[0].has_safety);
    }

    #[test]
    fn d3_accepts_immediately_preceding_safety_comment() {
        let src = "fn f(p: *const u8) -> u8 {\n    // SAFETY: caller guarantees p is valid.\n    unsafe { *p }\n}";
        let (v, sites) = check_source("crates/x/src/a.rs", src);
        assert!(v.is_empty());
        assert!(sites[0].has_safety);
        // Multi-line SAFETY blocks also count.
        let multi = "fn f(p: *const u8) -> u8 {\n    // SAFETY: p comes from a live Vec\n    // and is non-null by construction.\n    unsafe { *p }\n}";
        assert!(check_source("crates/x/src/a.rs", multi).0.is_empty());
    }

    #[test]
    fn d3_ignores_unsafe_in_doc_comments_and_strings() {
        for src in [
            "/// Never call `unsafe` code from here.\nfn f() {}",
            "fn f() -> &'static str { \"unsafe { }\" }",
        ] {
            let (v, sites) = check_source("crates/x/src/a.rs", src);
            assert!(v.is_empty(), "false positive in: {src}");
            assert!(sites.is_empty());
        }
    }

    // ---- D4 ---------------------------------------------------------

    #[test]
    fn d4_flags_unwrap_and_expect_in_library_code() {
        let src = "fn f(v: Vec<u32>) -> u32 { *v.first().unwrap() }\nfn g(v: Vec<u32>) -> u32 { *v.first().expect(\"non-empty\") }";
        let v = violations("crates/core/src/a.rs", src);
        assert_eq!(v.len(), 2);
        assert!(v.iter().all(|x| x.rule == "D4"));
    }

    #[test]
    fn d4_skips_tests_bins_annotations_and_other_crates() {
        let src = "fn f(v: Vec<u32>) -> u32 { *v.first().unwrap() }";
        // Other crates and bin/test collateral are out of scope.
        for path in [
            "crates/algorithms/src/a.rs",
            "crates/core/src/bin/tool.rs",
            "crates/core/tests/t.rs",
            "src/main.rs",
        ] {
            assert!(
                violations(path, src).is_empty(),
                "false positive for {path}"
            );
        }
        // #[test] fns inside library files are skipped.
        let test_fn = "fn lib() {}\n#[test]\nfn t() { Some(1).unwrap(); }";
        assert!(violations("crates/core/src/a.rs", test_fn).is_empty());
        // Annotated invariants pass.
        let allowed =
            "fn f(v: Vec<u32>) -> u32 {\n    // invariant: built non-empty; lint: allow(unwrap)\n    *v.first().unwrap()\n}";
        assert!(violations("crates/spatial/src/a.rs", allowed).is_empty());
        // unwrap_or and friends are not unwrap.
        let or = "fn f(v: Vec<u32>) -> u32 { v.first().copied().unwrap_or(0) }";
        assert!(violations("crates/core/src/a.rs", or).is_empty());
    }

    // ---- D6 ---------------------------------------------------------

    #[test]
    fn d6_flags_allocations_in_hot_fns_under_both_attr_spellings() {
        for attr in ["#[muaa::hot]", "#[cfg_attr(any(), muaa::hot)]"] {
            let src = format!(
                "{attr}\nfn kernel(out: &mut Vec<f64>) {{\n    let v = Vec::new();\n    out.push(1.0);\n    drop(v);\n}}"
            );
            let v = violations("crates/core/src/a.rs", &src);
            assert_eq!(v.len(), 2, "in: {src}\ngot: {v:?}");
            assert!(v.iter().all(|x| x.rule == "D6"));
            assert!(v[0].message.contains("kernel"));
        }
    }

    #[test]
    fn d6_flags_collect_format_box_and_to_vec() {
        let src = "#[muaa::hot]\nfn kernel(xs: &[f64]) {\n    let a: Vec<f64> = xs.iter().copied().collect();\n    let b = xs.to_vec();\n    let c = format!(\"{a:?}{b:?}\");\n    let d = Box::new(c);\n    drop(d);\n}";
        let v = violations("crates/core/src/a.rs", src);
        assert_eq!(v.len(), 4, "{v:?}");
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

    // ---- D8 ---------------------------------------------------------

    #[test]
    fn d8_flags_bare_and_stale_allows() {
        // Annotation that works but never says why.
        let bare = "fn f(v: &mut Vec<f64>) {\n    // lint: allow(partial_cmp)\n    v.sort_by(|a, b| a.partial_cmp(b).unwrap());\n}";
        let v = violations("crates/x/src/a.rs", bare);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "D8");
        assert!(v[0].message.contains("justification"));
        // Justified but suppressing nothing → stale.
        let stale =
            "// NaNs were filtered upstream of this sort. lint: allow(partial_cmp)\nfn f() {}\n";
        let v = violations("crates/x/src/a.rs", stale);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("stale"));
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

    // ---- D9 ---------------------------------------------------------

    #[test]
    fn d9_flags_validators_unreachable_from_any_test() {
        let src = "pub struct Grid;\nimpl Grid {\n    pub fn debug_validate(&self) {}\n}";
        let v = violations("crates/x/src/a.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "D9");
        assert!(v[0].message.contains("Grid::debug_validate"));
        // A justified allow waives it.
        let allowed = "pub struct Tmp;\nimpl Tmp {\n    // exercised by the fuzz harness, not unit tests. lint: allow(dead_validator)\n    pub fn debug_validate(&self) {}\n}";
        assert!(violations("crates/x/src/a.rs", allowed).is_empty());
    }

    #[test]
    fn d9_sees_cross_file_test_callers_and_validator_delegation() {
        let inner = "pub struct Inner;\nimpl Inner {\n    pub fn debug_validate(&self) {}\n}";
        let outer = "use crate::Inner;\npub struct Outer { pub inner: Inner }\nimpl Outer {\n    pub fn debug_validate(&self) { self.inner.debug_validate(); }\n}";
        // The integration test mentions only Outer; Inner stays alive
        // through the delegation chain.
        let test = "#[test]\nfn t() { x::make_outer().debug_validate(); }\nfn uses() -> x::Outer { x::make_outer() }";
        let files: Vec<(String, String)> = [
            ("crates/x/src/inner.rs", inner),
            ("crates/x/src/outer.rs", outer),
            ("crates/x/tests/t.rs", test),
        ]
        .iter()
        .map(|(p, s)| (p.to_string(), s.to_string()))
        .collect();
        let report = run_sources(&files);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        // Without the test file both validators are dead.
        let report = run_sources(&files[..2]);
        let rules: Vec<&str> = report.violations.iter().map(|v| v.rule).collect();
        assert_eq!(rules, vec!["D9", "D9"], "{:?}", report.violations);
    }

    #[test]
    fn d9_covers_prefixed_validators() {
        // A split validator (`debug_validate_columns`) is subject to the
        // same reachability audit as the canonical name…
        let src = "pub struct Memo;\nimpl Memo {\n    pub fn debug_validate_columns(&self) {}\n}";
        let v = violations("crates/x/src/a.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "D9");
        assert!(
            v[0].message.contains("Memo::debug_validate_columns"),
            "{}",
            v[0].message
        );
        // …and a test calling it by its full name revives it, while a
        // call to a *different* prefixed name does not.
        let tested = format!("{src}\n#[test]\nfn t() {{ Memo.debug_validate_columns(); }}");
        assert!(violations("crates/x/src/a.rs", &tested).is_empty());
        let wrong_name = format!("{src}\n#[test]\nfn t() {{ Memo.debug_validate_rows(); }}");
        assert_eq!(rule_ids("crates/x/src/a.rs", &wrong_name), vec!["D9"]);
    }

    // ---- D11 --------------------------------------------------------

    /// The vocabulary fixture: a two-variant `Delta` enum.
    const D11_ENUM: &str =
        "pub enum Delta {\n    AddCustomer(u32),\n    VendorTags(u32, Vec<f64>),\n}";

    #[test]
    fn d11_flags_apply_fns_missing_a_variant() {
        // A delta engine forgot the VendorTags arm behind a
        // wildcard — exactly the parity bug the rule exists for.
        let partial = "use crate::Delta;\npub struct Sharded;\nimpl Sharded {\n    pub fn apply(&mut self, d: &Delta) {\n        match d { Delta::AddCustomer(_) => {}, _ => {} }\n    }\n}";
        let files: Vec<(String, String)> = [
            ("crates/x/src/delta.rs", D11_ENUM),
            ("crates/x/src/shard.rs", partial),
        ]
        .iter()
        .map(|(p, s)| (p.to_string(), s.to_string()))
        .collect();
        let report = run_sources(&files);
        assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
        let v = &report.violations[0];
        assert_eq!(v.rule, "D11");
        assert!(v.file.ends_with("shard.rs"));
        assert!(v.message.contains("`VendorTags`"), "{}", v.message);
    }

    #[test]
    fn d11_accepts_full_coverage_wrappers_and_allows() {
        // Both engines name every variant → clean.
        let full = "use crate::Delta;\npub struct Ctx;\nimpl Ctx {\n    pub fn apply(&mut self, d: &Delta) {\n        match d { Delta::AddCustomer(_) => {}, Delta::VendorTags(..) => {} }\n    }\n}";
        // A delegating wrapper never names variants → not an engine.
        let wrapper = "use crate::{Ctx, Delta};\npub fn apply_delta(c: &mut Ctx, ds: &[Delta]) {\n    for d in ds { c.apply(d); }\n}";
        let files: Vec<(String, String)> = [
            ("crates/x/src/delta.rs", D11_ENUM),
            ("crates/x/src/ctx.rs", full),
            ("crates/x/src/batch.rs", wrapper),
        ]
        .iter()
        .map(|(p, s)| (p.to_string(), s.to_string()))
        .collect();
        let report = run_sources(&files);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        // A justified allow waives a deliberately partial engine.
        let allowed = "use crate::Delta;\npub struct View;\nimpl View {\n    // read-only projection: tag churn cannot reach this index. lint: allow(delta_parity)\n    pub fn apply(&mut self, d: &Delta) {\n        match d { Delta::AddCustomer(_) => {}, _ => {} }\n    }\n}";
        let files: Vec<(String, String)> = [
            ("crates/x/src/delta.rs", D11_ENUM),
            ("crates/x/src/view.rs", allowed),
        ]
        .iter()
        .map(|(p, s)| (p.to_string(), s.to_string()))
        .collect();
        let report = run_sources(&files);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
    }

    // ---- JSON -------------------------------------------------------

    #[test]
    fn json_rendering_escapes_quotes_and_carries_allow_keys() {
        let src = "fn f(v: Vec<u32>) -> u32 { *v.first().expect(\"non-empty\") }\n";
        let report = run_sources(&[("crates/core/src/a.rs".to_string(), src.to_string())]);
        let json = report.render_json();
        let first = json.lines().next().unwrap();
        assert!(
            first.starts_with("{\"file\":\"crates/core/src/a.rs\",\"line\":1,"),
            "{first}"
        );
        assert!(first.contains("\"rule\":\"D4\""), "{first}");
        assert!(first.contains("\"allow_key\":\"unwrap\""), "{first}");
        // The snippet's quotes around "non-empty" must be escaped.
        assert!(first.contains("\\\"non-empty\\\""), "{first}");
        let last = json.lines().last().unwrap();
        assert!(last.contains("\"files_checked\":1"), "{last}");
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
            let (v, sites) = check_source(path, src);
            assert!(
                v.is_empty(),
                "muaa-lint fails its own pass in {path}: {v:?}"
            );
            assert!(sites.is_empty(), "unexpected unsafe in {path}");
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

    #[test]
    fn d17_flags_float_accumulation_in_hot_fn() {
        let src = "#[muaa::hot]\nfn f(xs: &[f64]) -> f64 {\n    let mut acc = 0.0;\n    for x in xs {\n        acc += *x;\n    }\n    acc\n}\n";
        let v = violations("crates/core/src/h.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "D17");
    }

    /// Small multi-file workspace for the SARIF test: one dirty file,
    /// one clean, one with an allow.
    fn engine_files() -> Vec<(String, String)> {
        vec![
            (
                "crates/x/src/dirty.rs".into(),
                "fn f(v: &mut Vec<f64>) { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }\n".into(),
            ),
            ("crates/x/src/clean.rs".into(), "pub fn id(x: u32) -> u32 { x }\n".into()),
            (
                "crates/x/src/allowed.rs".into(),
                "fn g(v: &mut Vec<f64>) {\n    // lint: allow(partial_cmp): test fixture\n    v.sort_by(|a, b| a.partial_cmp(b).unwrap());\n}\n".into(),
            ),
        ]
    }

    #[test]
    fn sarif_names_every_rule_and_locates_each_violation() {
        let report = run_sources(&engine_files());
        let sarif = report.render_sarif();
        assert!(sarif.starts_with("{\"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\""));
        assert!(sarif.contains("\"version\":\"2.1.0\""));
        assert!(sarif.contains("\"name\":\"muaa-lint\""));
        for r in rules::RULES {
            assert!(
                sarif.contains(&format!("{{\"id\":\"{}\"", r.id)),
                "rule {} missing",
                r.id
            );
        }
        assert!(sarif.contains("\"ruleId\":\"D1\""));
        assert!(sarif.contains("\"uri\":\"crates/x/src/dirty.rs\""));
        assert!(sarif.contains("\"uriBaseId\":\"%SRCROOT%\""));
    }
}
