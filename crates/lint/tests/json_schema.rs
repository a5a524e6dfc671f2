//! Guard for the CI problem matcher (`.github/muaa-lint-problem-matcher.json`):
//! the text report, which is the pass's only output format, must
//! parse under the matcher's regex, two-digit rule ids included —
//! exactly the case the original pattern (`D\d`) truncated to `D1`.

use muaa_lint::Report;

/// A run seeded with one D12 and one D13 violation.
fn seeded_report() -> Report {
    let files: Vec<(String, String)> = [
        (
            "crates/algorithms/src/guards.rs",
            include_str!("fixtures/callgraph/match_guards.rs"),
        ),
        (
            "crates/core/src/shadowed_registry.rs",
            include_str!("fixtures/callgraph/shadowed_registry.rs"),
        ),
        (
            "crates/core/src/shadowed_registry_caller.rs",
            include_str!("fixtures/callgraph/shadowed_registry_caller.rs"),
        ),
    ]
    .into_iter()
    .map(|(p, s)| (p.to_string(), s.to_string()))
    .collect();
    muaa_lint::run_sources(&files)
}

#[test]
fn text_output_matches_the_ci_problem_matcher() {
    let report = seeded_report();
    let matcher = include_str!("../../../.github/muaa-lint-problem-matcher.json");
    assert!(
        matcher.contains("(D\\\\d+)"),
        "problem matcher must capture multi-digit rule ids: {matcher}"
    );
    // Re-implement the matcher's pattern semantics on the real output:
    // `path.rs:line:col: [Dnn] message` — every violation's first line
    // must parse, and two-digit ids must capture whole.
    let mut matched = 0;
    for line in report.render().lines() {
        let Some((loc, rest)) = line.split_once(": [") else {
            continue;
        };
        let mut parts = loc.rsplitn(3, ':');
        let col: u32 = parts.next().unwrap().parse().expect("col");
        let line_no: u32 = parts.next().unwrap().parse().expect("line");
        let path = parts.next().expect("path");
        assert!(path.ends_with(".rs"), "{line}");
        let (code, msg) = rest.split_once("] ").expect("rule id");
        assert!(code.starts_with('D') && code[1..].chars().all(|c| c.is_ascii_digit()));
        assert!(!msg.is_empty());
        let v = report
            .violations
            .iter()
            .find(|v| v.file == path && v.line == line_no && v.col == col)
            .unwrap_or_else(|| panic!("unmatched diagnostic line: {line}"));
        assert_eq!(v.rule, code, "matcher would report the wrong rule id");
        matched += 1;
    }
    assert_eq!(matched, report.violations.len());
    assert!(
        report.violations.iter().any(|v| v.rule.len() == 3),
        "seed must include a two-digit rule id"
    );
}
