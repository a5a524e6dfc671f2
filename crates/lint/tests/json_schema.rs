//! Schema guard for `--format=json`, `--format=sarif` and the CI
//! problem matcher.
//!
//! The JSON/SARIF renderers are hand-rolled (the workspace has no
//! serde), so nothing type-level pins their shape: this test
//! round-trips the output through equally hand-rolled parsers — a
//! flat one for the line-oriented JSON stream, a recursive one for
//! the nested SARIF document — and checks every field against the
//! in-memory report. It seeds the run with violations from three
//! different interprocedural rules so the rule ids are two digits —
//! exactly the case the original problem-matcher regex (`D\d`) would
//! have truncated to `D1`.

use muaa_lint::Report;

/// One parsed JSON scalar: all the renderer ever emits.
#[derive(Debug, PartialEq)]
enum Val {
    Str(String),
    Num(u64),
}

/// Parse one flat `{"k":v,...}` line, preserving key order and
/// undoing the renderer's escapes.
fn parse_obj(line: &str) -> Vec<(String, Val)> {
    let mut chars = line.chars().peekable();
    let mut out = Vec::new();
    assert_eq!(chars.next(), Some('{'), "not an object: {line}");
    loop {
        match chars.peek() {
            Some('}') => break,
            Some(',') => {
                chars.next();
            }
            _ => {}
        }
        let key = parse_str(&mut chars, line);
        assert_eq!(chars.next(), Some(':'), "missing colon in {line}");
        let val = match chars.peek() {
            Some('"') => Val::Str(parse_str(&mut chars, line)),
            _ => {
                let mut n = String::new();
                while chars.peek().is_some_and(|c| c.is_ascii_digit()) {
                    n.push(chars.next().unwrap());
                }
                Val::Num(n.parse().unwrap_or_else(|_| panic!("bad number in {line}")))
            }
        };
        out.push((key, val));
    }
    assert_eq!(chars.next(), Some('}'), "unterminated object: {line}");
    assert_eq!(chars.next(), None, "trailing garbage: {line}");
    out
}

fn parse_str(chars: &mut std::iter::Peekable<std::str::Chars<'_>>, line: &str) -> String {
    assert_eq!(chars.next(), Some('"'), "expected string in {line}");
    let mut s = String::new();
    loop {
        match chars.next() {
            Some('"') => return s,
            Some('\\') => match chars.next() {
                Some('"') => s.push('"'),
                Some('\\') => s.push('\\'),
                Some('n') => s.push('\n'),
                Some('r') => s.push('\r'),
                Some('t') => s.push('\t'),
                Some('u') => {
                    let hex: String = (0..4).map(|_| chars.next().expect("\\u escape")).collect();
                    let cp = u32::from_str_radix(&hex, 16).expect("hex escape");
                    s.push(char::from_u32(cp).expect("valid codepoint"));
                }
                other => panic!("unknown escape {other:?} in {line}"),
            },
            Some(c) => s.push(c),
            None => panic!("unterminated string in {line}"),
        }
    }
}

/// A fully recursive JSON value — what the SARIF renderer emits.
#[derive(Debug, PartialEq)]
enum Node {
    Str(String),
    Num(u64),
    Obj(Vec<(String, Node)>),
    Arr(Vec<Node>),
}

impl Node {
    /// Walk `path` through objects (by key) and arrays (by index).
    fn at(&self, path: &[&str]) -> &Node {
        let mut cur = self;
        for seg in path {
            cur = match cur {
                Node::Obj(fields) => {
                    &fields
                        .iter()
                        .find(|(k, _)| k == seg)
                        .unwrap_or_else(|| panic!("missing key `{seg}` in {cur:?}"))
                        .1
                }
                Node::Arr(items) => {
                    let i: usize = seg.parse().unwrap_or_else(|_| panic!("bad index `{seg}`"));
                    items
                        .get(i)
                        .unwrap_or_else(|| panic!("index {i} out of range"))
                }
                other => panic!("cannot descend `{seg}` into {other:?}"),
            };
        }
        cur
    }

    fn str_at(&self, path: &[&str]) -> &str {
        match self.at(path) {
            Node::Str(s) => s,
            other => panic!("{path:?}: expected string, got {other:?}"),
        }
    }

    fn num_at(&self, path: &[&str]) -> u64 {
        match self.at(path) {
            Node::Num(n) => *n,
            other => panic!("{path:?}: expected number, got {other:?}"),
        }
    }

    fn arr_at(&self, path: &[&str]) -> &[Node] {
        match self.at(path) {
            Node::Arr(items) => items,
            other => panic!("{path:?}: expected array, got {other:?}"),
        }
    }
}

/// Recursive-descent parse of the compact (whitespace-free) JSON the
/// SARIF renderer emits.
fn parse_node(chars: &mut std::iter::Peekable<std::str::Chars<'_>>, doc: &str) -> Node {
    match chars.peek() {
        Some('"') => Node::Str(parse_str(chars, doc)),
        Some('{') => {
            chars.next();
            let mut fields = Vec::new();
            if chars.peek() == Some(&'}') {
                chars.next();
                return Node::Obj(fields);
            }
            loop {
                let key = parse_str(chars, doc);
                assert_eq!(chars.next(), Some(':'), "missing colon after `{key}`");
                fields.push((key, parse_node(chars, doc)));
                match chars.next() {
                    Some(',') => continue,
                    Some('}') => return Node::Obj(fields),
                    other => panic!("bad object separator {other:?}"),
                }
            }
        }
        Some('[') => {
            chars.next();
            let mut items = Vec::new();
            if chars.peek() == Some(&']') {
                chars.next();
                return Node::Arr(items);
            }
            loop {
                items.push(parse_node(chars, doc));
                match chars.next() {
                    Some(',') => continue,
                    Some(']') => return Node::Arr(items),
                    other => panic!("bad array separator {other:?}"),
                }
            }
        }
        _ => {
            let mut n = String::new();
            while chars.peek().is_some_and(|c| c.is_ascii_digit()) {
                n.push(chars.next().unwrap());
            }
            Node::Num(
                n.parse()
                    .unwrap_or_else(|_| panic!("bad number near `{n}`")),
            )
        }
    }
}

fn str_field(obj: &[(String, Val)], key: &str) -> String {
    match obj.iter().find(|(k, _)| k == key) {
        Some((_, Val::Str(s))) => s.clone(),
        other => panic!("field {key}: {other:?}"),
    }
}

fn num_field(obj: &[(String, Val)], key: &str) -> u64 {
    match obj.iter().find(|(k, _)| k == key) {
        Some((_, Val::Num(n))) => *n,
        other => panic!("field {key}: {other:?}"),
    }
}

/// A run seeded with one violation each from D12, D13 and D14, plus
/// quotes in a snippet (the `env::var("…")` line) to exercise the
/// escaper.
fn seeded_report() -> Report {
    let files: Vec<(String, String)> = [
        (
            "crates/algorithms/src/guards.rs",
            include_str!("fixtures/callgraph/match_guards.rs"),
        ),
        (
            "crates/algorithms/src/chunks.rs",
            include_str!("fixtures/callgraph/par_closures.rs"),
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
fn json_output_round_trips_against_the_report() {
    let report = seeded_report();
    assert_eq!(report.violations.len(), 3, "{}", report.render());
    let json = report.render_json();
    let lines: Vec<&str> = json.lines().collect();
    assert_eq!(lines.len(), report.violations.len() + 1, "{json}");

    const VIOLATION_KEYS: [&str; 7] = [
        "file",
        "line",
        "col",
        "rule",
        "allow_key",
        "message",
        "snippet",
    ];
    for (v, line) in report.violations.iter().zip(&lines) {
        let obj = parse_obj(line);
        let keys: Vec<&str> = obj.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, VIOLATION_KEYS, "schema drifted: {line}");
        assert_eq!(str_field(&obj, "file"), v.file);
        assert_eq!(num_field(&obj, "line"), u64::from(v.line));
        assert_eq!(num_field(&obj, "col"), u64::from(v.col));
        assert_eq!(str_field(&obj, "rule"), v.rule);
        assert_eq!(str_field(&obj, "allow_key"), v.allow_key);
        assert_eq!(str_field(&obj, "message"), v.message);
        assert_eq!(str_field(&obj, "snippet"), v.snippet);
    }

    let summary = parse_obj(lines.last().unwrap());
    let keys: Vec<&str> = summary.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["files_checked", "violations", "unsafe_sites"]);
    assert_eq!(
        num_field(&summary, "files_checked"),
        report.files_checked as u64
    );
    assert_eq!(
        num_field(&summary, "violations"),
        report.violations.len() as u64
    );
    assert_eq!(
        num_field(&summary, "unsafe_sites"),
        report.unsafe_sites.len() as u64
    );
}

#[test]
fn json_escapes_survive_the_round_trip() {
    // A D13 finding whose snippet is a line holding escaped quotes:
    // the worst case the wire format has to carry.
    let src = "#[muaa::hot]\npub fn kernel() { stage(); }\nfn stage() -> String {\n    \"he said \\\"hi\\\"\".to_string()\n}\n";
    let report =
        muaa_lint::run_sources(&[("crates/core/src/quoted.rs".to_string(), src.to_string())]);
    let quoted = report
        .violations
        .iter()
        .find(|v| v.rule == "D13")
        .unwrap_or_else(|| panic!("expected a D13 seed:\n{}", report.render()));
    assert!(quoted.snippet.contains('"'), "{}", quoted.snippet);
    assert!(quoted.snippet.contains('\\'), "{}", quoted.snippet);
    let json = report.render_json();
    let line = json
        .lines()
        .find(|l| l.contains("\"rule\":\"D13\""))
        .expect("D13 line");
    assert!(line.contains("\\\""), "quotes must be escaped: {line}");
    let obj = parse_obj(line);
    assert_eq!(str_field(&obj, "snippet"), quoted.snippet);
    assert_eq!(str_field(&obj, "message"), quoted.message);
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

#[test]
fn sarif_output_round_trips_against_the_report() {
    let report = seeded_report();
    assert_eq!(report.violations.len(), 3, "{}", report.render());
    let sarif = report.render_sarif();
    let mut chars = sarif.trim_end().chars().peekable();
    let doc = parse_node(&mut chars, &sarif);
    assert_eq!(
        chars.next(),
        None,
        "trailing garbage after the SARIF document"
    );

    assert_eq!(
        doc.str_at(&["$schema"]),
        "https://json.schemastore.org/sarif-2.1.0.json"
    );
    assert_eq!(doc.str_at(&["version"]), "2.1.0");
    assert_eq!(doc.arr_at(&["runs"]).len(), 1, "exactly one run");
    let driver = doc.at(&["runs", "0", "tool", "driver"]);
    assert_eq!(driver.str_at(&["name"]), "muaa-lint");
    assert!(!driver.str_at(&["version"]).is_empty());

    // The rule table mirrors rules::RULES: ids unique, descriptions
    // non-empty, every violation's ruleId resolvable.
    let rules = driver.arr_at(&["rules"]);
    let ids: Vec<&str> = rules.iter().map(|r| r.str_at(&["id"])).collect();
    let mut dedup = ids.clone();
    dedup.sort_unstable();
    dedup.dedup();
    assert_eq!(dedup.len(), ids.len(), "duplicate rule ids: {ids:?}");
    for r in rules {
        assert!(!r.str_at(&["shortDescription", "text"]).is_empty());
        assert_eq!(r.str_at(&["defaultConfiguration", "level"]), "error");
    }
    for required in ["D12", "D15", "D16", "D17"] {
        assert!(
            ids.contains(&required),
            "rule table lost {required}: {ids:?}"
        );
    }

    let results = doc.arr_at(&["runs", "0", "results"]);
    assert_eq!(results.len(), report.violations.len());
    for (v, r) in report.violations.iter().zip(results) {
        assert_eq!(r.str_at(&["ruleId"]), v.rule);
        assert!(ids.contains(&r.str_at(&["ruleId"])), "unresolvable ruleId");
        assert_eq!(r.str_at(&["level"]), "error");
        assert_eq!(r.str_at(&["message", "text"]), v.message);
        let loc = r.at(&["locations", "0", "physicalLocation"]);
        assert_eq!(loc.str_at(&["artifactLocation", "uri"]), v.file);
        assert_eq!(loc.str_at(&["artifactLocation", "uriBaseId"]), "%SRCROOT%");
        assert_eq!(loc.num_at(&["region", "startLine"]), u64::from(v.line));
        assert_eq!(loc.num_at(&["region", "startColumn"]), u64::from(v.col));
        assert_eq!(loc.str_at(&["region", "snippet", "text"]), v.snippet);
    }
}
