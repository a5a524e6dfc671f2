//! The MUAA rule set (DESIGN.md §13–§14, §19): five repo-specific
//! determinism and safety rules that rustc and clippy cannot express,
//! declared in [`RULES`] with per-path scopes and applied over the
//! token stream from [`crate::lexer`], the item view from
//! [`crate::tree`], and — for the typestate rules — the per-function
//! CFGs from [`crate::cfg`]. Each rule has a witness: a one-line
//! mutation of live workspace code that is a real bug, that tier-1
//! `cargo test` and clippy miss, and that the rule flags
//! (`tests/workspace_gate.rs`).
//!
//! | id | guards | escape hatch |
//! |----|--------|--------------|
//! | D1 | no `partial_cmp`/`lt`-style comparators in sort/search/extrema call chains | `// lint: allow(partial_cmp)` |
//! | D12 | no nondeterminism source reachable from a solver entry point (interprocedural; see [`crate::callgraph`]) | `// lint: allow(nondet)` |
//! | D13 | nothing in or transitively callable from `#[muaa::hot]` / an `AllocGuard` region allocates | `// lint: allow(hot_alloc)` |
//! | D15 | RAII guards (`AllocGuard`/`NanGuard`/`Stopwatch`) are never bound as `let _`, `mem::forget`-ed, or dropped while guarded statements remain on some path | `// lint: allow(guard_lifetime)` |
//! | D16 | in `apply`/`apply_delta` bodies, every path to a derived-structure mutation is dominated by exactly one epoch bump, and no `Err` exit follows a mutation (valid-prefix) | `// lint: allow(epoch_protocol)` |
//!
//! D1 exists because the repo's 0-ULP thread-count and
//! delta-vs-rebuild guarantees die silently when a float comparator is
//! non-total (NaN makes `sort_by` order unspecified). D13 is the static
//! half of the zero-allocation claim the `muaa-sanitize` runtime guards
//! check dynamically, which only the sanitized suite runs.
//!
//! An annotation applies to its own line and the line directly below
//! it, and works like `#[expect(lint, reason = "..")]`: its comment
//! block must say why, and it must suppress something, or the pass
//! reports it under the rule that owns the key ([`allow_hygiene`]).
//! Doc comments never register annotations, so rule tables like the
//! one above are inert.

use crate::lexer::{lex, Token, TokenKind};
use crate::tree::ItemTree;
use std::cell::Cell;
use std::collections::BTreeMap;

/// Methods whose closure argument is an ordering decision: a
/// `partial_cmp` inside any of these is a determinism hazard.
const COMPARATOR_METHODS: &[&str] = &[
    "sort_by",
    "sort_unstable_by",
    "select_nth_unstable_by",
    "binary_search_by",
    "max_by",
    "min_by",
];

/// `PartialOrd::lt`-style methods — also non-total on floats.
const PARTIAL_ORD_METHODS: &[&str] = &["lt", "le", "gt", "ge"];

/// One rule's declaration: scope (path prefixes) plus the annotation
/// key that waives it.
#[derive(Debug)]
pub struct RuleSpec {
    pub id: &'static str,
    pub summary: &'static str,
    /// `// lint: allow(<key>)` waives this rule on that line / the next.
    pub allow_key: &'static str,
    /// Workspace-relative path prefixes the rule applies to (empty =
    /// every file). Every rule but D1 skips test code (`#[cfg(test)]` /
    /// `#[test]` regions, `tests/` and `benches/` files).
    pub include: &'static [&'static str],
}

/// The rule table.
pub const RULES: &[RuleSpec] = &[
    RuleSpec {
        id: "D1",
        summary: "non-total float comparator (use f64::total_cmp)",
        allow_key: "partial_cmp",
        include: &[],
    },
    // D12 and D13 are interprocedural: their scoping (entry-point
    // roots, sanctioned-file tables) lives in `crate::callgraph`, so the
    // path scope here is the whole tree.
    RuleSpec {
        id: "D12",
        summary: "nondeterminism source reachable from a solver entry point \
                  (route through muaa_core::clock / rng / par)",
        allow_key: "nondet",
        include: &[],
    },
    RuleSpec {
        id: "D13",
        summary: "allocating construct in or transitively callable from a #[muaa::hot] fn \
                  or an AllocGuard region",
        allow_key: "hot_alloc",
        include: &[],
    },
    // D15 and D16 are the typestate rules: intra-procedural dataflow
    // over the per-function CFGs from `crate::cfg` (DESIGN.md §19).
    RuleSpec {
        id: "D15",
        summary: "RAII guard bound as `let _` (drops immediately), mem::forget-ed, \
                  or dropped before the region's last guarded statement",
        allow_key: "guard_lifetime",
        include: &["crates/", "src/"],
    },
    RuleSpec {
        id: "D16",
        summary: "derived-structure mutation in apply/apply_delta not dominated by \
                  exactly one epoch bump, or an Err exit after a mutation \
                  (valid-prefix invariant)",
        allow_key: "epoch_protocol",
        include: &["crates/", "src/"],
    },
];

/// A diagnostic: `file:line:col`, rule id, and the offending line.
#[derive(Debug, Clone)]
pub struct Violation {
    pub rule: &'static str,
    pub file: String,
    pub line: u32,
    pub col: u32,
    pub message: String,
    pub snippet: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}:{}: [{}] {}\n    {}",
            self.file, self.line, self.col, self.rule, self.message, self.snippet
        )
    }
}

/// One `lint: allow(<key>)` annotation occurrence, with the hygiene
/// facts [`allow_hygiene`] audits: whether its comment block says
/// *why*, and whether any rule actually consulted-and-used it this pass.
pub(crate) struct AllowSite {
    pub(crate) key: String,
    pub(crate) line: u32,
    pub(crate) col: u32,
    /// The surrounding non-doc comment block carries at least
    /// [`MIN_JUSTIFICATION_ALNUM`] alphanumeric chars beyond the allow
    /// fragments themselves.
    pub(crate) justified: bool,
    /// Set by [`FileAnalysis::allowed`] when a rule suppresses a match
    /// through this site — interior mutability because rules only hold
    /// `&FileAnalysis`.
    pub(crate) used: Cell<bool>,
}

/// Minimum alphanumeric characters of comment text (beyond the allow
/// fragments) for an annotation to count as justified.
const MIN_JUSTIFICATION_ALNUM: usize = 8;

/// Everything the rules need to know about one source file.
pub struct FileAnalysis {
    /// Workspace-relative path, `/`-separated.
    pub rel_path: String,
    lines: Vec<String>,
    tokens: Vec<Token>,
    /// Indices into `tokens` of non-comment tokens.
    code: Vec<usize>,
    /// Every allow annotation, in source order.
    pub(crate) allow_sites: Vec<AllowSite>,
    /// line → indices into `allow_sites` registered there.
    allow: BTreeMap<u32, Vec<usize>>,
    /// Line ranges (inclusive) of `#[cfg(test)]` / `#[test]` items.
    test_ranges: Vec<(u32, u32)>,
    /// Whole file is test collateral (`tests/`, `benches/`).
    path_is_test: bool,
}

impl std::fmt::Debug for FileAnalysis {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FileAnalysis")
            .field("rel_path", &self.rel_path)
            .field("tokens", &self.tokens.len())
            .finish_non_exhaustive()
    }
}

impl FileAnalysis {
    /// Lex and pre-index `src` (annotations, test regions). `rel_path` should be workspace-relative with `/`
    /// separators — it drives every scope decision.
    pub fn new(rel_path: &str, src: &str) -> Self {
        let tokens = lex(src);
        let code: Vec<usize> = tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| !t.is_comment())
            .map(|(i, _)| i)
            .collect();
        let mut allow: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
        let mut allow_sites: Vec<AllowSite> = Vec::new();
        // Non-doc comments group into contiguous blocks; the block's
        // combined text is the justification context for every allow
        // annotation inside it. Doc comments are documentation —
        // they describe annotations without registering them.
        let mut block_end = 0u32;
        let mut block_text = String::new();
        let mut block_sites: Vec<usize> = Vec::new();
        for t in &tokens {
            if !t.is_comment() {
                continue;
            }
            let span_end = t.line + t.text.matches('\n').count() as u32;
            if is_doc_comment(t) {
                continue;
            }
            if t.line > block_end + 1 {
                seal_block(
                    &block_text,
                    &block_sites,
                    &mut allow_sites,
                    &mut allow,
                    block_end,
                );
                block_text.clear();
                block_sites.clear();
            }
            block_text.push_str(&t.text);
            block_text.push('\n');
            block_end = span_end;
            for key in parse_allow_keys(&t.text) {
                let idx = allow_sites.len();
                allow_sites.push(AllowSite {
                    key,
                    line: t.line,
                    col: t.col,
                    justified: false,
                    used: Cell::new(false),
                });
                block_sites.push(idx);
                // Register on both the first and last comment line so
                // trailing and above-the-line placements both work.
                allow.entry(t.line).or_default().push(idx);
                if span_end != t.line {
                    allow.entry(span_end).or_default().push(idx);
                }
            }
        }
        seal_block(
            &block_text,
            &block_sites,
            &mut allow_sites,
            &mut allow,
            block_end,
        );
        let path_is_test = rel_path.contains("/tests/")
            || rel_path.starts_with("tests/")
            || rel_path.contains("/benches/");
        let mut fa = FileAnalysis {
            rel_path: rel_path.to_string(),
            lines: src.lines().map(str::to_string).collect(),
            tokens,
            code,
            allow_sites,
            allow,
            test_ranges: Vec::new(),
            path_is_test,
        };
        fa.test_ranges = fa.compute_test_ranges();
        fa
    }

    /// Token at code index `ci` (comments skipped).
    pub(crate) fn tok(&self, ci: usize) -> &Token {
        &self.tokens[self.code[ci]]
    }

    /// Number of non-comment tokens.
    pub(crate) fn code_len(&self) -> usize {
        self.code.len()
    }

    /// Is `key` waived on `line` (annotation there or on the line
    /// above)? A `true` marks every matching site as used — the
    /// staleness audit is exactly the sites this never touched.
    pub(crate) fn allowed(&self, key: &str, line: u32) -> bool {
        let mut hit = false;
        for l in [line, line.saturating_sub(1)] {
            if let Some(idxs) = self.allow.get(&l) {
                for &i in idxs {
                    if self.allow_sites[i].key == key {
                        self.allow_sites[i].used.set(true);
                        hit = true;
                    }
                }
            }
        }
        hit
    }

    /// Is `line` inside test collateral?
    pub(crate) fn in_test(&self, line: u32) -> bool {
        self.path_is_test
            || self
                .test_ranges
                .iter()
                .any(|&(lo, hi)| lo <= line && line <= hi)
    }

    pub(crate) fn violation(
        &self,
        rule: &'static str,
        line: u32,
        col: u32,
        message: String,
    ) -> Violation {
        let snippet = self
            .lines
            .get(line as usize - 1)
            .map(|l| l.trim())
            .unwrap_or("")
            .chars()
            .take(120)
            .collect();
        Violation {
            rule,
            file: self.rel_path.clone(),
            line,
            col,
            message,
            snippet,
        }
    }

    /// Line ranges of `#[cfg(test)]` / `#[test]` items: attribute to the
    /// closing brace (or `;`) of the annotated item.
    fn compute_test_ranges(&self) -> Vec<(u32, u32)> {
        let mut ranges = Vec::new();
        let n = self.code.len();
        let mut ci = 0;
        while ci < n {
            if !self.tok(ci).is_punct('#') {
                ci += 1;
                continue;
            }
            let mut j = ci + 1;
            let inner = j < n && self.tok(j).is_punct('!');
            if inner {
                j += 1;
            }
            if j >= n || !self.tok(j).is_punct('[') {
                ci += 1;
                continue;
            }
            let Some((attr, end)) = self.collect_attr(j) else {
                ci += 1;
                continue;
            };
            if !is_test_attr(&attr) {
                ci = end + 1;
                continue;
            }
            let attr_line = self.tok(ci).line;
            if inner {
                // `#![cfg(test)]`: the whole enclosing scope is test.
                ranges.push((1, u32::MAX));
                return ranges;
            }
            // Skip any further attributes on the same item.
            let mut k = end + 1;
            while k + 1 < n && self.tok(k).is_punct('#') && self.tok(k + 1).is_punct('[') {
                match self.collect_attr(k + 1) {
                    Some((_, e)) => k = e + 1,
                    None => break,
                }
            }
            // Find the item's end: `;` or a braced body at depth 0.
            let mut depth = 0i32;
            while k < n {
                let t = self.tok(k);
                match t.kind {
                    TokenKind::Punct('(') | TokenKind::Punct('[') => depth += 1,
                    TokenKind::Punct(')') | TokenKind::Punct(']') => depth -= 1,
                    TokenKind::Punct(';') if depth == 0 => {
                        ranges.push((attr_line, t.line));
                        break;
                    }
                    TokenKind::Punct('{') if depth == 0 => {
                        let close = self.match_brace(k);
                        ranges.push((attr_line, self.tok(close.min(n - 1)).line));
                        break;
                    }
                    _ => {}
                }
                k += 1;
            }
            ci = end + 1;
        }
        ranges
    }

    /// From the code index of a `[`, return the attribute's inner tokens
    /// (cloned) and the code index of the matching `]`.
    pub(crate) fn collect_attr(&self, open: usize) -> Option<(Vec<Token>, usize)> {
        let mut depth = 0i32;
        let mut out = Vec::new();
        for k in open..self.code.len() {
            let t = self.tok(k);
            match t.kind {
                TokenKind::Punct('[') => {
                    depth += 1;
                    if depth > 1 {
                        out.push(t.clone());
                    }
                }
                TokenKind::Punct(']') => {
                    depth -= 1;
                    if depth == 0 {
                        return Some((out, k));
                    }
                    out.push(t.clone());
                }
                _ => {
                    if depth >= 1 {
                        out.push(t.clone());
                    }
                }
            }
        }
        None
    }

    /// Code index of the `}` matching the `{` at code index `open` (or
    /// the last token if unterminated).
    fn match_brace(&self, open: usize) -> usize {
        let mut depth = 0i32;
        for k in open..self.code.len() {
            match self.tok(k).kind {
                TokenKind::Punct('{') => depth += 1,
                TokenKind::Punct('}') => {
                    depth -= 1;
                    if depth == 0 {
                        return k;
                    }
                }
                _ => {}
            }
        }
        self.code.len().saturating_sub(1)
    }
}

/// Doc comments (`///`, `//!`, `/** */`, `/*! */`) are documentation:
/// they may *mention* annotations (rule tables, examples) without
/// registering them. The lexer strips the `//` / `/*`, so the doc
/// marker is the first body character.
fn is_doc_comment(t: &Token) -> bool {
    match t.kind {
        TokenKind::LineComment => t.text.starts_with('/') || t.text.starts_with('!'),
        TokenKind::BlockComment => t.text.starts_with('*') || t.text.starts_with('!'),
        _ => false,
    }
}

/// Close out one contiguous comment block: its allow sites are
/// justified iff the block text says something beyond the annotations,
/// and every site is re-registered on the block's last line so an
/// annotation anywhere in the block covers the code directly below it.
fn seal_block(
    block_text: &str,
    block_sites: &[usize],
    allow_sites: &mut [AllowSite],
    allow: &mut BTreeMap<u32, Vec<usize>>,
    block_end: u32,
) {
    if block_sites.is_empty() {
        return;
    }
    let justified = justification_weight(block_text) >= MIN_JUSTIFICATION_ALNUM;
    for &i in block_sites {
        allow_sites[i].justified = justified;
        let at_end = allow.entry(block_end).or_default();
        if !at_end.contains(&i) {
            at_end.push(i);
        }
    }
}

/// Alphanumeric characters in `block` outside `lint: allow(…)`
/// fragments — the "did you say why" measure.
fn justification_weight(block: &str) -> usize {
    let mut weight = 0usize;
    let mut rest = block;
    while let Some(pos) = rest.find("lint: allow(") {
        weight += rest[..pos].chars().filter(|c| c.is_alphanumeric()).count();
        rest = &rest[pos + "lint: allow(".len()..];
        match rest.find(')') {
            Some(close) => rest = &rest[close + 1..],
            None => return weight,
        }
    }
    weight + rest.chars().filter(|c| c.is_alphanumeric()).count()
}

/// Extract every `lint: allow(key)` from a comment body.
fn parse_allow_keys(comment: &str) -> Vec<String> {
    let mut keys = Vec::new();
    let mut rest = comment;
    while let Some(pos) = rest.find("lint: allow(") {
        rest = &rest[pos + "lint: allow(".len()..];
        if let Some(close) = rest.find(')') {
            keys.push(rest[..close].trim().to_string());
            rest = &rest[close..];
        } else {
            break;
        }
    }
    keys
}

/// `#[test]` or exactly `#[cfg(test)]`.
fn is_test_attr(attr: &[Token]) -> bool {
    match attr {
        [t] => t.is_ident("test"),
        [c, o, t, p] => {
            c.is_ident("cfg") && o.is_punct('(') && t.is_ident("test") && p.is_punct(')')
        }
        _ => false,
    }
}

/// Does `spec` govern this file?
fn applies(spec: &RuleSpec, rel_path: &str) -> bool {
    spec.include.is_empty() || spec.include.iter().any(|p| rel_path.starts_with(p))
}

fn spec(id: &str) -> &'static RuleSpec {
    RULES.iter().find(|r| r.id == id).expect("known rule id")
}

/// Run every applicable *per-file* rule over one analysed file. The
/// interprocedural rules and [`allow_hygiene`] run afterwards from
/// [`crate::run_sources`]: the former need the whole workspace, and the
/// staleness audit must observe every rule's allow consultations.
pub fn run_all(fa: &FileAnalysis, tree: &ItemTree) -> Vec<Violation> {
    let mut violations = Vec::new();
    if applies(spec("D1"), &fa.rel_path) {
        violations.extend(d1_float_comparators(fa));
    }
    if applies(spec("D15"), &fa.rel_path) {
        violations.extend(d15_guard_lifetime(fa, tree));
    }
    if applies(spec("D16"), &fa.rel_path) {
        violations.extend(d16_epoch_protocol(fa, tree));
    }
    violations.sort_by_key(|v| (v.line, v.col, v.rule));
    violations.dedup_by_key(|v| (v.line, v.col, v.rule));
    violations
}

/// D1: `partial_cmp` (or `lt`/`le`/`gt`/`ge` calls) inside the closure
/// of a sort/search/extrema method. Token-accurate: multi-line closures
/// are caught, string literals are not.
fn d1_float_comparators(fa: &FileAnalysis) -> Vec<Violation> {
    let rule = spec("D1");
    let mut out = Vec::new();
    let n = fa.code.len();
    for ci in 0..n {
        let t = fa.tok(ci);
        if t.kind != TokenKind::Ident || !COMPARATOR_METHODS.contains(&t.text.as_str()) {
            continue;
        }
        if ci + 1 >= n || !fa.tok(ci + 1).is_punct('(') {
            continue;
        }
        // Walk the argument list of the comparator-taking method.
        let mut depth = 0i32;
        let mut j = ci + 1;
        while j < n {
            let u = fa.tok(j);
            match u.kind {
                TokenKind::Punct('(') => depth += 1,
                TokenKind::Punct(')') => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                TokenKind::Ident => {
                    let name = u.text.as_str();
                    let called = name == "partial_cmp"
                        || (PARTIAL_ORD_METHODS.contains(&name)
                            && j + 1 < n
                            && fa.tok(j + 1).is_punct('('));
                    let is_method = j > 0 && fa.tok(j - 1).is_punct('.');
                    if called && is_method && !fa.allowed(rule.allow_key, u.line) {
                        out.push(fa.violation(
                            rule.id,
                            u.line,
                            u.col,
                            format!(
                                "`{name}` inside `{}` is not a total order on floats; \
                                 use `f64::total_cmp` (or `Ord::cmp`)",
                                t.text
                            ),
                        ));
                    }
                }
                _ => {}
            }
            j += 1;
        }
    }
    out
}

/// Allow hygiene, the `#[expect(lint, reason = "..")]` contract for
/// `lint: allow(<key>)` comments. Runs after every rule (see
/// [`crate::run_sources`]) so the `used` flags are final: an
/// annotation must carry a justification in its comment block, and
/// must still suppress a real match — a stale allow outlived its
/// finding and would silently waive the next one on its line. Each
/// finding is reported under the rule that owns the key. A key no rule
/// owns is no annotation: it can never waive anything.
pub fn allow_hygiene(fa: &FileAnalysis) -> Vec<Violation> {
    let mut out = Vec::new();
    for site in &fa.allow_sites {
        let Some(rule) = RULES.iter().find(|r| r.allow_key == site.key) else {
            continue;
        };
        if !site.justified {
            out.push(fa.violation(
                rule.id,
                site.line,
                site.col,
                format!(
                    "`lint: allow({})` without a justification — say *why* the rule is \
                     wrong here, in the same comment block",
                    site.key
                ),
            ));
        } else if !site.used.get() && !fa.in_test(site.line) && !fa.in_test(site.line + 1) {
            out.push(fa.violation(
                rule.id,
                site.line,
                site.col,
                format!(
                    "stale `lint: allow({})`: no finding here any more — remove the \
                     annotation",
                    site.key
                ),
            ));
        }
    }
    out
}

// ---------------------------------------------------------------------
// D15 and D16: typestate rules over the per-function CFGs (DESIGN.md §19).
// ---------------------------------------------------------------------

/// RAII guard constructors D15 tracks: `(type, constructor)` pairs.
/// All three types arm a check (or a measurement) that only fires when
/// the value survives to the end of the region it should cover.
const D15_GUARD_CTORS: &[(&str, &str)] = &[
    ("AllocGuard", "strict"),
    ("AllocGuard", "counting"),
    ("NanGuard", "new"),
    ("Stopwatch", "start"),
];

/// Derived-structure mutators D16 recognises: memo-cache, CSR
/// eligibility and vendor-index methods. Every name
/// here rewrites state that `Instance::epoch` versions; calling one
/// outside an epoch bump's dominance region desynchronises the
/// derived structures from the instance.
const D16_MUTATION_METHODS: &[&str] = &[
    "push_customer",
    "swap_remove_customer",
    "invalidate_customer",
    "invalidate_vendor",
    "fit_memo",
    "insert_sorted",
    "remove_sorted",
    "push_row",
    "set_row",
    "swap_remove_row",
    "set_radius",
    "relocate",
];

/// Receivers whose generic `insert`/`swap_remove` calls are also grid
/// mutations for D16 (the spatial grid shares `Vec`-style names).
const D16_GRID_RECEIVERS: &[&str] = &["grid", "customer_grid"];
const D16_GRID_METHODS: &[&str] = &["insert", "swap_remove"];

/// D15: guard lifetime. A `let _ = <Guard>::<ctor>(…)` drops the
/// guard on the same statement — the region it should protect is
/// never armed. A `mem::forget` disarms the drop-time check outright.
/// An explicit `drop(guard)` is fine only when no statement of the
/// binding's scope can still execute after it on any CFG path.
fn d15_guard_lifetime(fa: &FileAnalysis, tree: &ItemTree) -> Vec<Violation> {
    let rule = spec("D15");
    let mut out = Vec::new();
    let n = fa.code_len();
    let partner = crate::cfg::bracket_partners(fa);
    // Innermost enclosing `}` per code-token index (lexical scope end).
    let mut scope_close = vec![n; n];
    let mut stack: Vec<usize> = Vec::new();
    for (ci, scope_end) in scope_close.iter_mut().enumerate() {
        if fa.tok(ci).is_punct('}') {
            stack.pop();
        }
        *scope_end = stack.last().map_or(n, |&o| partner[o].min(n));
        if fa.tok(ci).is_punct('{') {
            stack.push(ci);
        }
    }
    for f in &tree.fns {
        let Some((open, close)) = f.body else {
            continue;
        };
        if fa.in_test(f.line) {
            continue;
        }
        let mut cfg = None;
        let last = close.min(n.saturating_sub(4));
        for (ci, &scope) in scope_close.iter().enumerate().take(last).skip(open + 1) {
            let ty = fa.tok(ci);
            if ty.kind != TokenKind::Ident {
                continue;
            }
            let is_ctor = D15_GUARD_CTORS.iter().any(|&(t, c)| {
                ty.text == t
                    && fa.tok(ci + 1).is_punct(':')
                    && fa.tok(ci + 2).is_punct(':')
                    && fa.tok(ci + 3).is_ident(c)
                    && fa.tok(ci + 4).is_punct('(')
            });
            if !is_ctor {
                continue;
            }
            // Only `let <pat> = [path::]<Guard>::<ctor>(…)` bindings are
            // in scope; a guard passed straight into a call or struct
            // literal has whatever lifetime the callee gives it.
            let mut head = ci;
            while head >= 3
                && fa.tok(head - 1).is_punct(':')
                && fa.tok(head - 2).is_punct(':')
                && fa.tok(head - 3).kind == TokenKind::Ident
            {
                head -= 3;
            }
            if head < 3
                || !fa.tok(head - 1).is_punct('=')
                || fa.tok(head - 2).kind != TokenKind::Ident
            {
                continue;
            }
            let name = fa.tok(head - 2).text.clone();
            let is_let = fa.tok(head - 3).is_ident("let")
                || (head >= 4
                    && fa.tok(head - 3).is_ident("mut")
                    && fa.tok(head - 4).is_ident("let"));
            if !is_let {
                continue;
            }
            if name == "_" {
                if !fa.allowed(rule.allow_key, ty.line) {
                    out.push(fa.violation(
                        "D15",
                        ty.line,
                        ty.col,
                        format!(
                            "`let _ = {}::{}(…)` drops the guard on this same statement — \
                             the region it should protect is never armed; bind it \
                             (`let _g = …`) so it lives to the end of the region, or \
                             justify with `// lint: allow(guard_lifetime): <why>`",
                            ty.text,
                            fa.tok(ci + 3).text
                        ),
                    ));
                }
                continue;
            }
            // Named binding: audit `drop`/`mem::forget` sites in its
            // lexical scope against the CFG.
            let scope_end = scope.min(close);
            let g = cfg.get_or_insert_with(|| crate::cfg::build_fn(fa, (open, close)));
            let mut k = ci + 5;
            while k + 3 < n && k < scope_end {
                let t = fa.tok(k);
                let is_free_call = t.kind == TokenKind::Ident
                    && (t.text == "drop" || t.text == "forget")
                    && !fa.tok(k.saturating_sub(1)).is_punct('.')
                    && fa.tok(k + 1).is_punct('(')
                    && fa.tok(k + 2).is_ident(&name)
                    && fa.tok(k + 3).is_punct(')');
                if !is_free_call {
                    k += 1;
                    continue;
                }
                if t.text == "forget" {
                    if !fa.allowed(rule.allow_key, t.line) {
                        out.push(fa.violation(
                            "D15",
                            t.line,
                            t.col,
                            format!(
                                "`mem::forget({name})` disarms the guard's drop-time check — \
                                 the region ends unverified; let the guard drop, or justify \
                                 with `// lint: allow(guard_lifetime): <why>`"
                            ),
                        ));
                    }
                    k += 4;
                    continue;
                }
                // `drop(name)`: early iff a statement of the scope is
                // still reachable from here on some path.
                let site = g.blocks.iter().enumerate().find_map(|(b, stmts)| {
                    stmts
                        .iter()
                        .position(|s| s.lo <= k && k <= s.hi)
                        .map(|s| (b, s))
                });
                if let Some((db, ds)) = site {
                    let drop_hi = g.blocks[db][ds].hi;
                    // A statement still counts as guarded work only if
                    // it calls something beyond plain result/option
                    // construction: `drop(g); Ok(())` and
                    // `drop(g); return Err(e);` are orderly region
                    // exits, not work the guard misses.
                    let live = |s: &crate::cfg::Stmt| {
                        s.lo > drop_hi
                            && s.lo < scope_end
                            && (s.lo..=s.hi).any(|m| {
                                let u = fa.tok(m);
                                u.kind == TokenKind::Ident
                                    && m < s.hi
                                    && fa.tok(m + 1).is_punct('(')
                                    && !matches!(u.text.as_str(), "Ok" | "Err" | "Some" | "None")
                            })
                    };
                    let mut early = g.blocks[db][ds + 1..].iter().any(live);
                    if !early {
                        let reach = g.reachable_from(db);
                        early = g
                            .blocks
                            .iter()
                            .enumerate()
                            .any(|(b, stmts)| b != db && reach[b] && stmts.iter().any(live));
                    }
                    if early && !fa.allowed(rule.allow_key, t.line) {
                        out.push(fa.violation(
                            "D15",
                            t.line,
                            t.col,
                            format!(
                                "guard `{name}` is dropped here but guarded statements can \
                                 still execute after it — move the `drop` to the region end, \
                                 shrink the binding's scope, or justify with \
                                 `// lint: allow(guard_lifetime): <why>`"
                            ),
                        ));
                    }
                }
                k += 4;
            }
        }
    }
    out
}

/// Per-statement classification D16 feeds its dataflow with.
#[derive(Debug, Clone, Copy)]
struct EpochClass {
    /// Statement performs the epoch bump
    /// (`…instance….apply(…)` / `…to_mut().apply(…)`).
    bump: bool,
    /// First derived-structure mutation in the statement, if any.
    mutation: Option<(u32, u32)>,
    /// Statement can exit the fn with an error (`?`, `return …Err…`).
    err: bool,
}

/// Bump-count lattice step: {0, 1, ≥2} tracked as bits 0/1/2 of a
/// mask (union meet keeps one bit per count seen on some path).
fn d16_bump_shift(mask: u8) -> u8 {
    let mut next = 0u8;
    if mask & 0b001 != 0 {
        next |= 0b010;
    }
    if mask & 0b110 != 0 {
        next |= 0b100;
    }
    next
}

/// D16: epoch protocol. In `apply`/`apply_delta` bodies that touch
/// derived structures, the forward analysis tracks how many epoch
/// bumps each path has seen: a mutation reached with zero bumps runs
/// against a stale epoch, one reached after two bumps double-versions
/// the instance, and an `Err` exit after any mutation breaks the
/// valid-prefix invariant (callers treat `Err` as "nothing changed").
fn d16_epoch_protocol(fa: &FileAnalysis, tree: &ItemTree) -> Vec<Violation> {
    let rule = spec("D16");
    let mut out = Vec::new();
    for f in &tree.fns {
        if f.name != "apply" && f.name != "apply_delta" {
            continue;
        }
        let Some(body) = f.body else { continue };
        if fa.in_test(f.line) {
            continue;
        }
        let g = crate::cfg::build_fn(fa, body);
        let classify = |s: &crate::cfg::Stmt| -> EpochClass {
            let mut bump = false;
            let mut mutation = None;
            let mut saw_epoch_recv = false;
            for ci in s.lo..=s.hi {
                let t = fa.tok(ci);
                if t.kind != TokenKind::Ident {
                    continue;
                }
                if t.text == "instance" || t.text == "to_mut" {
                    saw_epoch_recv = true;
                }
                let dotted = ci > s.lo && fa.tok(ci - 1).is_punct('.');
                let called = ci < s.hi && fa.tok(ci + 1).is_punct('(');
                if !(dotted && called) {
                    continue;
                }
                if t.text == "apply" && saw_epoch_recv {
                    bump = true;
                }
                let grid_mut = D16_GRID_METHODS.contains(&t.text.as_str())
                    && ci >= s.lo + 2
                    && D16_GRID_RECEIVERS.contains(&fa.tok(ci - 2).text.as_str());
                if mutation.is_none()
                    && (D16_MUTATION_METHODS.contains(&t.text.as_str()) || grid_mut)
                {
                    mutation = Some((t.line, t.col));
                }
            }
            let first_ret = fa.tok(s.lo).is_ident("return") || fa.tok(s.lo).is_ident("Err");
            let names_err = (s.lo..=s.hi).any(|ci| fa.tok(ci).is_ident("Err"));
            EpochClass {
                bump,
                mutation,
                err: s.has_try || (first_ret && names_err),
            }
        };
        let classes: Vec<Vec<EpochClass>> = g
            .blocks
            .iter()
            .map(|b| b.iter().map(classify).collect())
            .collect();
        if !classes.iter().flatten().any(|c| c.mutation.is_some()) {
            // Pure delegation (`apply_delta` looping over `apply`) has
            // no epoch obligations of its own.
            continue;
        }
        let reach = g.reachable();
        // Dataflow 1: bump-count mask. Entry has seen zero bumps.
        let bump_states = crate::cfg::forward(
            &g,
            &0b001u8,
            &0u8,
            |a, b| a | b,
            |s, b| {
                classes[b]
                    .iter()
                    .fold(*s, |m, c| if c.bump { d16_bump_shift(m) } else { m })
            },
        );
        // Dataflow 2: has any mutation happened yet on this path?
        let mut_states = crate::cfg::forward(
            &g,
            &false,
            &false,
            |a, b| *a || *b,
            |s, b| classes[b].iter().fold(*s, |m, c| m || c.mutation.is_some()),
        );
        for (b, stmts) in g.blocks.iter().enumerate() {
            if !reach[b] {
                continue;
            }
            let mut mask = bump_states[b];
            let mut mutated = mut_states[b];
            for (s, c) in stmts.iter().zip(&classes[b]) {
                if let Some((line, col)) = c.mutation {
                    if mask & 0b001 != 0 && !fa.allowed(rule.allow_key, line) {
                        out.push(fa.violation(
                            "D16",
                            line,
                            col,
                            format!(
                                "derived-structure mutation in `{}` is reachable without an \
                                 epoch bump — bump `instance.to_mut().apply(…)` first so memo/\
                                 CSR/grid state versions with the instance, or justify with \
                                 `// lint: allow(epoch_protocol): <why>`",
                                f.name
                            ),
                        ));
                    } else if mask & 0b100 != 0 && !fa.allowed(rule.allow_key, line) {
                        out.push(fa.violation(
                            "D16",
                            line,
                            col,
                            format!(
                                "derived-structure mutation in `{}` sits after more than one \
                                 epoch bump on some path — exactly one bump must dominate \
                                 each mutation, or justify with \
                                 `// lint: allow(epoch_protocol): <why>`",
                                f.name
                            ),
                        ));
                    }
                }
                if c.err && mutated && !fa.allowed(rule.allow_key, s.line) {
                    out.push(fa.violation(
                        "D16",
                        s.line,
                        s.col,
                        format!(
                            "error exit in `{}` is reachable after a derived-structure \
                             mutation — the valid-prefix invariant requires every `Err` \
                             path to leave the context untouched; validate before \
                             mutating, or justify with \
                             `// lint: allow(epoch_protocol): <why>`",
                            f.name
                        ),
                    ));
                }
                if c.bump {
                    mask = d16_bump_shift(mask);
                }
                mutated = mutated || c.mutation.is_some();
            }
        }
    }
    out
}
