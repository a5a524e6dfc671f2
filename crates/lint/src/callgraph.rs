//! Layer 3 (DESIGN.md §18): a workspace-wide, function-level call
//! graph over the item trees from [`crate::tree`], plus the two
//! interprocedural rules that ride on it.
//!
//! | id  | guards | escape hatch |
//! |-----|--------|--------------|
//! | D12 | no nondeterminism source reachable from a solver entry point except through a sanctioned wrapper | `// lint: allow(nondet)` at the *source* |
//! | D13 | nothing in or transitively callable from a `#[muaa::hot]` fn or an `AllocGuard` region allocates | `// lint: allow(hot_alloc)` at the allocation |
//!
//! ## Soundness stance
//!
//! The graph is built from tokens, not types, so resolution is a
//! deliberate over-approximation: a `.name(…)` method call whose
//! receiver type we cannot pin resolves to *every* associated fn of
//! that name whose `impl` type is even mentioned in the calling file —
//! and to all of them when that filter comes up empty. A call that
//! resolves to *zero* workspace functions is external (std or a
//! dependency); its effects are still seen, because every rule also
//! scans each function body *textually* for its effect patterns
//! (`Instant::now`, allocating constructs). Missing
//! edges can therefore only come from effects hidden behind external
//! higher-order code, which the workspace does not use on solver
//! paths. False-positive paths are the accepted cost; the escape
//! hatch is a justified allow at the effect site, which the allow
//! hygiene pass keeps honest.
//!
//! Sanctioned wrappers *absorb* taint: a sanctioned node is never a
//! source, and traversal never continues through it. That is what
//! makes `muaa_core::clock::Stopwatch` usable from a solver while raw
//! `Instant::now` is not.

use crate::rules::{FileAnalysis, Violation};
use crate::tree::ItemTree;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Files whose contents are the *sanctioned* determinism wrappers:
/// nondeterminism inside them is their whole point (seeded RNG, the
/// wall-clock shim, thread-pool plumbing). D12 neither roots in nor
/// traverses through them.
const D12_SANCTIONED_FILES: &[&str] = &[
    "crates/core/src/clock.rs",
    "crates/core/src/rng.rs",
    "crates/core/src/par.rs",
];

/// Entry-point names D12 roots at inside the solver crates: solver
/// drivers, online session surfaces, and Delta application paths.
const D12_ROOT_NAMES: &[&str] = &[
    "run",
    "run_online",
    "process",
    "serve",
    "serve_remaining",
    "serve_arrival",
    "assign",
    "solve",
    "apply",
    "apply_delta",
    "apply_batch",
];

/// Crates whose fns named in [`D12_ROOT_NAMES`] are D12 roots.
const D12_ROOT_PATHS: &[&str] = &[
    "crates/algorithms/src/",
    "crates/core/src/",
    "crates/spatial/src/",
];

/// Files sanctioned for D13: the sanitize crate implements the guards
/// themselves, and the par drivers allocate their fan-out scaffolding
/// once per region by design.
const D13_SANCTIONED_FILES: &[&str] = &["crates/core/src/sanitize.rs", "crates/core/src/par.rs"];

/// Control keywords that look like `name(…)` to a token scan.
const CALL_KEYWORDS: &[&str] = &[
    "if", "match", "while", "for", "loop", "return", "fn", "let", "else", "in", "as", "move",
    "unsafe", "break", "continue", "where", "impl", "dyn", "ref", "mut", "use", "pub", "crate",
    "super", "self", "Self",
];

/// Method names shadowed by the std collection types. A `.push(…)`
/// whose receiver type the calling file never names is almost always
/// a `Vec` — falling back to every workspace `push` impl there would
/// wire hot kernels to unrelated builders. For these names the
/// widen-to-all fallback is off: the edge exists only when the
/// calling file names the impl type (a field decl, a `use`, or a
/// signature all count, so genuine delegation chains keep their
/// edges).
const STD_SHADOWED_METHODS: &[&str] = &[
    "push",
    "pop",
    "insert",
    "remove",
    "swap_remove",
    "get",
    "get_mut",
    "len",
    "is_empty",
    "clear",
    "extend",
    "reserve",
    "truncate",
    "iter",
    "iter_mut",
    "contains",
    "contains_key",
    "sort",
    "retain",
    "drain",
    "last",
    "first",
    "split_off",
    "entry",
    "keys",
    "values",
    "append",
    "resize",
    "fill",
    "take",
    "replace",
    "next",
    "clone",
    "new",
];

/// Tokens that, when directly in front of an ident, mean the ident is
/// a *definition or path head*, not a use of a function value.
const DEF_KEYWORDS: &[&str] = &[
    "fn", "struct", "enum", "trait", "mod", "impl", "use", "let", "type", "const", "static", "for",
    "crate", "pub", "mut",
];

/// One function in the workspace graph.
#[derive(Debug)]
pub struct Node {
    /// Index into the `files` slice the graph was built from.
    pub file: usize,
    pub name: String,
    /// `impl` self type, for associated fns.
    pub self_type: Option<String>,
    pub line: u32,
    pub col: u32,
    pub is_pub: bool,
    pub is_hot: bool,
    /// Inside `#[cfg(test)]` / `tests/` collateral — rules skip these.
    pub in_test: bool,
    /// Code-token indices of the body braces.
    pub body: Option<(usize, usize)>,
}

/// One call site, kept with its position so region rules (D13's
/// `AllocGuard` spans) can filter calls by where they happen — the
/// node-level adjacency alone cannot answer that.
#[derive(Debug)]
pub struct CallSite {
    /// Index into `files`.
    pub file: usize,
    /// Code-token index of the callee name.
    pub ci: usize,
    /// Resolved workspace targets (empty = external call).
    pub targets: Vec<usize>,
}

/// Effect summary of one node's body, precomputed at build time.
#[derive(Debug, Default)]
struct Effects {
    /// Nondeterminism sources: (line, col, description).
    det: Vec<(u32, u32, &'static str)>,
    /// Allocating constructs: (line, col, description).
    alloc: Vec<(u32, u32, &'static str)>,
}

/// The workspace call graph.
#[derive(Debug)]
pub struct CallGraph {
    pub nodes: Vec<Node>,
    pub calls: Vec<CallSite>,
    /// Deduplicated callee adjacency.
    callees: Vec<BTreeSet<usize>>,
    effects: Vec<Effects>,
}

impl CallGraph {
    /// Build the graph over every analysed file.
    pub fn build(files: &[(FileAnalysis, ItemTree)]) -> CallGraph {
        let mut nodes: Vec<Node> = Vec::new();
        let mut file_nodes: Vec<Vec<usize>> = vec![Vec::new(); files.len()];
        for (fi, (fa, tree)) in files.iter().enumerate() {
            for f in &tree.fns {
                let id = nodes.len();
                nodes.push(Node {
                    file: fi,
                    name: f.name.clone(),
                    self_type: f.self_type.clone(),
                    line: f.line,
                    col: f.col,
                    is_pub: f.is_pub,
                    is_hot: f.is_hot,
                    in_test: fa.in_test(f.line),
                    body: f.body,
                });
                file_nodes[fi].push(id);
            }
        }

        // Resolution maps. Free fns keep a same-file-first preference;
        // associated fns are filtered by impl type at resolve time.
        let mut free_by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut assoc_by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut assoc_by_type: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
        for (id, node) in nodes.iter().enumerate() {
            match &node.self_type {
                None => free_by_name.entry(&node.name).or_default().push(id),
                Some(ty) => {
                    assoc_by_name.entry(&node.name).or_default().push(id);
                    assoc_by_type.entry((ty, &node.name)).or_default().push(id);
                }
            }
        }

        let mut calls: Vec<CallSite> = Vec::new();
        let mut callees: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); nodes.len()];
        let add_edge = |from: Option<usize>, to: &[usize], callees: &mut Vec<BTreeSet<usize>>| {
            if let Some(c) = from {
                callees[c].extend(to);
            }
        };

        for (fi, (fa, _)) in files.iter().enumerate() {
            // Module-scope `static`/`const` items that reference
            // same-file fns — the dispatch-table idiom (`static FAST:
            // Ops = Ops { step: step_fast, … }`). A fn that names the
            // static inherits edges to the fns its initializer captures.
            let static_refs = static_fn_refs(fa, &nodes, &file_nodes[fi]);
            // Type names this file's *production* code mentions — the
            // method-call filter. Test modules are excluded: a builder
            // type used only by `#[cfg(test)]` fixtures must not pull
            // its allocating methods into production resolution.
            let mentions: BTreeSet<&str> = {
                let mut s = BTreeSet::new();
                for ci in 0..fa.code_len() {
                    let t = fa.tok(ci);
                    if t.kind == crate::lexer::TokenKind::Ident
                        && !fa.in_test(t.line)
                        && t.text.chars().next().is_some_and(char::is_uppercase)
                    {
                        s.insert(t.text.as_str());
                    }
                }
                s
            };
            let n = fa.code_len();
            let mut ci = 0;
            while ci < n {
                let t = fa.tok(ci);
                // Jump over attributes: `derive(Clone)` is not a call.
                if t.is_punct('#') {
                    let mut j = ci + 1;
                    if j < n && fa.tok(j).is_punct('!') {
                        j += 1;
                    }
                    if j < n && fa.tok(j).is_punct('[') {
                        if let Some((_, end)) = fa.collect_attr(j) {
                            ci = end + 1;
                            continue;
                        }
                    }
                    ci += 1;
                    continue;
                }
                if t.kind != crate::lexer::TokenKind::Ident {
                    ci += 1;
                    continue;
                }
                // The name right after `fn` is a definition, not a use.
                if ci > 0 && fa.tok(ci - 1).is_ident("fn") {
                    ci += 1;
                    continue;
                }
                let caller = enclosing_fn(&nodes, &file_nodes[fi], ci);
                let paren = call_paren_after(fa, ci, n);
                let prev_colons =
                    ci >= 2 && fa.tok(ci - 1).is_punct(':') && fa.tok(ci - 2).is_punct(':');
                let prev_dot = ci > 0 && fa.tok(ci - 1).is_punct('.');
                if paren.is_some() {
                    if CALL_KEYWORDS.contains(&t.text.as_str()) {
                        ci += 1;
                        continue;
                    }
                    let targets = if prev_dot {
                        let recv_self = ci >= 2 && fa.tok(ci - 2).is_ident("self");
                        resolve_method(
                            &nodes,
                            &assoc_by_name,
                            &mentions,
                            &t.text,
                            recv_self,
                            caller,
                        )
                    } else if prev_colons {
                        resolve_qualified(
                            fa,
                            ci,
                            &nodes,
                            &free_by_name,
                            &assoc_by_name,
                            &assoc_by_type,
                            caller,
                        )
                    } else {
                        resolve_free(&nodes, &free_by_name, &t.text, fi)
                    };
                    add_edge(caller, &targets, &mut callees);
                    calls.push(CallSite {
                        file: fi,
                        ci,
                        targets,
                    });
                } else if !prev_dot && !prev_colons {
                    // Fn-as-value weak edge: a bare mention of a
                    // same-file fn name (kernel passed to `par_map`,
                    // dispatch-table construction). Same-file only —
                    // workspace-wide name matching would drown the
                    // graph in field-name noise.
                    if ci > 0 && DEF_KEYWORDS.contains(&fa.tok(ci - 1).text.as_str()) {
                        ci += 1;
                        continue;
                    }
                    // `name:` is a struct-field declaration/initializer
                    // *key*, never a value.
                    let field_key = ci + 1 < n
                        && fa.tok(ci + 1).is_punct(':')
                        && !(ci + 2 < n && fa.tok(ci + 2).is_punct(':'));
                    if !field_key {
                        let hits: Vec<usize> = file_nodes[fi]
                            .iter()
                            .copied()
                            .filter(|&id| nodes[id].name == t.text && Some(id) != caller)
                            .collect();
                        add_edge(caller, &hits, &mut callees);
                        if let Some(captured) = static_refs.get(t.text.as_str()) {
                            add_edge(caller, captured, &mut callees);
                        }
                    }
                }
                ci += 1;
            }
        }

        let effects = nodes
            .iter()
            .map(|node| scan_effects(&files[node.file].0, node))
            .collect();
        CallGraph {
            nodes,
            calls,
            callees,
            effects,
        }
    }

    /// Human label for a node: `Type::name` or `name`.
    pub fn label(&self, id: usize) -> String {
        let node = &self.nodes[id];
        match &node.self_type {
            Some(ty) => format!("{ty}::{}", node.name),
            None => node.name.clone(),
        }
    }

    /// Forward BFS from `start`, never expanding nodes `blocked` says
    /// to absorb. Returns visit order and parent links for witness
    /// paths. `start` itself is visited even when blocked is false for
    /// it; a blocked start returns empty.
    fn reach(
        &self,
        start: usize,
        blocked: &dyn Fn(usize) -> bool,
    ) -> (Vec<usize>, BTreeMap<usize, usize>) {
        let mut order = Vec::new();
        let mut parent = BTreeMap::new();
        if blocked(start) {
            return (order, parent);
        }
        let mut seen = BTreeSet::new();
        let mut q = VecDeque::new();
        seen.insert(start);
        q.push_back(start);
        while let Some(v) = q.pop_front() {
            order.push(v);
            for &w in &self.callees[v] {
                if !blocked(w) && seen.insert(w) {
                    parent.insert(w, v);
                    q.push_back(w);
                }
            }
        }
        (order, parent)
    }

    /// Witness path `start → … → end` as ` → `-joined labels.
    fn witness(&self, parent: &BTreeMap<usize, usize>, start: usize, end: usize) -> String {
        let mut chain = vec![end];
        let mut v = end;
        while v != start {
            match parent.get(&v) {
                Some(&p) => {
                    chain.push(p);
                    v = p;
                }
                None => break,
            }
        }
        chain.reverse();
        chain
            .iter()
            .map(|&id| self.label(id))
            .collect::<Vec<_>>()
            .join(" -> ")
    }

    /// D12: no nondeterminism source reachable from a solver entry
    /// point except through a sanctioned wrapper. Anchored at the
    /// entry point; waived only at the *source* fn's site, so an allow
    /// suppresses taint introduced there but never taint merely
    /// passing through (see the allow interaction tests).
    pub fn d12_determinism_taint(&self, files: &[(FileAnalysis, ItemTree)]) -> Vec<Violation> {
        let mut out = Vec::new();
        let mut reported: BTreeSet<(usize, u32, u32)> = BTreeSet::new();
        let blocked = |id: usize| {
            let node = &self.nodes[id];
            node.in_test || d12_sanctioned(&files[node.file].0.rel_path)
        };
        for root in 0..self.nodes.len() {
            if !self.is_d12_root(files, root) {
                continue;
            }
            let (order, parent) = self.reach(root, &blocked);
            for v in order {
                let vf = &files[self.nodes[v].file].0;
                for &(line, col, what) in &self.effects[v].det {
                    if vf.in_test(line) || !reported.insert((self.nodes[v].file, line, col)) {
                        continue;
                    }
                    if vf.allowed("nondet", line) {
                        continue;
                    }
                    let rf = &files[self.nodes[root].file].0;
                    out.push(rf.violation(
                        "D12",
                        self.nodes[root].line,
                        self.nodes[root].col,
                        format!(
                            "nondeterminism source `{what}` at {}:{line} is reachable from \
                             solver entry `{}` via {}; route it through a sanctioned wrapper \
                             (muaa_core::clock / rng / par) or justify it at the source with \
                             `// lint: allow(nondet): <why>`",
                            vf.rel_path,
                            self.label(root),
                            self.witness(&parent, root, v),
                        ),
                    ));
                }
            }
        }
        out
    }

    fn is_d12_root(&self, files: &[(FileAnalysis, ItemTree)], id: usize) -> bool {
        let node = &self.nodes[id];
        if node.in_test {
            return false;
        }
        let path = files[node.file].0.rel_path.as_str();
        if d12_sanctioned(path) {
            return false;
        }
        let named = D12_ROOT_NAMES.contains(&node.name.as_str())
            && D12_ROOT_PATHS.iter().any(|p| path.starts_with(p));
        named || (node.is_pub && path.starts_with("crates/experiments/src/"))
    }

    /// D13: nothing in or transitively callable from a `#[muaa::hot]`
    /// fn or an `AllocGuard` region may allocate. A hot fn is a root of
    /// itself, so its own body and everything it calls are checked.
    pub fn d13_hot_alloc(&self, files: &[(FileAnalysis, ItemTree)]) -> Vec<Violation> {
        let mut out = Vec::new();
        let mut reported: BTreeSet<(usize, u32, u32)> = BTreeSet::new();
        let blocked = |id: usize| {
            let node = &self.nodes[id];
            node.in_test || d13_sanctioned(&files[node.file].0.rel_path)
        };
        // Roots: hot fns, and targets of calls placed inside an
        // AllocGuard region.
        let mut roots: Vec<(usize, String)> = Vec::new();
        for (id, node) in self.nodes.iter().enumerate() {
            if node.is_hot && !node.in_test {
                roots.push((id, format!("#[muaa::hot] fn `{}`", self.label(id))));
            }
        }
        for (fi, (fa, _)) in files.iter().enumerate() {
            for (lo, hi, line) in alloc_guard_regions(fa) {
                for call in self
                    .calls
                    .iter()
                    .filter(|c| c.file == fi && lo < c.ci && c.ci < hi)
                {
                    for &t in &call.targets {
                        roots.push((t, format!("AllocGuard region at {}:{line}", fa.rel_path)));
                    }
                }
            }
        }
        for (root, origin) in roots {
            let (order, parent) = self.reach(root, &blocked);
            for v in order {
                let node = &self.nodes[v];
                let vf = &files[node.file].0;
                for &(line, col, what) in &self.effects[v].alloc {
                    if vf.in_test(line) || !reported.insert((node.file, line, col)) {
                        continue;
                    }
                    if vf.allowed("hot_alloc", line) {
                        continue;
                    }
                    out.push(vf.violation(
                        "D13",
                        line,
                        col,
                        format!(
                            "`{what}` allocates in `{}`, reachable from {origin} (via {}); \
                             hoist the allocation out of the hot call tree or justify with \
                             `// lint: allow(hot_alloc): <why>`",
                            self.label(v),
                            self.witness(&parent, root, v),
                        ),
                    ));
                }
            }
        }
        out
    }
}

fn d12_sanctioned(path: &str) -> bool {
    D12_SANCTIONED_FILES.contains(&path)
}

fn d13_sanctioned(path: &str) -> bool {
    D13_SANCTIONED_FILES.contains(&path)
}

/// Innermost fn of `ids` (one file's nodes) whose body span contains
/// code index `ci`.
fn enclosing_fn(nodes: &[Node], ids: &[usize], ci: usize) -> Option<usize> {
    ids.iter()
        .copied()
        .filter(|&id| nodes[id].body.is_some_and(|(o, c)| o < ci && ci < c))
        .min_by_key(|&id| {
            let (o, c) = nodes[id].body.unwrap_or((0, usize::MAX));
            c - o
        })
}

/// If the ident at `ci` heads a call — `name(…)` or turbofish
/// `name::<T>(…)` — return the code index of the `(`.
fn call_paren_after(fa: &FileAnalysis, ci: usize, n: usize) -> Option<usize> {
    let mut j = ci + 1;
    if j + 2 < n
        && fa.tok(j).is_punct(':')
        && fa.tok(j + 1).is_punct(':')
        && fa.tok(j + 2).is_punct('<')
    {
        let mut depth = 0i32;
        let mut k = j + 2;
        let fuel = k + 40;
        loop {
            if k >= n || k > fuel {
                return None;
            }
            let t = fa.tok(k);
            if t.is_punct('<') {
                depth += 1;
            } else if t.is_punct('>') && !(k > 0 && fa.tok(k - 1).is_punct('-')) {
                depth -= 1;
                if depth == 0 {
                    j = k + 1;
                    break;
                }
            }
            k += 1;
        }
    }
    (j < n && fa.tok(j).is_punct('(')).then_some(j)
}

/// Resolve a `.name(…)` method call. Receiver `self` pins the impl
/// type exactly when possible; otherwise candidates narrow to impl
/// types the calling file mentions, and widen to all of them when
/// that filter empties — the conservative over-approximation.
fn resolve_method(
    nodes: &[Node],
    assoc_by_name: &BTreeMap<&str, Vec<usize>>,
    mentions: &BTreeSet<&str>,
    name: &str,
    recv_self: bool,
    caller: Option<usize>,
) -> Vec<usize> {
    let Some(cands) = assoc_by_name.get(name) else {
        return Vec::new();
    };
    if recv_self {
        if let Some(ty) = caller.and_then(|c| nodes[c].self_type.as_deref()) {
            let exact: Vec<usize> = cands
                .iter()
                .copied()
                .filter(|&id| nodes[id].self_type.as_deref() == Some(ty))
                .collect();
            if !exact.is_empty() {
                return exact;
            }
        }
    }
    let mentioned: Vec<usize> = cands
        .iter()
        .copied()
        .filter(|&id| {
            nodes[id]
                .self_type
                .as_deref()
                .is_some_and(|ty| mentions.contains(ty))
        })
        .collect();
    if mentioned.is_empty() {
        if STD_SHADOWED_METHODS.contains(&name) {
            Vec::new()
        } else {
            cands.clone()
        }
    } else {
        mentioned
    }
}

/// Resolve `Q::name(…)`: an uppercase `Q` is a type (with `Self`
/// mapped through the enclosing impl), a lowercase `Q` is a module
/// path whose tail is a free fn, and a non-ident qualifier
/// (`<T as Trait>::name`) falls back to every assoc fn of that name.
fn resolve_qualified(
    fa: &FileAnalysis,
    ci: usize,
    nodes: &[Node],
    free_by_name: &BTreeMap<&str, Vec<usize>>,
    assoc_by_name: &BTreeMap<&str, Vec<usize>>,
    assoc_by_type: &BTreeMap<(&str, &str), Vec<usize>>,
    caller: Option<usize>,
) -> Vec<usize> {
    let name = fa.tok(ci).text.as_str();
    if ci < 3 {
        return Vec::new();
    }
    let q = fa.tok(ci - 3);
    if q.kind != crate::lexer::TokenKind::Ident {
        return assoc_by_name.get(name).cloned().unwrap_or_default();
    }
    let qual: &str = if q.is_ident("Self") {
        match caller.and_then(|c| nodes[c].self_type.as_deref()) {
            Some(ty) => ty,
            None => return Vec::new(),
        }
    } else {
        q.text.as_str()
    };
    if qual.chars().next().is_some_and(char::is_uppercase) {
        assoc_by_type
            .get(&(qual, name))
            .cloned()
            .unwrap_or_default()
    } else {
        free_by_name.get(name).cloned().unwrap_or_default()
    }
}

/// Resolve a bare `name(…)` call: same-file free fns win, then any
/// workspace free fn of that name.
fn resolve_free(
    nodes: &[Node],
    free_by_name: &BTreeMap<&str, Vec<usize>>,
    name: &str,
    file: usize,
) -> Vec<usize> {
    let Some(cands) = free_by_name.get(name) else {
        return Vec::new();
    };
    let local: Vec<usize> = cands
        .iter()
        .copied()
        .filter(|&id| nodes[id].file == file)
        .collect();
    if local.is_empty() {
        cands.clone()
    } else {
        local
    }
}

/// Map each module-scope `static`/`const` item of one file to the
/// same-file fn nodes its initializer references. Initializers run to
/// the first `;` at bracket depth 0.
fn static_fn_refs(
    fa: &FileAnalysis,
    nodes: &[Node],
    ids: &[usize],
) -> BTreeMap<String, Vec<usize>> {
    let mut out: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    let n = fa.code_len();
    let mut ci = 0;
    while ci < n {
        let t = fa.tok(ci);
        let is_item_kw = t.is_ident("static") || t.is_ident("const");
        if !is_item_kw || enclosing_fn(nodes, ids, ci).is_some() {
            ci += 1;
            continue;
        }
        let mut j = ci + 1;
        if j < n && fa.tok(j).is_ident("mut") {
            j += 1;
        }
        if j >= n || fa.tok(j).kind != crate::lexer::TokenKind::Ident {
            ci += 1;
            continue;
        }
        let item_name = fa.tok(j).text.clone();
        // `const fn` / generic `const N: usize` inside signatures are
        // excluded by the enclosing-fn test above.
        let mut depth = 0i32;
        let mut refs: Vec<usize> = Vec::new();
        let mut k = j + 1;
        while k < n {
            let tk = fa.tok(k);
            match tk.kind {
                crate::lexer::TokenKind::Punct('{')
                | crate::lexer::TokenKind::Punct('(')
                | crate::lexer::TokenKind::Punct('[') => depth += 1,
                crate::lexer::TokenKind::Punct('}')
                | crate::lexer::TokenKind::Punct(')')
                | crate::lexer::TokenKind::Punct(']') => depth -= 1,
                crate::lexer::TokenKind::Punct(';') if depth <= 0 => break,
                crate::lexer::TokenKind::Ident => {
                    for &id in ids {
                        if nodes[id].name == tk.text {
                            refs.push(id);
                        }
                    }
                }
                _ => {}
            }
            k += 1;
        }
        if !refs.is_empty() {
            refs.sort_unstable();
            refs.dedup();
            out.entry(item_name).or_default().extend(refs);
        }
        ci = k + 1;
    }
    out
}

/// `AllocGuard` regions of one file: `(open_ci, close_ci, line)` of
/// the innermost brace pair enclosing each `AllocGuard::strict` /
/// `AllocGuard::counting` construction — the span the runtime guard
/// polices, and therefore the span whose calls D13 roots at.
fn alloc_guard_regions(fa: &FileAnalysis) -> Vec<(usize, usize, u32)> {
    let n = fa.code_len();
    let mut partner = vec![usize::MAX; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut opens_at: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (ci, opens) in opens_at.iter_mut().enumerate() {
        if fa.tok(ci).is_punct('{') {
            stack.push(ci);
        } else if fa.tok(ci).is_punct('}') {
            if let Some(open) = stack.pop() {
                partner[open] = ci;
            }
        }
        *opens = stack.clone();
    }
    let mut out = Vec::new();
    for (ci, opens) in opens_at.iter().enumerate() {
        let t = fa.tok(ci);
        if !t.is_ident("AllocGuard")
            || ci + 3 >= n
            || !fa.tok(ci + 1).is_punct(':')
            || !fa.tok(ci + 2).is_punct(':')
        {
            continue;
        }
        let m = fa.tok(ci + 3);
        if !m.is_ident("strict") && !m.is_ident("counting") {
            continue;
        }
        if let Some(&open) = opens.last() {
            let close = if partner[open] != usize::MAX {
                partner[open]
            } else {
                n
            };
            out.push((open, close, t.line));
        }
    }
    out
}

/// Scan one node's body for its effect summary. Textual and
/// type-blind on purpose: this is the layer that keeps *external*
/// calls sound — an effect pattern is seen in whatever body spells
/// it, resolved or not.
fn scan_effects(fa: &FileAnalysis, node: &Node) -> Effects {
    use crate::lexer::TokenKind;
    let mut eff = Effects::default();
    let Some((open, close)) = node.body else {
        return eff;
    };
    let n = fa.code_len();
    let hi = close.min(n);
    for ci in open + 1..hi {
        let t = fa.tok(ci);
        if t.kind != TokenKind::Ident {
            continue;
        }
        let colons =
            |k: usize| k + 2 < hi && fa.tok(k + 1).is_punct(':') && fa.tok(k + 2).is_punct(':');
        let path_seg = |k: usize, name: &str| colons(k) && fa.tok(k + 3).is_ident(name);
        let prev_dot = ci > open + 1 && fa.tok(ci - 1).is_punct('.');

        // --- nondeterminism sources (D12) ---
        let det: Option<&'static str> = if t.is_ident("Instant") && path_seg(ci, "now") {
            Some("Instant::now")
        } else if t.is_ident("SystemTime") {
            Some("SystemTime")
        } else if t.is_ident("env")
            && colons(ci)
            && matches!(fa.tok(ci + 3).text.as_str(), "var" | "var_os" | "vars")
        {
            Some("std::env::var")
        } else if t.is_ident("thread") && path_seg(ci, "current") {
            Some("thread::current")
        } else if t.is_ident("RandomState") {
            Some("RandomState")
        } else if t.is_ident("rand") && colons(ci) {
            Some("rand::")
        } else if (t.is_ident("as_ptr") || t.is_ident("as_mut_ptr"))
            && (ci + 1..hi.min(ci + 7))
                .any(|k| fa.tok(k).is_ident("as") && k + 1 < hi && fa.tok(k + 1).is_ident("usize"))
        {
            Some("pointer-as-usize cast")
        } else {
            None
        };
        if let Some(what) = det {
            eff.det.push((t.line, t.col, what));
        }

        // --- allocating constructs (D13) ---
        let bang = |k: usize| k + 1 < hi && fa.tok(k + 1).is_punct('!');
        let callp = |k: usize| k + 1 < hi && fa.tok(k + 1).is_punct('(');
        let alloc: Option<&'static str> =
            if path_seg(ci, "new") && matches!(t.text.as_str(), "Vec" | "Box" | "String") {
                match t.text.as_str() {
                    "Vec" => Some("Vec::new()"),
                    "Box" => Some("Box::new(…)"),
                    _ => Some("String::new()"),
                }
            } else if t.is_ident("String") && path_seg(ci, "from") {
                Some("String::from(…)")
            } else if t.is_ident("vec") && bang(ci) {
                Some("vec![…]")
            } else if t.is_ident("format") && bang(ci) {
                Some("format!(…)")
            } else if prev_dot && t.is_ident("push") && callp(ci) {
                Some(".push(…)")
            } else if prev_dot && t.is_ident("to_vec") && callp(ci) {
                Some(".to_vec()")
            } else if prev_dot && t.is_ident("to_string") && callp(ci) {
                Some(".to_string()")
            } else if prev_dot && t.is_ident("to_owned") && callp(ci) {
                Some(".to_owned()")
            } else if prev_dot && t.is_ident("collect") {
                Some(".collect()")
            } else {
                None
            };
        if let Some(what) = alloc {
            eff.alloc.push((t.line, t.col, what));
        }
    }
    eff
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(files: &[(&str, &str)]) -> (Vec<(FileAnalysis, ItemTree)>, CallGraph) {
        let analyzed: Vec<(FileAnalysis, ItemTree)> = files
            .iter()
            .map(|(p, s)| {
                let fa = FileAnalysis::new(p, s);
                let tree = crate::tree::build(&fa);
                (fa, tree)
            })
            .collect();
        let graph = CallGraph::build(&analyzed);
        (analyzed, graph)
    }

    fn node(g: &CallGraph, label: &str) -> usize {
        (0..g.nodes.len())
            .find(|&id| g.label(id) == label)
            .unwrap_or_else(|| panic!("no node labelled {label}"))
    }

    fn has_edge(g: &CallGraph, from: &str, to: &str) -> bool {
        g.callees[node(g, from)].contains(&node(g, to))
    }

    // ---- resolution -------------------------------------------------

    #[test]
    fn resolves_free_self_method_and_ufcs_calls() {
        let src = "fn helper() {}\n\
                   fn driver() { helper(); }\n\
                   struct S;\n\
                   impl S {\n    fn go(&self) { self.inner(); }\n    fn inner(&self) {}\n}\n\
                   fn ufcs(s: &S) { S::go(s); }";
        let (_, g) = ws(&[("crates/x/src/a.rs", src)]);
        assert!(has_edge(&g, "driver", "helper"));
        assert!(has_edge(&g, "S::go", "S::inner"));
        assert!(has_edge(&g, "ufcs", "S::go"));
        assert!(!has_edge(&g, "helper", "driver"));
    }

    #[test]
    fn turbofish_and_module_qualified_calls_are_edges() {
        let src = "fn generic(x: u32) -> u32 { x }\n\
                   fn caller() { generic::<u32>(1); }\n\
                   fn tail() {}\n\
                   fn qual() { helpers::tail(); }";
        let (_, g) = ws(&[("crates/x/src/a.rs", src)]);
        assert!(has_edge(&g, "caller", "generic"));
        // Lowercase qualifier = module path; resolves to the free fn.
        assert!(has_edge(&g, "qual", "tail"));
    }

    #[test]
    fn self_receiver_pins_the_impl_type_exactly() {
        // Two impls expose `tick`; a `self.tick()` inside A must not
        // resolve to B::tick even though the file mentions B.
        let src = "struct A;\nstruct B;\n\
                   impl A {\n    fn run_it(&self) { self.tick(); }\n    fn tick(&self) {}\n}\n\
                   impl B {\n    fn tick(&self) {}\n}";
        let (_, g) = ws(&[("crates/x/src/a.rs", src)]);
        assert!(has_edge(&g, "A::run_it", "A::tick"));
        assert!(!has_edge(&g, "A::run_it", "B::tick"));
    }

    #[test]
    fn unknown_receiver_widens_to_mentioned_impl_types() {
        let a = "pub struct Gadget;\nimpl Gadget {\n    pub fn fire(&self) {}\n}";
        let b = "use crate::Gadget;\nfn go(g: &Gadget) { g.fire(); }";
        let (_, g) = ws(&[("crates/x/src/gadget.rs", a), ("crates/x/src/use_it.rs", b)]);
        assert!(has_edge(&g, "go", "Gadget::fire"));
    }

    #[test]
    fn std_shadowed_method_needs_the_type_named_in_the_caller_file() {
        let a = "pub struct Registry;\nimpl Registry {\n    pub fn push(&mut self, x: u32) { let _ = x; }\n}";
        // This file never names Registry: its `.push(` is a Vec push
        // and must NOT edge into Registry::push…
        let b = "fn fill(out: &mut Vec<u32>) { out.push(1); }";
        // …while this file names the type, so its edge survives.
        let c = "use crate::Registry;\nfn feed(r: &mut Registry) { r.push(2); }";
        let (_, g) = ws(&[
            ("crates/x/src/reg.rs", a),
            ("crates/x/src/vecs.rs", b),
            ("crates/x/src/feed.rs", c),
        ]);
        assert!(!has_edge(&g, "fill", "Registry::push"));
        assert!(has_edge(&g, "feed", "Registry::push"));
    }

    #[test]
    fn type_mentions_in_test_modules_do_not_count() {
        // Two candidate impls of `record`; production code in the
        // calling file names only Sink — Builder appears solely inside
        // its #[cfg(test)] module, which must not widen resolution.
        let a = "pub struct Builder;\nimpl Builder {\n    pub fn record(&mut self) {}\n}\n\
                 pub struct Sink;\nimpl Sink {\n    pub fn record(&mut self) {}\n}";
        let b = "use crate::Sink;\nfn log(s: &mut Sink) { s.record(); }\n\
                 #[cfg(test)]\nmod tests {\n    use crate::Builder;\n    #[test]\n    fn t() { let mut b = Builder; b.record(); }\n}";
        let (_, g) = ws(&[("crates/x/src/b.rs", a), ("crates/x/src/log.rs", b)]);
        assert!(has_edge(&g, "log", "Sink::record"));
        assert!(!has_edge(&g, "log", "Builder::record"));
    }

    #[test]
    fn fn_as_value_weak_edges_cover_kernels_and_static_tables() {
        let src = "fn kernel(x: &f64) -> f64 { *x }\n\
                   fn fan(xs: &[f64]) { par::par_map(xs, kernel); }\n\
                   struct K { f: fn(&f64) -> f64 }\n\
                   static TABLE: K = K { f: kernel_entry };\n\
                   fn kernel_entry(x: &f64) -> f64 { *x }\n\
                   pub fn dispatch() -> &'static K { &TABLE }";
        let (_, g) = ws(&[("crates/x/src/a.rs", src)]);
        // Closure-free fn passed to a par driver.
        assert!(has_edge(&g, "fan", "kernel"));
        // Module-scope dispatch table: the fn naming the static
        // inherits edges to the fns its initializer captures.
        assert!(has_edge(&g, "dispatch", "kernel_entry"));
    }

    // ---- D12 --------------------------------------------------------

    #[test]
    fn d12_taints_a_solver_entry_through_the_call_chain() {
        let src = "pub fn solve() { step(); }\n\
                   fn step() { tick(); }\n\
                   fn tick() { let t = std::time::Instant::now(); drop(t); }";
        let (files, g) = ws(&[("crates/algorithms/src/a.rs", src)]);
        let v = g.d12_determinism_taint(&files);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!((v[0].rule, v[0].line), ("D12", 1));
        assert!(v[0].message.contains("Instant::now"), "{}", v[0].message);
        assert!(
            v[0].message.contains("solve -> step -> tick"),
            "{}",
            v[0].message
        );
    }

    #[test]
    fn d12_sanctioned_wrapper_absorbs_the_source() {
        let clock = "pub fn elapsed_shim() { let t = std::time::Instant::now(); drop(t); }";
        let solver = "pub fn solve() { elapsed_shim(); }";
        let (files, g) = ws(&[
            ("crates/core/src/clock.rs", clock),
            ("crates/algorithms/src/a.rs", solver),
        ]);
        assert!(g.d12_determinism_taint(&files).is_empty());
    }

    #[test]
    fn d12_allow_at_the_source_suppresses_the_taint() {
        let src = "pub fn solve() { tick(); }\n\
                   fn tick() {\n\
                   \x20   // retry backoff jitter, never on the value path. lint: allow(nondet)\n\
                   \x20   let t = std::time::Instant::now();\n\
                   \x20   drop(t);\n\
                   }";
        let (files, g) = ws(&[("crates/algorithms/src/a.rs", src)]);
        assert!(g.d12_determinism_taint(&files).is_empty());
    }

    #[test]
    fn d12_allow_at_the_root_does_not_suppress_transit() {
        // The allow sits on the entry point, but the taint is
        // *introduced* in tick — suppression must not travel.
        let src = "// entry point is audited elsewhere. lint: allow(nondet)\n\
                   pub fn solve() { tick(); }\n\
                   fn tick() { let t = std::time::Instant::now(); drop(t); }";
        let (files, g) = ws(&[("crates/algorithms/src/a.rs", src)]);
        let v = g.d12_determinism_taint(&files);
        assert_eq!(v.len(), 1, "allow at root must not absorb transit: {v:?}");
        assert_eq!(v[0].rule, "D12");
    }

    #[test]
    fn d12_roots_are_scoped_by_name_and_crate() {
        let tick = "fn tick() { let t = std::time::Instant::now(); drop(t); }";
        // A non-entry name in a solver crate: no root, no violation.
        let cold = format!("pub fn frobnicate() {{ tick(); }}\n{tick}");
        let (files, g) = ws(&[("crates/algorithms/src/a.rs", cold.as_str())]);
        assert!(g.d12_determinism_taint(&files).is_empty());
        // Any pub fn in the experiments crate is a root.
        let hot = format!("pub fn summarize() {{ tick(); }}\n{tick}");
        let (files, g) = ws(&[("crates/experiments/src/lib.rs", hot.as_str())]);
        let v = g.d12_determinism_taint(&files);
        assert_eq!(v.len(), 1, "{v:?}");
    }

    #[test]
    fn d12_sees_env_and_rand_sources() {
        let src = "pub fn solve() { cfg(); seed(); }\n\
                   fn cfg() { let v = std::env::var(\"X\"); drop(v); }\n\
                   fn seed() { let r = rand::random::<u64>(); drop(r); }";
        let (files, g) = ws(&[("crates/algorithms/src/a.rs", src)]);
        let v = g.d12_determinism_taint(&files);
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().any(|x| x.message.contains("std::env::var")));
        assert!(v.iter().any(|x| x.message.contains("rand::")));
    }

    // ---- D13 --------------------------------------------------------

    #[test]
    fn d13_flags_allocations_in_hot_callees() {
        let src = "#[muaa::hot]\nfn kernel(out: &mut Vec<f64>) { helper(out); }\n\
                   fn helper(out: &mut Vec<f64>) { out.push(1.0); }";
        let (files, g) = ws(&[("crates/core/src/a.rs", src)]);
        let v = g.d13_hot_alloc(&files);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!((v[0].rule, v[0].line), ("D13", 3));
        assert!(v[0].message.contains("kernel"), "{}", v[0].message);
    }

    #[test]
    fn d13_reports_hot_bodies_once_and_leaves_sanctioned_files_alone() {
        // A hot fn is its own root: the allocation in `kernel2` is found
        // from both hot fns but reported once.
        let hot_chain = "#[muaa::hot]\nfn kernel() { kernel2(); }\n\
                        #[muaa::hot]\nfn kernel2(out: &mut Vec<f64>) { out.push(1.0); }";
        let (files, g) = ws(&[("crates/core/src/a.rs", hot_chain)]);
        let v = g.d13_hot_alloc(&files);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!((v[0].rule, v[0].line), ("D13", 4));
        // The par drivers allocate their scaffolding by design.
        let via_par = "#[muaa::hot]\nfn kernel() { scaffold(); }";
        let par = "pub fn scaffold() { let v = Vec::new(); drop(v); }";
        let (files, g) = ws(&[
            ("crates/core/src/a.rs", via_par),
            ("crates/core/src/par.rs", par),
        ]);
        assert!(g.d13_hot_alloc(&files).is_empty());
    }

    #[test]
    fn d13_roots_at_calls_inside_alloc_guard_regions_only() {
        let src = "fn stage() {\n\
                   \x20   pre();\n\
                   \x20   {\n\
                   \x20       let _g = AllocGuard::strict(\"stage\");\n\
                   \x20       post();\n\
                   \x20   }\n\
                   }\n\
                   fn pre() { let v = Vec::new(); drop(v); }\n\
                   fn post() { let v = Vec::new(); drop(v); }";
        let (files, g) = ws(&[("crates/core/src/a.rs", src)]);
        let v = g.d13_hot_alloc(&files);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("`post`"), "{}", v[0].message);
        assert!(
            v[0].message.contains("AllocGuard region"),
            "{}",
            v[0].message
        );
    }

    #[test]
    fn d13_allow_at_the_allocation_site_waives_it() {
        let src = "#[muaa::hot]\nfn kernel(out: &mut Vec<f64>) { helper(out); }\n\
                   fn helper(out: &mut Vec<f64>) {\n\
                   \x20   // warm-up growth pinned by the counting guard. lint: allow(hot_alloc)\n\
                   \x20   out.push(1.0);\n\
                   }";
        let (files, g) = ws(&[("crates/core/src/a.rs", src)]);
        assert!(g.d13_hot_alloc(&files).is_empty());
    }
}
