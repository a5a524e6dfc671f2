//! Per-function control-flow graphs and a forward dataflow framework
//! (DESIGN.md §19).
//!
//! The token rule (D1) and the call-graph rules (D12, D13) reason
//! about *which* constructs appear in a body, never about the *order
//! they execute in*. The typestate rules (D15, D16) need exactly that
//! order: a guard binding matters only
//! relative to the statements it outlives, an epoch bump only
//! relative to the mutations it dominates. This module lowers one
//! function body — the `(open, close)` code-token span recorded by
//! [`crate::tree`] — into basic blocks of [`Stmt`] spans connected by
//! typed edges, and runs gen/kill-style forward analyses over it.
//!
//! The lowering is structural and tolerant, built on the same
//! hand-rolled lexer as everything else (no syn, no dependencies):
//!
//! * `if`/`else if`/`else` chains branch from the condition block and
//!   re-join in a fresh after-block; a missing `else` contributes the
//!   condition-false edge directly.
//! * `match` branches from the scrutinee block into one block per
//!   arm (pattern + guard tokens become the arm's first statement, so
//!   a guard's `?` keeps its error edge) and re-joins after.
//! * `loop`/`while`/`for` get a dedicated head block, a `Back` edge
//!   from the body end, and — for the conditional forms — a zero-
//!   iteration `Branch` to the after-block. A label stack resolves
//!   `break 'label` / `continue 'label` to the right loop; labeled
//!   blocks participate so `break 'a` out of `'a: { … }` lands after
//!   the block.
//! * `return` and `break`/`continue` divert control and leave the
//!   remainder of their block lowering into a fresh, unreachable
//!   block ([`Cfg::reachable`] lets clients skip those).
//! * A `?` anywhere in a statement adds an `Err` edge to the exit
//!   block. This over-approximates (a `?` inside a closure literal is
//!   the closure's edge, not the enclosing fn's), which is the safe
//!   direction for every current rule: it can only add error paths.
//!
//! Everything here is intra-procedural; call-graph context stays in
//! [`crate::callgraph`].

use crate::lexer::TokenKind;
use crate::rules::FileAnalysis;

/// One statement: an inclusive `[lo, hi]` span of code-token indices.
#[derive(Debug, Clone, Copy)]
pub struct Stmt {
    /// First code-token index.
    pub lo: usize,
    /// Last code-token index (inclusive).
    pub hi: usize,
    /// Source position of the first token.
    pub line: u32,
    pub col: u32,
    /// The span contains a `?`: the statement carries an implicit
    /// error edge to the exit block.
    pub has_try: bool,
}

/// Why control moves from one block to another.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeKind {
    /// Straight-line fall-through / join.
    Seq,
    /// One side of an `if`/`match`/loop-condition decision.
    Branch,
    /// Loop back edge (body end → head).
    Back,
    /// `break` to its loop's after-block.
    Break,
    /// `continue` to its loop's head.
    Continue,
    /// Early `return` to the exit block.
    Return,
    /// `?` propagation to the exit block.
    Err,
}

/// A per-function control-flow graph. Block 0 is the entry, block 1
/// the synthetic exit; every `return`/`?` edge targets the exit.
#[derive(Debug)]
pub struct Cfg {
    /// Statements per block, in execution order.
    pub blocks: Vec<Vec<Stmt>>,
    /// `(from, to, kind)` edges, in construction order.
    pub edges: Vec<(usize, usize, EdgeKind)>,
    /// Entry block id (always 0).
    pub entry: usize,
    /// Exit block id (always 1).
    pub exit: usize,
}

impl Cfg {
    /// Blocks reachable from the entry along any edge.
    pub fn reachable(&self) -> Vec<bool> {
        self.reachable_from(self.entry)
    }

    /// Blocks reachable from `start` along any edge (including
    /// `start` itself).
    pub fn reachable_from(&self, start: usize) -> Vec<bool> {
        let mut seen = vec![false; self.blocks.len()];
        let mut work = vec![start];
        seen[start] = true;
        while let Some(b) = work.pop() {
            for &(from, to, _) in &self.edges {
                if from == b && !seen[to] {
                    seen[to] = true;
                    work.push(to);
                }
            }
        }
        seen
    }

    /// Predecessor lists, one per block.
    pub fn preds(&self) -> Vec<Vec<usize>> {
        let mut preds = vec![Vec::new(); self.blocks.len()];
        for &(from, to, _) in &self.edges {
            preds[to].push(from);
        }
        preds
    }
}

/// Run a forward dataflow analysis to fixpoint and return each
/// block's *entry* state.
///
/// `bottom` must be the identity of `meet` (the state of a block no
/// path reaches); `entry_state` seeds the entry block. `transfer`
/// maps a block's entry state to its exit state and is free to
/// consult `cfg.blocks[b]` statement by statement. With a monotone
/// transfer over a finite-height lattice the loop converges; the
/// iteration bound makes termination unconditional even for a
/// transfer that breaks the contract.
pub fn forward<S, M, T>(cfg: &Cfg, entry_state: &S, bottom: &S, meet: M, transfer: T) -> Vec<S>
where
    S: Clone + PartialEq,
    M: Fn(&S, &S) -> S,
    T: Fn(&S, usize) -> S,
{
    let n = cfg.blocks.len();
    let preds = cfg.preds();
    let mut input: Vec<S> = vec![bottom.clone(); n];
    input[cfg.entry] = entry_state.clone();
    let mut output: Vec<S> = (0..n).map(|b| transfer(&input[b], b)).collect();
    // Height of the {seen-k-bumps} lattices is tiny; 4n+8 rounds is
    // a generous bound for any monotone client.
    for _ in 0..4 * n + 8 {
        let mut changed = false;
        for b in 0..n {
            let mut state = if b == cfg.entry {
                entry_state.clone()
            } else {
                bottom.clone()
            };
            for &p in &preds[b] {
                state = meet(&state, &output[p]);
            }
            if state != input[b] {
                output[b] = transfer(&state, b);
                input[b] = state;
                changed = true;
            }
        }
        if !changed {
            return input;
        }
    }
    input
}

/// Build the CFG for the body span `(open, close)` — code-token
/// indices of the body's `{` and `}` as recorded in
/// [`crate::tree::FnItem::body`].
pub fn build_fn(fa: &FileAnalysis, body: (usize, usize)) -> Cfg {
    let (open, close) = body;
    let mut b = Builder {
        fa,
        partner: bracket_partners(fa),
        blocks: vec![Vec::new(), Vec::new()],
        edges: Vec::new(),
        loops: Vec::new(),
    };
    let close = close.min(fa.code_len());
    let last = b.lower(open + 1, close, 0);
    b.edges.push((last, 1, EdgeKind::Seq));
    Cfg {
        blocks: b.blocks,
        edges: b.edges,
        entry: 0,
        exit: 1,
    }
}

/// Partner indices for `(`/`[`/`{` over the whole code stream;
/// `usize::MAX` where unmatched. Both directions are filled in.
/// Shared with the typestate rules, which need lexical scope extents
/// alongside the CFG.
pub(crate) fn bracket_partners(fa: &FileAnalysis) -> Vec<usize> {
    let mut partner = vec![usize::MAX; fa.code_len()];
    let mut paren = Vec::new();
    let mut bracket = Vec::new();
    let mut brace = Vec::new();
    for ci in 0..fa.code_len() {
        let stack = match fa.tok(ci).kind {
            TokenKind::Punct('(') | TokenKind::Punct(')') => &mut paren,
            TokenKind::Punct('[') | TokenKind::Punct(']') => &mut bracket,
            TokenKind::Punct('{') | TokenKind::Punct('}') => &mut brace,
            _ => continue,
        };
        if matches!(fa.tok(ci).kind, TokenKind::Punct('(' | '[' | '{')) {
            stack.push(ci);
        } else if let Some(o) = stack.pop() {
            partner[o] = ci;
            partner[ci] = o;
        }
    }
    partner
}

/// An enclosing loop (or labeled block) the lowering is inside of.
struct LoopCtx {
    /// Label with its leading `'`, when present.
    label: Option<String>,
    /// `continue` target; for labeled blocks this equals `after`.
    head: usize,
    /// `break` target.
    after: usize,
}

struct Builder<'a> {
    fa: &'a FileAnalysis,
    partner: Vec<usize>,
    blocks: Vec<Vec<Stmt>>,
    edges: Vec<(usize, usize, EdgeKind)>,
    loops: Vec<LoopCtx>,
}

impl Builder<'_> {
    fn new_block(&mut self) -> usize {
        self.blocks.push(Vec::new());
        self.blocks.len() - 1
    }

    fn edge(&mut self, from: usize, to: usize, kind: EdgeKind) {
        self.edges.push((from, to, kind));
    }

    /// Append the statement `[lo, hi]` to block `b`, wiring the `?`
    /// error edge when the span contains one.
    fn push_stmt(&mut self, b: usize, lo: usize, hi: usize) {
        if lo > hi || lo >= self.fa.code_len() {
            return;
        }
        let hi = hi.min(self.fa.code_len() - 1);
        let has_try = (lo..=hi).any(|ci| self.fa.tok(ci).is_punct('?'));
        let t = self.fa.tok(lo);
        self.blocks[b].push(Stmt {
            lo,
            hi,
            line: t.line,
            col: t.col,
            has_try,
        });
        if has_try {
            self.edge(b, 1, EdgeKind::Err);
        }
    }

    /// Matching close bracket for `open`, clamped into `(open, hi]`.
    fn close_of(&self, open: usize, hi: usize) -> usize {
        let p = self.partner.get(open).copied().unwrap_or(usize::MAX);
        if p == usize::MAX || p <= open || p > hi {
            hi
        } else {
            p
        }
    }

    /// First `{` at paren/bracket depth 0 in `[from, hi)` — the body
    /// opener after an `if`/`while`/`for`/`match` header.
    fn find_open_brace(&self, from: usize, hi: usize) -> Option<usize> {
        let mut depth = 0i32;
        for ci in from..hi {
            match self.fa.tok(ci).kind {
                TokenKind::Punct('(' | '[') => depth += 1,
                TokenKind::Punct(')' | ']') => depth -= 1,
                TokenKind::Punct('{') if depth <= 0 => return Some(ci),
                _ => {}
            }
        }
        None
    }

    /// End (inclusive) of a simple statement starting at `from`: the
    /// first `;` at bracket depth 0, or `hi - 1` for a tail
    /// expression. Returns `(end, next)`.
    fn simple_stmt_end(&self, from: usize, hi: usize) -> (usize, usize) {
        let mut depth = 0i32;
        for ci in from..hi {
            match self.fa.tok(ci).kind {
                TokenKind::Punct('(' | '[' | '{') => depth += 1,
                TokenKind::Punct(')' | ']' | '}') => depth -= 1,
                TokenKind::Punct(';') if depth <= 0 => return (ci, ci + 1),
                _ => {}
            }
        }
        (hi - 1, hi)
    }

    /// Lower the token range `[lo, hi)` (a `{ … }` interior) starting
    /// in block `cur`; returns the block holding the fall-through end
    /// of the range (possibly unreachable after a diversion).
    fn lower(&mut self, lo: usize, hi: usize, cur: usize) -> usize {
        let mut cur = cur;
        let mut i = lo;
        while i < hi {
            if self.fa.tok(i).is_punct(';') {
                i += 1;
                continue;
            }
            // Statement attribute: skip `#[…]` without emitting.
            if self.fa.tok(i).is_punct('#') && i + 1 < hi && self.fa.tok(i + 1).is_punct('[') {
                i = self.close_of(i + 1, hi) + 1;
                continue;
            }
            // Label in front of a loop or block.
            let (label, j) = if self.fa.tok(i).kind == TokenKind::Lifetime
                && i + 1 < hi
                && self.fa.tok(i + 1).is_punct(':')
            {
                (Some(self.fa.tok(i).text.clone()), i + 2)
            } else {
                (None, i)
            };
            if j < hi {
                let kw = &self.fa.tok(j).text;
                if self.fa.tok(j).kind == TokenKind::Ident
                    && matches!(kw.as_str(), "loop" | "while" | "for")
                {
                    let (after, next) = self.lower_loop(j, hi, cur, label);
                    cur = after;
                    i = next;
                    continue;
                }
                if label.is_some() && self.fa.tok(j).is_punct('{') {
                    // Labeled block: `break 'label` exits it.
                    let close = self.close_of(j, hi);
                    let after = self.new_block();
                    self.loops.push(LoopCtx {
                        label,
                        head: after,
                        after,
                    });
                    let inner = self.lower(j + 1, close, cur);
                    self.loops.pop();
                    self.edge(inner, after, EdgeKind::Seq);
                    cur = after;
                    i = close + 1;
                    continue;
                }
            }
            if self.fa.tok(i).is_ident("if") {
                let (after, next) = self.lower_if(i, hi, cur);
                cur = after;
                i = next;
                continue;
            }
            if self.fa.tok(i).is_ident("match") {
                let (after, next) = self.lower_match(i, hi, cur);
                cur = after;
                i = next;
                continue;
            }
            if self.fa.tok(i).is_ident("return") {
                let (end, next) = self.simple_stmt_end(i, hi);
                self.push_stmt(cur, i, end);
                self.edge(cur, 1, EdgeKind::Return);
                cur = self.new_block();
                i = next;
                continue;
            }
            if self.fa.tok(i).is_ident("break") || self.fa.tok(i).is_ident("continue") {
                let is_break = self.fa.tok(i).is_ident("break");
                let label = (i + 1 < hi && self.fa.tok(i + 1).kind == TokenKind::Lifetime)
                    .then(|| self.fa.tok(i + 1).text.clone());
                let (end, next) = self.simple_stmt_end(i, hi);
                self.push_stmt(cur, i, end);
                let target = self
                    .loops
                    .iter()
                    .rev()
                    .find(|c| match &label {
                        Some(l) => c.label.as_deref() == Some(l.as_str()),
                        None => true,
                    })
                    .map(|c| if is_break { c.after } else { c.head })
                    // No enclosing loop in this body (malformed or a
                    // label we lost): divert to the exit.
                    .unwrap_or(1);
                self.edge(
                    cur,
                    target,
                    if is_break {
                        EdgeKind::Break
                    } else {
                        EdgeKind::Continue
                    },
                );
                cur = self.new_block();
                i = next;
                continue;
            }
            // Bare or `unsafe` inner scope: lower transparently.
            if self.fa.tok(i).is_punct('{') {
                let close = self.close_of(i, hi);
                cur = self.lower(i + 1, close, cur);
                i = close + 1;
                continue;
            }
            if self.fa.tok(i).is_ident("unsafe") && i + 1 < hi && self.fa.tok(i + 1).is_punct('{') {
                let close = self.close_of(i + 1, hi);
                cur = self.lower(i + 2, close, cur);
                i = close + 1;
                continue;
            }
            let (end, next) = self.simple_stmt_end(i, hi);
            self.push_stmt(cur, i, end);
            i = next;
        }
        cur
    }

    /// Lower an `if` chain starting at `i` (the `if` token); returns
    /// `(after_block, next_token)`.
    fn lower_if(&mut self, i: usize, hi: usize, cur: usize) -> (usize, usize) {
        let Some(open) = self.find_open_brace(i + 1, hi) else {
            // Header never opens a body: treat the rest as a statement.
            self.push_stmt(cur, i, hi.saturating_sub(1));
            return (cur, hi);
        };
        // Condition (including the `if` keyword) evaluates in `cur`.
        self.push_stmt(cur, i, open - 1);
        let close = self.close_of(open, hi);
        let then_b = self.new_block();
        self.edge(cur, then_b, EdgeKind::Branch);
        let then_exit = self.lower(open + 1, close, then_b);
        let after = self.new_block();
        self.edge(then_exit, after, EdgeKind::Seq);
        let mut next = close + 1;
        if next < hi && self.fa.tok(next).is_ident("else") {
            if next + 1 < hi && self.fa.tok(next + 1).is_ident("if") {
                let else_b = self.new_block();
                self.edge(cur, else_b, EdgeKind::Branch);
                let (sub_after, sub_next) = self.lower_if(next + 1, hi, else_b);
                self.edge(sub_after, after, EdgeKind::Seq);
                next = sub_next;
            } else if next + 1 < hi && self.fa.tok(next + 1).is_punct('{') {
                let eopen = next + 1;
                let eclose = self.close_of(eopen, hi);
                let else_b = self.new_block();
                self.edge(cur, else_b, EdgeKind::Branch);
                let else_exit = self.lower(eopen + 1, eclose, else_b);
                self.edge(else_exit, after, EdgeKind::Seq);
                next = eclose + 1;
            } else {
                self.edge(cur, after, EdgeKind::Branch);
                next += 1;
            }
        } else {
            // No else: the condition-false path.
            self.edge(cur, after, EdgeKind::Branch);
        }
        (after, next)
    }

    /// Lower a `match` starting at `i` (the `match` token); returns
    /// `(after_block, next_token)`.
    fn lower_match(&mut self, i: usize, hi: usize, cur: usize) -> (usize, usize) {
        let Some(open) = self.find_open_brace(i + 1, hi) else {
            self.push_stmt(cur, i, hi.saturating_sub(1));
            return (cur, hi);
        };
        // Scrutinee (including the `match` keyword) evaluates in `cur`.
        self.push_stmt(cur, i, open - 1);
        let close = self.close_of(open, hi);
        let after = self.new_block();
        let mut any_arm = false;
        let mut k = open + 1;
        while k < close {
            if self.fa.tok(k).is_punct(',') {
                k += 1;
                continue;
            }
            // Pattern + guard run to the `=>` at depth 0.
            let pat_lo = k;
            let mut depth = 0i32;
            while k < close {
                match self.fa.tok(k).kind {
                    TokenKind::Punct('(' | '[' | '{') => depth += 1,
                    TokenKind::Punct(')' | ']' | '}') => depth -= 1,
                    TokenKind::Punct('=')
                        if depth <= 0 && k + 1 < close && self.fa.tok(k + 1).is_punct('>') =>
                    {
                        break
                    }
                    _ => {}
                }
                k += 1;
            }
            let arm_b = self.new_block();
            self.edge(cur, arm_b, EdgeKind::Branch);
            any_arm = true;
            if k >= close {
                // Trailing tokens with no arrow: keep them visible.
                self.push_stmt(arm_b, pat_lo, close.saturating_sub(1));
                self.edge(arm_b, after, EdgeKind::Seq);
                break;
            }
            if k > pat_lo {
                // Pattern and guard are the arm's first statement (a
                // guard's `?` keeps its error edge this way).
                self.push_stmt(arm_b, pat_lo, k - 1);
            }
            let body_lo = k + 2;
            let body_hi = if body_lo < close && self.fa.tok(body_lo).is_punct('{') {
                self.close_of(body_lo, close) + 1
            } else {
                // Expression arm: runs to the `,` at depth 0.
                let mut depth = 0i32;
                let mut e = body_lo;
                while e < close {
                    match self.fa.tok(e).kind {
                        TokenKind::Punct('(' | '[' | '{') => depth += 1,
                        TokenKind::Punct(')' | ']' | '}') => depth -= 1,
                        TokenKind::Punct(',') if depth <= 0 => break,
                        _ => {}
                    }
                    e += 1;
                }
                e
            };
            // `lower` handles block arms, `return`/`break` arms and
            // nested structure alike.
            let arm_exit = self.lower(body_lo, body_hi, arm_b);
            self.edge(arm_exit, after, EdgeKind::Seq);
            k = body_hi + 1;
        }
        if !any_arm {
            self.edge(cur, after, EdgeKind::Seq);
        }
        (after, close + 1)
    }

    /// Lower a `loop`/`while`/`for` starting at `j` (the keyword);
    /// returns `(after_block, next_token)`.
    fn lower_loop(
        &mut self,
        j: usize,
        hi: usize,
        cur: usize,
        label: Option<String>,
    ) -> (usize, usize) {
        let is_bare_loop = self.fa.tok(j).is_ident("loop");
        let Some(open) = self.find_open_brace(j + 1, hi) else {
            self.push_stmt(cur, j, hi.saturating_sub(1));
            return (cur, hi);
        };
        let close = self.close_of(open, hi);
        let head = self.new_block();
        self.edge(cur, head, EdgeKind::Seq);
        if open > j + 1 || !is_bare_loop {
            // `while` condition / `for` pattern-and-iterator header.
            self.push_stmt(head, j, open - 1);
        }
        let after = self.new_block();
        if !is_bare_loop {
            // Zero-iteration path.
            self.edge(head, after, EdgeKind::Branch);
        }
        let body_b = self.new_block();
        self.edge(head, body_b, EdgeKind::Branch);
        self.loops.push(LoopCtx { label, head, after });
        let body_exit = self.lower(open + 1, close, body_b);
        self.loops.pop();
        self.edge(body_exit, head, EdgeKind::Back);
        (after, close + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn analyzed(src: &str) -> (FileAnalysis, Cfg) {
        let fa = FileAnalysis::new("crates/core/src/cfg_fixture.rs", src);
        let tree = crate::tree::build(&fa);
        let body = tree
            .fns
            .first()
            .and_then(|f| f.body)
            .expect("fn with a body");
        let cfg = build_fn(&fa, body);
        (fa, cfg)
    }

    fn cfg_of(src: &str) -> Cfg {
        analyzed(src).1
    }

    fn kind_count(cfg: &Cfg, kind: EdgeKind) -> usize {
        cfg.edges.iter().filter(|&&(_, _, k)| k == kind).count()
    }

    #[test]
    fn straight_line_is_one_block() {
        let cfg = cfg_of("fn f() -> u32 {\n    let a = 1;\n    let b = a + 1;\n    a + b\n}\n");
        assert_eq!(cfg.blocks[cfg.entry].len(), 3);
        assert_eq!(cfg.edges, vec![(0, 1, EdgeKind::Seq)]);
        assert_eq!(kind_count(&cfg, EdgeKind::Back), 0);
    }

    #[test]
    fn if_else_forms_a_diamond() {
        let cfg = cfg_of(
            "fn f(c: bool) -> u32 {\n    let mut x = 0;\n    if c {\n        x = 1;\n    } else {\n        x = 2;\n    }\n    x\n}\n",
        );
        // entry(cond) → then, entry → else, both join in after.
        assert_eq!(kind_count(&cfg, EdgeKind::Branch), 2);
        assert_eq!(kind_count(&cfg, EdgeKind::Seq), 3);
        let reach = cfg.reachable();
        assert!(
            reach.iter().all(|&r| r),
            "diamond has no dead blocks: {cfg:?}"
        );
    }

    #[test]
    fn if_without_else_branches_straight_to_after() {
        let cfg = cfg_of("fn f(c: bool) {\n    if c {\n        work();\n    }\n    done();\n}\n");
        // cond → then and cond → after.
        let branch_sources: Vec<usize> = cfg
            .edges
            .iter()
            .filter(|&&(_, _, k)| k == EdgeKind::Branch)
            .map(|&(f, _, _)| f)
            .collect();
        assert_eq!(branch_sources, vec![0, 0]);
    }

    #[test]
    fn while_loop_has_back_edge_and_zero_iteration_exit() {
        let cfg = cfg_of("fn f(n: u32) {\n    let mut i = 0;\n    while i < n {\n        i += 1;\n    }\n    done(i);\n}\n");
        assert_eq!(kind_count(&cfg, EdgeKind::Back), 1);
        // The head both enters the body and skips it.
        let (_, back_to, _) = *cfg
            .edges
            .iter()
            .find(|&&(_, _, k)| k == EdgeKind::Back)
            .expect("back edge");
        let head_branches = cfg
            .edges
            .iter()
            .filter(|&&(f, _, k)| f == back_to && k == EdgeKind::Branch)
            .count();
        assert_eq!(head_branches, 2, "{cfg:?}");
    }

    #[test]
    fn nested_loops_with_labeled_break_target_the_outer_after() {
        let cfg = cfg_of(
            "fn f() {\n    'outer: for i in 0..10 {\n        for j in 0..10 {\n            if i + j == 7 {\n                break 'outer;\n            }\n            if j == 3 {\n                continue 'outer;\n            }\n        }\n    }\n    done();\n}\n",
        );
        assert_eq!(kind_count(&cfg, EdgeKind::Back), 2);
        let backs: Vec<usize> = cfg
            .edges
            .iter()
            .filter(|&&(_, _, k)| k == EdgeKind::Back)
            .map(|&(_, t, _)| t)
            .collect();
        let outer_head = *backs.iter().min().expect("outer head");
        let (_, cont_to, _) = *cfg
            .edges
            .iter()
            .find(|&&(_, _, k)| k == EdgeKind::Continue)
            .expect("labeled continue");
        assert_eq!(
            cont_to, outer_head,
            "continue 'outer must target the outer head"
        );
        // break 'outer targets the outer after-block: the block the
        // outer head's zero-iteration branch also reaches.
        let (_, break_to, _) = *cfg
            .edges
            .iter()
            .find(|&&(_, _, k)| k == EdgeKind::Break)
            .expect("labeled break");
        assert!(
            cfg.edges
                .contains(&(outer_head, break_to, EdgeKind::Branch)),
            "break must land where the outer loop exits: {cfg:?}"
        );
    }

    #[test]
    fn unlabeled_break_targets_the_innermost_loop() {
        let cfg = cfg_of(
            "fn f() {\n    loop {\n        loop {\n            break;\n        }\n        break;\n    }\n}\n",
        );
        assert_eq!(kind_count(&cfg, EdgeKind::Break), 2);
        let mut targets: Vec<usize> = cfg
            .edges
            .iter()
            .filter(|&&(_, _, k)| k == EdgeKind::Break)
            .map(|&(_, t, _)| t)
            .collect();
        targets.dedup();
        assert_eq!(
            targets.len(),
            2,
            "inner and outer break go to different afters"
        );
    }

    #[test]
    fn bare_loop_without_break_leaves_after_unreachable() {
        let cfg = cfg_of("fn f() {\n    loop {\n        tick();\n    }\n}\n");
        let reach = cfg.reachable();
        assert!(
            !reach[cfg.exit],
            "nothing escapes a breakless loop: {cfg:?}"
        );
    }

    #[test]
    fn question_mark_adds_an_err_edge_to_exit() {
        let cfg = cfg_of(
            "fn f() -> Result<(), E> {\n    let v = load()?;\n    store(v)?;\n    Ok(())\n}\n",
        );
        let errs: Vec<(usize, usize)> = cfg
            .edges
            .iter()
            .filter(|&&(_, _, k)| k == EdgeKind::Err)
            .map(|&(f, t, _)| (f, t))
            .collect();
        assert_eq!(errs, vec![(0, 1), (0, 1)]);
        assert!(cfg.blocks[0][0].has_try && cfg.blocks[0][1].has_try);
        assert!(!cfg.blocks[0][2].has_try);
    }

    #[test]
    fn early_return_leaves_the_rest_unreachable() {
        let cfg = cfg_of(
            "fn f(c: bool) -> u32 {\n    if c {\n        return 1;\n    }\n    after();\n    2\n}\n",
        );
        assert_eq!(kind_count(&cfg, EdgeKind::Return), 1);
        let reach = cfg.reachable();
        // The block minted after `return 1;` inside the then-branch
        // has no predecessors.
        let (ret_from, _, _) = *cfg
            .edges
            .iter()
            .find(|&&(_, _, k)| k == EdgeKind::Return)
            .expect("return edge");
        let dead = cfg
            .edges
            .iter()
            .find(|&&(f, _, k)| k == EdgeKind::Seq && f != ret_from && !reach[f])
            .is_some();
        assert!(dead, "the post-return block must be unreachable: {cfg:?}");
    }

    #[test]
    fn match_arms_branch_and_rejoin() {
        let (fa, cfg) = analyzed(
            "fn f(d: Delta) -> u32 {\n    match d {\n        Delta::Add { v } => v,\n        Delta::Remove(id) if id > 0 => 1,\n        _ => 0,\n    }\n}\n",
        );
        // One Branch per arm, all from the scrutinee block.
        let froms: Vec<usize> = cfg
            .edges
            .iter()
            .filter(|&&(_, _, k)| k == EdgeKind::Branch)
            .map(|&(f, _, _)| f)
            .collect();
        assert_eq!(froms, vec![0, 0, 0]);
        // The guarded arm's pattern+guard tokens land as that arm's
        // first statement, not in the scrutinee block.
        let guard_in_arm = cfg.blocks.iter().enumerate().any(|(b, stmts)| {
            b != cfg.entry
                && stmts
                    .first()
                    .is_some_and(|s| (s.lo..=s.hi).any(|ci| fa.tok(ci).is_ident("if")))
        });
        assert!(guard_in_arm, "{cfg:?}");
    }

    #[test]
    fn match_arm_with_return_keeps_other_arms_joining() {
        let cfg = cfg_of(
            "fn f(d: u32) -> u32 {\n    match d {\n        0 => return 7,\n        n => n,\n    }\n}\n",
        );
        assert_eq!(kind_count(&cfg, EdgeKind::Return), 1);
        assert_eq!(kind_count(&cfg, EdgeKind::Branch), 2);
    }

    #[test]
    fn labeled_block_break_exits_the_block() {
        let cfg = cfg_of(
            "fn f(c: bool) {\n    'scope: {\n        if c {\n            break 'scope;\n        }\n        slow();\n    }\n    done();\n}\n",
        );
        assert_eq!(kind_count(&cfg, EdgeKind::Break), 1);
        assert_eq!(
            kind_count(&cfg, EdgeKind::Back),
            0,
            "a labeled block is not a loop"
        );
        assert!(cfg.reachable()[cfg.exit]);
    }

    #[test]
    fn fixpoint_converges_on_a_diamond_with_back_edge() {
        // Loop body splits (if/else) and rejoins, then loops back: the
        // head's entry state must absorb bits from both branch blocks,
        // which takes a second sweep to propagate around the back edge.
        let cfg = cfg_of(
            "fn f(n: u32) {\n    let mut i = 0;\n    while i < n {\n        if i % 2 == 0 {\n            even();\n        } else {\n            odd();\n        }\n        i += 1;\n    }\n    done(i);\n}\n",
        );
        let states = forward(
            &cfg,
            &(1u64 << cfg.entry),
            &0u64,
            |a, b| a | b,
            |s, b| s | (1 << b),
        );
        let (_, head, _) = *cfg
            .edges
            .iter()
            .find(|&&(_, _, k)| k == EdgeKind::Back)
            .expect("back edge");
        let branch_blocks: Vec<usize> = cfg
            .edges
            .iter()
            .filter(|&&(f, _, k)| k == EdgeKind::Branch && f != head)
            .map(|&(_, t, _)| t)
            .collect();
        assert_eq!(
            branch_blocks.len(),
            2,
            "then and else of the inner if: {cfg:?}"
        );
        for b in branch_blocks {
            assert!(
                states[head] & (1 << b) != 0,
                "head entry state must see block {b} through the back edge"
            );
        }
        // And the after-loop block sees everything the head saw.
        let after = cfg
            .edges
            .iter()
            .find(|&&(f, _, k)| f == head && k == EdgeKind::Branch)
            .map(|&(_, t, _)| t)
            .expect("zero-iteration exit");
        assert!(states[after] & (1 << head) != 0);
    }

    #[test]
    fn forward_terminates_even_with_a_hostile_transfer() {
        let cfg = cfg_of("fn f() {\n    loop {\n        tick();\n    }\n}\n");
        // A transfer that never stabilises: the iteration bound stops it.
        let _states = forward(&cfg, &0u64, &0u64, |a, b| a | b, |s, _| s.wrapping_add(1));
    }

    #[test]
    fn statement_attributes_are_skipped() {
        let cfg =
            cfg_of("fn f() {\n    #[cfg(test)]\n    for i in 0..3 {\n        tick(i);\n    }\n}\n");
        assert_eq!(
            kind_count(&cfg, EdgeKind::Back),
            1,
            "the attribute must not swallow the loop"
        );
    }
}
