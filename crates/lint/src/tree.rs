//! Item-level view over the token stream (DESIGN.md §14): matched
//! delimiters, and `fn` items with their outer attributes and enclosing
//! `impl` type.
//!
//! The token rule (D1) gets away with a peephole token scan; the
//! semantic rules need to answer *"which function am I in, and how
//! is it annotated?"*. This module answers that without a full parser:
//! one brace-matching pass plus one forward scan that tracks attribute
//! runs and an `impl` scope stack. It is deliberately tolerant — on
//! malformed input it degrades to "no items found", never panics — so
//! the linter stays usable mid-edit.

use crate::lexer::{Token, TokenKind};
use crate::rules::FileAnalysis;

/// One `fn` item (free or associated), with the facts the rules need.
#[derive(Debug)]
pub struct FnItem {
    /// The function's name.
    pub name: String,
    /// Self type of the innermost enclosing `impl` block, if any. For
    /// `impl Trait for Type` this is `Type`.
    pub self_type: Option<String>,
    /// Carries `muaa::hot` in any outer attribute — including the
    /// `#[cfg_attr(any(), muaa::hot)]` spelling the workspace uses so
    /// the marker compiles away on stable.
    pub is_hot: bool,
    /// Declared `pub` (any visibility restriction counts: `pub(crate)`
    /// etc.) — the call-graph layer's notion of an entry point.
    pub is_pub: bool,
    /// Line/column of the `fn` keyword.
    pub line: u32,
    pub col: u32,
    /// Code-token indices of the body's `{` and `}` (absent for trait
    /// method declarations).
    pub body: Option<(usize, usize)>,
}

/// The per-file item view consumed by the rules and the call graph.
#[derive(Debug, Default)]
pub struct ItemTree {
    /// Every `fn` item in the file, in source order (nested fns too).
    pub fns: Vec<FnItem>,
}

/// Modifier tokens that may sit between an attribute run and the item
/// keyword without "consuming" the attributes.
fn is_item_modifier(t: &Token) -> bool {
    matches!(t.kind, TokenKind::Str)
        || t.is_punct('(')
        || t.is_punct(')')
        || matches!(
            t.text.as_str(),
            "pub"
                | "crate"
                | "in"
                | "super"
                | "self"
                | "const"
                | "unsafe"
                | "extern"
                | "async"
                | "default"
        ) && t.kind == TokenKind::Ident
}

/// Does this attribute token list mention `muaa::hot`?
fn attr_is_hot(attr: &[Token]) -> bool {
    attr.windows(4).any(|w| {
        w[0].is_ident("muaa") && w[1].is_punct(':') && w[2].is_punct(':') && w[3].is_ident("hot")
    })
}

/// Build the item view for one analysed file.
pub fn build(fa: &FileAnalysis) -> ItemTree {
    let n = fa.code_len();
    // Pass 1: brace partners. Unbalanced braces leave usize::MAX, which
    // every consumer treats as "span unknown".
    let mut partner = vec![usize::MAX; n];
    let mut stack: Vec<usize> = Vec::new();
    for ci in 0..n {
        if fa.tok(ci).is_punct('{') {
            stack.push(ci);
        } else if fa.tok(ci).is_punct('}') {
            if let Some(open) = stack.pop() {
                partner[open] = ci;
                partner[ci] = open;
            }
        }
    }

    // Pass 2: items. `pending` accumulates the outer-attribute run in
    // front of the next item; `impl_stack` tracks enclosing impl blocks
    // by the code index of their closing brace.
    let mut tree = ItemTree::default();
    let mut pending: Vec<Vec<Token>> = Vec::new();
    let mut impl_stack: Vec<(usize, Option<String>)> = Vec::new();
    let mut ci = 0;
    while ci < n {
        while impl_stack.last().is_some_and(|&(close, _)| close < ci) {
            impl_stack.pop();
        }
        let t = fa.tok(ci);
        if t.is_punct('#') {
            let mut j = ci + 1;
            let inner = j < n && fa.tok(j).is_punct('!');
            if inner {
                j += 1;
            }
            if j < n && fa.tok(j).is_punct('[') {
                if let Some((attr, end)) = fa.collect_attr(j) {
                    // Inner attrs (`#![…]`) belong to the enclosing
                    // scope, not the next item — drop them.
                    if !inner {
                        pending.push(attr);
                    }
                    ci = end + 1;
                    continue;
                }
            }
            ci += 1;
            continue;
        }
        if t.is_ident("impl") {
            let (self_type, body_open) = parse_impl_header(fa, ci, n);
            pending.clear();
            if let Some(open) = body_open {
                let close = if partner[open] != usize::MAX {
                    partner[open]
                } else {
                    n
                };
                impl_stack.push((close, self_type));
                ci = open + 1;
            } else {
                ci += 1;
            }
            continue;
        }
        if t.is_ident("fn") && ci + 1 < n && fa.tok(ci + 1).kind == TokenKind::Ident {
            let name = fa.tok(ci + 1).text.clone();
            let body_open = find_body_open(fa, ci + 2, n);
            let body =
                body_open.and_then(|o| (partner[o] != usize::MAX).then_some((o, partner[o])));
            // Walk back over the modifier run (`pub(crate) const unsafe
            // extern "C" …`) to see whether this fn is `pub`.
            let mut is_pub = false;
            let mut back = ci;
            while back > 0 && is_item_modifier(fa.tok(back - 1)) {
                back -= 1;
                if fa.tok(back).is_ident("pub") {
                    is_pub = true;
                }
            }
            tree.fns.push(FnItem {
                name,
                self_type: impl_stack.last().and_then(|(_, ty)| ty.clone()),
                is_hot: pending.iter().any(|a| attr_is_hot(a)),
                is_pub,
                line: t.line,
                col: t.col,
                body,
            });
            pending.clear();
            // Keep scanning *inside* the signature and body so nested
            // items are seen too.
            ci += 2;
            continue;
        }
        if !pending.is_empty() && !is_item_modifier(t) {
            // Some other item (mod/struct/use/static/…) owns the
            // attribute run.
            pending.clear();
            // Do not advance: `mod m { … }` bodies still get scanned.
            if t.is_ident("mod") || t.is_ident("trait") {
                ci += 1;
                continue;
            }
        }
        ci += 1;
    }
    tree
}

/// From the code index of `impl`, return the self-type name and the
/// code index of the body's `{`.
fn parse_impl_header(fa: &FileAnalysis, ci: usize, n: usize) -> (Option<String>, Option<usize>) {
    let mut j = ci + 1;
    if j < n && fa.tok(j).is_punct('<') {
        j = skip_angles(fa, j, n);
    }
    let mut candidate: Option<String> = None;
    while j < n {
        let t = fa.tok(j);
        if t.is_punct('{') {
            return (candidate, Some(j));
        }
        if t.is_punct(';') {
            return (candidate, None);
        }
        if t.is_ident("where") {
            // The where clause runs to the body `{` with no braces of
            // its own.
            j += 1;
            continue;
        }
        if t.is_ident("for") {
            candidate = None;
        } else if t.kind == TokenKind::Ident && !t.is_ident("dyn") {
            candidate = Some(t.text.clone());
        } else if t.is_punct('<') {
            j = skip_angles(fa, j, n);
            continue;
        }
        j += 1;
    }
    (candidate, None)
}

/// Skip a balanced `<…>` run starting at `open`; returns the index
/// after the closing `>`. The `>` of an `->` does not close anything.
fn skip_angles(fa: &FileAnalysis, open: usize, n: usize) -> usize {
    let mut depth = 0i32;
    let mut j = open;
    while j < n {
        let t = fa.tok(j);
        if t.is_punct('<') {
            depth += 1;
        } else if t.is_punct('>') && !(j > 0 && fa.tok(j - 1).is_punct('-')) {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    n
}

/// Find a `fn` body's opening `{`: the first brace at paren/bracket
/// depth 0 after the signature; `None` on a `;` (declaration only).
fn find_body_open(fa: &FileAnalysis, from: usize, n: usize) -> Option<usize> {
    let mut depth = 0i32;
    let mut j = from;
    while j < n {
        let t = fa.tok(j);
        match t.kind {
            TokenKind::Punct('(') | TokenKind::Punct('[') => depth += 1,
            TokenKind::Punct(')') | TokenKind::Punct(']') => depth -= 1,
            TokenKind::Punct('{') if depth <= 0 => return Some(j),
            TokenKind::Punct(';') if depth <= 0 => return None,
            _ => {}
        }
        j += 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree_of(src: &str) -> ItemTree {
        build(&FileAnalysis::new("crates/x/src/a.rs", src))
    }

    #[test]
    fn finds_free_and_associated_fns_with_impl_types() {
        // The attribute run on `mod m` must not swallow its body.
        let src = "fn free() {}\n\
                   struct S;\n\
                   impl S { pub fn method(&self) -> u32 { 1 } }\n\
                   impl std::fmt::Debug for S {\n    fn fmt(&self) {}\n}\n\
                   #[cfg(unix)]\nmod m {\n    pub fn nested() {}\n}";
        let t = tree_of(src);
        let names: Vec<(&str, Option<&str>)> = t
            .fns
            .iter()
            .map(|f| (f.name.as_str(), f.self_type.as_deref()))
            .collect();
        assert_eq!(
            names,
            vec![
                ("free", None),
                ("method", Some("S")),
                ("fmt", Some("S")),
                ("nested", None)
            ]
        );
    }

    #[test]
    fn generic_impls_resolve_to_the_base_type_name() {
        let src = "impl<T: Copy + Ord> CsrDir<T> {\n    fn rows(&self) -> usize { 0 }\n}\n\
                   impl<'a> Iterator for Walk<'a> {\n    fn next(&mut self) -> Option<u32> { None }\n}";
        let t = tree_of(src);
        assert_eq!(t.fns[0].self_type.as_deref(), Some("CsrDir"));
        assert_eq!(t.fns[1].self_type.as_deref(), Some("Walk"));
    }

    #[test]
    fn hot_attribute_is_detected_in_both_spellings() {
        let src = "#[muaa::hot]\nfn direct() {}\n\
                   #[cfg_attr(any(), muaa::hot)]\nfn gated() {}\n\
                   #[inline]\nfn cold() {}";
        let t = tree_of(src);
        let hot: Vec<&str> = t
            .fns
            .iter()
            .filter(|f| f.is_hot)
            .map(|f| f.name.as_str())
            .collect();
        assert_eq!(hot, vec!["direct", "gated"]);
    }

    #[test]
    fn modifiers_between_attr_and_fn_keep_the_attribute() {
        let src = "#[muaa::hot]\npub(crate) const unsafe fn f() {}";
        let t = tree_of(src);
        assert!(t.fns[0].is_hot);
        assert!(t.fns[0].is_pub);
    }

    #[test]
    fn visibility_is_per_fn() {
        let src = "pub fn a() {}\nfn b() {}\npub(super) fn c() {}";
        let t = tree_of(src);
        let vis: Vec<bool> = t.fns.iter().map(|f| f.is_pub).collect();
        assert_eq!(vis, vec![true, false, true]);
    }

    #[test]
    fn body_spans_cover_multi_line_fns() {
        let src = "fn f() {\n    let x = 1;\n    x\n}\nfn g();";
        let fa = FileAnalysis::new("crates/x/src/a.rs", src);
        let t = build(&fa);
        let (open, close) = t.fns[0].body.expect("f has a body");
        assert_eq!((fa.tok(open).line, fa.tok(close).line), (1, 4));
        assert_eq!(t.fns[1].body, None);
    }

    #[test]
    fn fn_pointer_types_are_not_items() {
        let src = "fn takes(cb: fn(u32) -> u32) -> u32 { cb(1) }";
        let t = tree_of(src);
        assert_eq!(t.fns.len(), 1);
        assert_eq!(t.fns[0].name, "takes");
    }
}
