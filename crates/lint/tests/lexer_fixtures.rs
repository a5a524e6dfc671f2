//! Regression fixtures for lexer edge cases that once desynchronized
//! the token stream. Each case pins the exact token shape so a future
//! lexer refactor cannot silently regress rule accuracy: a desynced
//! lexer makes every downstream rule report phantom idents or
//! miss real ones.

use muaa_lint::lexer::{lex, TokenKind};

/// Nested block comments must close at the matching depth, not at the
/// first `*/`. A naive scanner would resume lexing inside the comment
/// and surface `unsafe` as a code ident here.
#[test]
fn nested_block_comments_close_at_matching_depth() {
    let src = "/* outer /* inner unsafe */ still comment */ fn ok() {}";
    let toks = lex(src);
    let comments: Vec<_> = toks.iter().filter(|t| t.is_comment()).collect();
    assert_eq!(comments.len(), 1, "one comment token: {toks:?}");
    assert!(comments[0].text.contains("inner unsafe"));
    assert!(comments[0].text.contains("still comment"));
    assert!(
        !toks.iter().any(|t| t.is_ident("unsafe")),
        "unsafe stayed inside the comment"
    );
    assert!(toks.iter().any(|t| t.is_ident("fn")));
    assert!(toks.iter().any(|t| t.is_ident("ok")));
}

/// Multi-hash raw strings terminate only at a quote followed by the
/// same number of hashes. `"#` inside `r##"…"##` is content, not a
/// terminator.
#[test]
fn multi_hash_raw_strings_swallow_inner_terminators() {
    let src = r####"let s = r##"has "# inside and a " quote"## ; let t = r#"x"# ;"####;
    let toks = lex(src);
    let strs: Vec<_> = toks.iter().filter(|t| t.kind == TokenKind::Str).collect();
    assert_eq!(strs.len(), 2, "two raw strings: {toks:?}");
    assert!(strs[0].text.contains("has \"# inside"));
    assert_eq!(strs[1].text, r##"r#"x"#"##);
    assert!(
        !toks.iter().any(|t| t.is_ident("inside")),
        "raw content never leaks as idents"
    );
}

/// Raw C-strings (`cr"…"`, `cr#"…"#`) are single string tokens; a
/// lexer that only knows `c"…"` and `r"…"` would strand the `r` and
/// then lex the string body as code.
#[test]
fn raw_c_strings_lex_as_single_tokens() {
    let src = r##"let a = cr"unsafe body" ; let b = cr#"quoted "mid" part"# ;"##;
    let toks = lex(src);
    let strs: Vec<_> = toks.iter().filter(|t| t.kind == TokenKind::Str).collect();
    assert_eq!(strs.len(), 2, "two cr-strings: {toks:?}");
    assert!(strs[1].text.contains("\"mid\""));
    assert!(!toks
        .iter()
        .any(|t| t.is_ident("unsafe") || t.is_ident("quoted")));
    // `crate` must still lex as a plain ident — the cr-prefix check
    // cannot eat identifiers that merely start with `cr`.
    let toks2 = lex("crate::x; let cry = 1;");
    assert!(toks2.iter().any(|t| t.is_ident("crate")));
    assert!(toks2.iter().any(|t| t.is_ident("cry")));
}

/// Line/column bookkeeping survives multi-line comments and strings —
/// rule diagnostics point at real coordinates after an edge case, and
/// allow-annotation adjacency depends on exact line numbers.
#[test]
fn positions_stay_exact_after_multiline_tokens() {
    let src = "/* a\nb */ x\nr#\"l1\nl2\"# y";
    let toks = lex(src);
    let x = toks.iter().find(|t| t.is_ident("x")).expect("x lexed");
    assert_eq!((x.line, x.col), (2, 6));
    let y = toks.iter().find(|t| t.is_ident("y")).expect("y lexed");
    assert_eq!((y.line, y.col), (4, 6));
}
