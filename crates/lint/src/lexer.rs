//! A hand-rolled Rust lexer: line/column-tracked tokens, comment- and
//! string-aware, no `syn`.
//!
//! The rules in [`crate::rules`] only need a faithful *token* view of a
//! source file — identifiers, punctuation, literals and comments with
//! accurate positions — not a parse tree. Keeping the lexer small and
//! dependency-free is what lets the pass run in sealed containers where
//! cargo cannot reach a registry.
//!
//! Fidelity notes (all covered by unit tests):
//!
//! * Line (`//`) and block (`/* */`) comments are emitted as tokens so
//!   rules can read annotations (`// lint: allow(...)`, `// SAFETY:`);
//!   block comments nest, as in Rust.
//! * String-ish literals — `"…"`, `r"…"`, `r#"…"#` (any hash depth),
//!   `b"…"`, `br#"…"#`, `c"…"`, `cr#"…"#`, `'c'`, `b'c'` — are consumed
//!   as single [`TokenKind::Str`] tokens, so `partial_cmp` *inside a
//!   string* never looks like code.
//! * Lifetimes (`'a`) are distinguished from char literals.
//! * Raw identifiers (`r#type`) lex as identifiers.

/// What a token is; see [`Token`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`text` holds it).
    Ident,
    /// Single punctuation character.
    Punct(char),
    /// Any string/char/byte literal; `text` holds the raw slice.
    Str,
    /// Numeric literal.
    Num,
    /// Lifetime (`'a`).
    Lifetime,
    /// `// …` comment (doc comments included); `text` holds the body
    /// after the slashes.
    LineComment,
    /// `/* … */` comment; `text` holds the body between the delimiters.
    BlockComment,
}

/// One lexed token with its 1-based source position.
#[derive(Debug, Clone)]
pub struct Token {
    pub kind: TokenKind,
    /// Identifier name, literal slice, numeric literal spelling or
    /// comment body (empty for punctuation). The number spelling lets
    /// the reduction rules tell a float accumulator init (`0.0`,
    /// `0f64`) from an exact integer one.
    pub text: String,
    pub line: u32,
    pub col: u32,
}

impl Token {
    /// `true` iff this token is the identifier `name`.
    pub fn is_ident(&self, name: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == name
    }

    /// `true` iff this token is the punctuation `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokenKind::Punct(c)
    }

    /// `true` iff this token is a comment of either flavour.
    pub fn is_comment(&self) -> bool {
        matches!(self.kind, TokenKind::LineComment | TokenKind::BlockComment)
    }
}

struct Cursor<'a> {
    b: &'a [u8],
    i: usize,
    line: u32,
    col: u32,
}

impl Cursor<'_> {
    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn peek_at(&self, k: usize) -> Option<u8> {
        self.b.get(self.i + k).copied()
    }

    /// Consume one byte, tracking line/col (col counts UTF-8 chars).
    fn bump(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.i += 1;
        if c == b'\n' {
            self.line += 1;
            self.col = 1;
        } else if c & 0xC0 != 0x80 {
            self.col += 1;
        }
        Some(c)
    }

    /// Consume bytes while `f` holds.
    fn bump_while(&mut self, f: impl Fn(u8) -> bool) {
        while let Some(c) = self.peek() {
            if !f(c) {
                break;
            }
            self.bump();
        }
    }
}

fn is_ident_start(c: u8) -> bool {
    c.is_ascii_alphabetic() || c == b'_' || c >= 0x80
}

fn is_ident_continue(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_' || c >= 0x80
}

/// Lex `src` into a full token stream (comments included).
pub fn lex(src: &str) -> Vec<Token> {
    let mut cur = Cursor {
        b: src.as_bytes(),
        i: 0,
        line: 1,
        col: 1,
    };
    let mut out = Vec::new();
    while let Some(c) = cur.peek() {
        let (line, col, start) = (cur.line, cur.col, cur.i);
        match c {
            b' ' | b'\t' | b'\r' | b'\n' => {
                cur.bump();
            }
            b'/' if cur.peek_at(1) == Some(b'/') => {
                cur.bump();
                cur.bump();
                cur.bump_while(|c| c != b'\n');
                out.push(Token {
                    kind: TokenKind::LineComment,
                    text: src[start + 2..cur.i].to_string(),
                    line,
                    col,
                });
            }
            b'/' if cur.peek_at(1) == Some(b'*') => {
                cur.bump();
                cur.bump();
                let body_start = cur.i;
                let mut depth = 1usize;
                while depth > 0 {
                    match (cur.peek(), cur.peek_at(1)) {
                        (Some(b'/'), Some(b'*')) => {
                            depth += 1;
                            cur.bump();
                            cur.bump();
                        }
                        (Some(b'*'), Some(b'/')) => {
                            depth -= 1;
                            cur.bump();
                            cur.bump();
                        }
                        (Some(_), _) => {
                            cur.bump();
                        }
                        (None, _) => break, // unterminated; tolerate
                    }
                }
                let body_end = cur.i.saturating_sub(2).max(body_start);
                out.push(Token {
                    kind: TokenKind::BlockComment,
                    text: src[body_start..body_end].to_string(),
                    line,
                    col,
                });
            }
            b'"' => {
                lex_plain_string(&mut cur);
                out.push(str_token(src, start, cur.i, line, col));
            }
            b'r' | b'b' | b'c' => {
                if let Some(tok) = lex_prefixed(&mut cur, src, line, col) {
                    out.push(tok);
                } else {
                    cur.bump_while(is_ident_continue);
                    out.push(Token {
                        kind: TokenKind::Ident,
                        text: src[start..cur.i].to_string(),
                        line,
                        col,
                    });
                }
            }
            b'\'' => {
                // Lifetime vs char literal.
                let n1 = cur.peek_at(1);
                let n2 = cur.peek_at(2);
                let is_lifetime = match n1 {
                    Some(c1) if is_ident_start(c1) && c1 != b'\\' => n2 != Some(b'\''),
                    _ => false,
                };
                if is_lifetime {
                    cur.bump(); // '
                    cur.bump_while(is_ident_continue);
                    out.push(Token {
                        kind: TokenKind::Lifetime,
                        text: src[start..cur.i].to_string(),
                        line,
                        col,
                    });
                } else {
                    cur.bump(); // opening '
                    lex_quoted_tail(&mut cur, b'\'');
                    out.push(str_token(src, start, cur.i, line, col));
                }
            }
            c if c.is_ascii_digit() => {
                lex_number(&mut cur);
                out.push(Token {
                    kind: TokenKind::Num,
                    text: src[start..cur.i].to_string(),
                    line,
                    col,
                });
            }
            c if is_ident_start(c) => {
                cur.bump_while(is_ident_continue);
                out.push(Token {
                    kind: TokenKind::Ident,
                    text: src[start..cur.i].to_string(),
                    line,
                    col,
                });
            }
            _ => {
                cur.bump();
                out.push(Token {
                    kind: TokenKind::Punct(c as char),
                    text: String::new(),
                    line,
                    col,
                });
            }
        }
    }
    out
}

fn str_token(src: &str, start: usize, end: usize, line: u32, col: u32) -> Token {
    Token {
        kind: TokenKind::Str,
        text: src[start..end].to_string(),
        line,
        col,
    }
}

/// Consume a `"…"` string starting at the opening quote.
fn lex_plain_string(cur: &mut Cursor<'_>) {
    cur.bump(); // opening "
    lex_quoted_tail(cur, b'"');
}

/// Consume the remainder of a quoted literal (after the opening
/// delimiter), honouring backslash escapes, up to and including `close`.
fn lex_quoted_tail(cur: &mut Cursor<'_>, close: u8) {
    while let Some(c) = cur.bump() {
        if c == b'\\' {
            cur.bump();
        } else if c == close {
            break;
        }
    }
}

/// Try to consume a prefixed literal (`r"…"`, `r#"…"#`, `r#ident`,
/// `b"…"`, `br#"…"#`, `b'…'`, `c"…"`, `cr"…"`, `cr#"…"#`) at the
/// cursor. Returns `None` if what follows is a plain identifier
/// starting with r/b/c.
fn lex_prefixed(cur: &mut Cursor<'_>, src: &str, line: u32, col: u32) -> Option<Token> {
    let start = cur.i;
    let c0 = cur.peek()?;
    // Longest prefixes first: br / cr are the two-letter ones.
    let (prefix_len, raw) = match (c0, cur.peek_at(1)) {
        (b'b', Some(b'r')) | (b'c', Some(b'r')) => (2, true),
        (b'r', Some(b'#')) | (b'r', Some(b'"')) => (1, true),
        (b'b', Some(b'"')) | (b'b', Some(b'\'')) | (b'c', Some(b'"')) => (1, false),
        _ => return None,
    };
    if raw {
        // Count hashes after the raw prefix.
        let mut hashes = 0usize;
        while cur.peek_at(prefix_len + hashes) == Some(b'#') {
            hashes += 1;
        }
        match cur.peek_at(prefix_len + hashes) {
            Some(b'"') => {
                for _ in 0..prefix_len + hashes + 1 {
                    cur.bump();
                }
                // Scan for `"` + hashes closer.
                'outer: while let Some(c) = cur.bump() {
                    if c == b'"' {
                        for k in 0..hashes {
                            if cur.peek_at(k) != Some(b'#') {
                                continue 'outer;
                            }
                        }
                        for _ in 0..hashes {
                            cur.bump();
                        }
                        break;
                    }
                }
                Some(str_token(src, start, cur.i, line, col))
            }
            Some(c) if hashes == 1 && prefix_len == 1 && is_ident_start(c) => {
                // Raw identifier r#foo.
                cur.bump(); // r
                cur.bump(); // #
                let name_start = cur.i;
                cur.bump_while(is_ident_continue);
                Some(Token {
                    kind: TokenKind::Ident,
                    text: src[name_start..cur.i].to_string(),
                    line,
                    col,
                })
            }
            _ => None,
        }
    } else {
        let close = if cur.peek_at(prefix_len) == Some(b'\'') {
            b'\''
        } else {
            b'"'
        };
        for _ in 0..prefix_len + 1 {
            cur.bump();
        }
        lex_quoted_tail(cur, close);
        Some(str_token(src, start, cur.i, line, col))
    }
}

/// Consume a numeric literal: digits/underscores/type suffixes, one
/// fractional part, and signed exponents (`1_000`, `0xFF`, `1.5e-3`).
fn lex_number(cur: &mut Cursor<'_>) {
    let mut prev = 0u8;
    while let Some(c) = cur.peek() {
        let in_number = c.is_ascii_alphanumeric()
            || c == b'_'
            || (c == b'.' && cur.peek_at(1).is_some_and(|d| d.is_ascii_digit()) && prev != b'.')
            || ((c == b'+' || c == b'-') && (prev == b'e' || prev == b'E'));
        if !in_number {
            break;
        }
        prev = c;
        cur.bump();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        lex(src).into_iter().map(|t| t.kind).collect()
    }

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .into_iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn idents_and_puncts_with_positions() {
        let toks = lex("fn main() {\n    x.y\n}");
        assert!(toks[0].is_ident("fn"));
        assert_eq!((toks[0].line, toks[0].col), (1, 1));
        assert!(toks[1].is_ident("main"));
        let x = toks.iter().find(|t| t.is_ident("x")).unwrap();
        assert_eq!((x.line, x.col), (2, 5));
        let dot = &toks[6];
        assert!(dot.is_punct('.'));
        assert_eq!((dot.line, dot.col), (2, 6));
    }

    #[test]
    fn line_comments_carry_their_text() {
        let toks = lex("let a = 1; // lint: allow(unwrap)\nlet b = 2;");
        let c = toks
            .iter()
            .find(|t| t.kind == TokenKind::LineComment)
            .unwrap();
        assert_eq!(c.text, " lint: allow(unwrap)");
        assert_eq!(c.line, 1);
    }

    #[test]
    fn block_comments_nest() {
        let toks = lex("a /* x /* y */ z */ b");
        assert_eq!(
            kinds("a /* x /* y */ z */ b"),
            vec![TokenKind::Ident, TokenKind::BlockComment, TokenKind::Ident]
        );
        let c = toks
            .iter()
            .find(|t| t.kind == TokenKind::BlockComment)
            .unwrap();
        assert_eq!(c.text, " x /* y */ z ");
    }

    #[test]
    fn code_in_strings_is_not_code() {
        // The canonical trap: rule keywords inside string literals.
        let src = r##"let s = "a.partial_cmp(&b)"; let r = r#"unsafe { sort_by }"#;"##;
        assert!(idents(src)
            .iter()
            .all(|i| i != "partial_cmp" && i != "unsafe" && i != "sort_by"));
        // Both literals survive as Str tokens.
        let strs: Vec<_> = lex(src)
            .into_iter()
            .filter(|t| t.kind == TokenKind::Str)
            .collect();
        assert_eq!(strs.len(), 2);
        assert!(strs[1].text.starts_with("r#\""));
    }

    #[test]
    fn raw_strings_with_hashes_and_byte_strings() {
        let src =
            r####"let a = r##"quote " and "# inside"##; let b = b"bytes"; let c = br#"x"#;"####;
        let strs: Vec<_> = lex(src)
            .into_iter()
            .filter(|t| t.kind == TokenKind::Str)
            .collect();
        assert_eq!(strs.len(), 3);
        assert!(strs[0].text.contains("inside"));
    }

    #[test]
    fn raw_c_strings_are_single_tokens_and_crate_is_an_ident() {
        // `cr"…"` / `cr#"…"#` must not leak their contents as code —
        // regression: `cr` used to lex as an ident followed by a plain
        // string, so a `"` inside the raw body desynced the lexer.
        let src = r##"let p = cr"unsafe { }"; let q = cr#"a "quoted" path"#; crate::f();"##;
        let strs: Vec<_> = lex(src)
            .into_iter()
            .filter(|t| t.kind == TokenKind::Str)
            .collect();
        assert_eq!(strs.len(), 2);
        assert!(strs[0].text.starts_with("cr\""));
        assert!(strs[1].text.contains("quoted"));
        assert!(idents(src).iter().all(|i| i != "unsafe" && i != "quoted"));
        assert!(idents(src).iter().any(|i| i == "crate"));
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let toks = lex("fn f<'a>(x: &'a str) { let c = 'x'; let n = '\\n'; }");
        let lifetimes: Vec<_> = toks
            .iter()
            .filter(|t| t.kind == TokenKind::Lifetime)
            .collect();
        assert_eq!(lifetimes.len(), 2);
        assert_eq!(lifetimes[0].text, "'a");
        let chars: Vec<_> = toks.iter().filter(|t| t.kind == TokenKind::Str).collect();
        assert_eq!(chars.len(), 2);
        assert_eq!(chars[0].text, "'x'");
    }

    #[test]
    fn raw_identifiers() {
        let toks = lex("let r#type = 1;");
        assert!(toks[1].is_ident("type"));
    }

    #[test]
    fn numbers_do_not_eat_method_calls_or_ranges() {
        assert_eq!(
            idents("for i in 0..10 { v[i] }"),
            vec!["for", "i", "in", "v", "i"]
        );
        // 1.5e-3 is one number; the `.sqrt` after a parenthesis is an ident.
        assert_eq!(idents("(1.5e-3).sqrt()"), vec!["sqrt"]);
    }

    #[test]
    fn numbers_carry_their_spelling() {
        let nums: Vec<String> = lex("let a = 0.0; let b = 0; let c = 1_000f64; let d = 1.5e-3;")
            .into_iter()
            .filter(|t| t.kind == TokenKind::Num)
            .map(|t| t.text)
            .collect();
        assert_eq!(nums, vec!["0.0", "0", "1_000f64", "1.5e-3"]);
    }

    #[test]
    fn doc_comments_are_comments() {
        let src = "/// Call `.unwrap()` freely here.\nfn f() {}";
        assert!(idents(src).iter().all(|i| i != "unwrap"));
    }
}
