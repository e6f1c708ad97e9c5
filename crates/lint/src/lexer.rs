//! A small, *total* Rust lexer.
//!
//! Totality is the contract: for **any** byte sequence — valid Rust, a
//! truncated file, binary garbage — [`lex`] terminates without panicking
//! and returns tokens whose spans lie inside the input
//! (`lo <= hi <= src.len()`, verified by proptest in
//! `tests/lexer_proptests.rs`). Unterminated constructs (a block comment,
//! string, or raw string with no closing delimiter) simply extend to end
//! of input as one token.
//!
//! The rules engine only needs enough fidelity to never mistake comment or
//! string *contents* for code: `Instant::now` inside a doc comment or an
//! error message must not trip the determinism rule. So the lexer
//! understands exactly the constructs that can hide code-looking bytes —
//! line and nested block comments, string / raw-string / byte-string /
//! c-string literals, char literals vs. lifetimes — and treats everything
//! else as identifiers, numbers, or single-byte punctuation.

/// Token classification. Spans index into the original byte slice.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TokKind {
    /// Identifier or keyword (also any run containing bytes >= 0x80,
    /// which conservatively covers non-ASCII identifiers).
    Ident,
    /// `'label` / `'a` lifetime (no closing quote).
    Lifetime,
    /// Any string-shaped literal: `"…"`, `r#"…"#`, `b"…"`, `c"…"`.
    Str,
    /// Char literal `'x'`, including escapes.
    Char,
    /// Numeric literal (approximate: digits plus trailing alphanumerics).
    Num,
    /// `// …` to end of line (doc comments included).
    LineComment,
    /// `/* … */`, nesting honored, to EOF when unterminated.
    BlockComment,
    /// Any other single byte.
    Punct,
}

/// One lexed token. `line` is 1-based and refers to the token's first byte.
#[derive(Clone, Copy, Debug)]
pub struct Token {
    pub kind: TokKind,
    pub lo: usize,
    pub hi: usize,
    pub line: u32,
}

impl Token {
    /// The token's bytes within `src`. Never panics: spans are clamped at
    /// construction and re-clamped here for defense in depth.
    pub fn text<'a>(&self, src: &'a [u8]) -> &'a [u8] {
        let hi = self.hi.min(src.len());
        let lo = self.lo.min(hi);
        &src[lo..hi]
    }

    /// Single punctuation byte, if this is a `Punct` token.
    pub fn punct(&self, src: &[u8]) -> Option<u8> {
        if self.kind == TokKind::Punct {
            self.text(src).first().copied()
        } else {
            None
        }
    }

    /// True for line and block comments (doc comments included).
    pub fn is_comment(&self) -> bool {
        self.kind == TokKind::LineComment || self.kind == TokKind::BlockComment
    }

    /// True when this token is the identifier `word`.
    pub fn is_ident(&self, src: &[u8], word: &str) -> bool {
        self.kind == TokKind::Ident && self.text(src) == word.as_bytes()
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

/// Internal cursor over the input; every advance is bounds-checked.
struct Cursor<'a> {
    src: &'a [u8],
    i: usize,
    line: u32,
}

impl<'a> Cursor<'a> {
    fn peek(&self, ahead: usize) -> Option<u8> {
        self.src.get(self.i + ahead).copied()
    }

    /// Advance one byte, keeping the line count in step.
    fn bump(&mut self) {
        if let Some(b) = self.src.get(self.i) {
            if *b == b'\n' {
                self.line += 1;
            }
            self.i += 1;
        }
    }

    fn bump_n(&mut self, n: usize) {
        for _ in 0..n {
            self.bump();
        }
    }

    /// Consume a non-raw string body after the opening quote, honoring
    /// `\"` escapes; stops after the closing `"` or at EOF.
    fn eat_quoted(&mut self, quote: u8) {
        while let Some(b) = self.peek(0) {
            if b == b'\\' {
                self.bump();
                self.bump();
            } else if b == quote {
                self.bump();
                return;
            } else {
                self.bump();
            }
        }
    }

    /// Consume a raw-string body: after `r##"`, scan for `"##` with the
    /// same number of hashes; to EOF when unterminated.
    fn eat_raw(&mut self, hashes: usize) {
        while let Some(b) = self.peek(0) {
            if b == b'"' {
                let mut ok = true;
                for k in 0..hashes {
                    if self.peek(1 + k) != Some(b'#') {
                        ok = false;
                        break;
                    }
                }
                if ok {
                    self.bump_n(1 + hashes);
                    return;
                }
            }
            self.bump();
        }
    }
}

/// Try to lex a string literal (with optional `b`/`c`/`r` prefixes)
/// starting at the cursor. Returns `true` and consumes it when present.
fn try_string(c: &mut Cursor<'_>) -> bool {
    // Recognized prefixes: "", b, c, br, cr, r — longest match first.
    let (skip, raw) = match (c.peek(0), c.peek(1)) {
        (Some(b'b') | Some(b'c'), Some(b'r')) => (2, true),
        (Some(b'b') | Some(b'c'), _) => (1, false),
        (Some(b'r'), _) => (1, true),
        _ => (0, false),
    };
    if raw {
        // r / br / cr: zero or more hashes then a quote.
        let mut hashes = 0;
        while c.peek(skip + hashes) == Some(b'#') {
            hashes += 1;
        }
        if c.peek(skip + hashes) == Some(b'"') {
            c.bump_n(skip + hashes + 1);
            c.eat_raw(hashes);
            return true;
        }
        return false;
    }
    if c.peek(skip) == Some(b'"') {
        c.bump_n(skip + 1);
        c.eat_quoted(b'"');
        return true;
    }
    false
}

/// Lex `src` completely. Whitespace is dropped; comments are kept (the
/// allow-annotation scanner reads them).
pub fn lex(src: &[u8]) -> Vec<Token> {
    let mut c = Cursor { src, i: 0, line: 1 };
    let mut out = Vec::new();
    while let Some(b) = c.peek(0) {
        let lo = c.i;
        let line = c.line;
        let kind = if b.is_ascii_whitespace() {
            c.bump();
            continue;
        } else if b == b'/' && c.peek(1) == Some(b'/') {
            while let Some(nb) = c.peek(0) {
                if nb == b'\n' {
                    break;
                }
                c.bump();
            }
            TokKind::LineComment
        } else if b == b'/' && c.peek(1) == Some(b'*') {
            c.bump_n(2);
            let mut depth = 1usize;
            while depth > 0 {
                match (c.peek(0), c.peek(1)) {
                    (Some(b'/'), Some(b'*')) => {
                        depth += 1;
                        c.bump_n(2);
                    }
                    (Some(b'*'), Some(b'/')) => {
                        depth -= 1;
                        c.bump_n(2);
                    }
                    (Some(_), _) => c.bump(),
                    (None, _) => break,
                }
            }
            TokKind::BlockComment
        } else if try_string(&mut c) {
            TokKind::Str
        } else if b == b'\'' {
            lex_quote(&mut c)
        } else if is_ident_start(b) {
            while c.peek(0).is_some_and(is_ident_continue) {
                c.bump();
            }
            TokKind::Ident
        } else if b.is_ascii_digit() {
            lex_number(&mut c);
            TokKind::Num
        } else {
            c.bump();
            TokKind::Punct
        };
        out.push(Token {
            kind,
            lo,
            hi: c.i,
            line,
        });
        // Totality backstop: the cursor must advance every iteration.
        if c.i == lo {
            c.bump();
        }
    }
    out
}

/// Disambiguate `'a'` (char) / `'\n'` (char) / `'static` (lifetime) /
/// stray `'` (punct). The cursor sits on the opening quote.
fn lex_quote(c: &mut Cursor<'_>) -> TokKind {
    match c.peek(1) {
        Some(b'\\') => {
            // Escape: definitely a char literal. Consume to the closing
            // quote, skipping escaped bytes; stop at newline or EOF so a
            // stray `'\` cannot swallow the rest of the file.
            c.bump_n(2); // ' and backslash
            c.bump(); // escaped byte
            while let Some(b) = c.peek(0) {
                if b == b'\'' {
                    c.bump();
                    break;
                }
                if b == b'\n' {
                    break;
                }
                if b == b'\\' {
                    c.bump();
                }
                c.bump();
            }
            TokKind::Char
        }
        Some(nb) if is_ident_start(nb) => {
            // `'xyz` — lifetime unless a quote closes it (`'x'`).
            let mut k = 1;
            while c.peek(k).is_some_and(is_ident_continue) {
                k += 1;
            }
            if c.peek(k) == Some(b'\'') {
                c.bump_n(k + 1);
                TokKind::Char
            } else {
                c.bump_n(k);
                TokKind::Lifetime
            }
        }
        Some(_) if c.peek(2) == Some(b'\'') => {
            // `'+'` and friends.
            c.bump_n(3);
            TokKind::Char
        }
        _ => {
            c.bump();
            TokKind::Punct
        }
    }
}

/// Approximate numeric literal: digits, `_`, alphanumeric suffixes and
/// type markers, a fractional part, and signed exponents. Exactness is
/// irrelevant to the rules; not splitting `1.0e-3` into surprising
/// punctuation is what matters. `0..n` correctly stops before `..`.
fn lex_number(c: &mut Cursor<'_>) {
    let mut prev = 0u8;
    loop {
        match c.peek(0) {
            Some(b) if b.is_ascii_alphanumeric() || b == b'_' => {
                prev = b;
                c.bump();
            }
            Some(b'.') if c.peek(1).is_some_and(|d| d.is_ascii_digit()) => {
                prev = b'.';
                c.bump();
            }
            Some(b'+') | Some(b'-')
                if (prev == b'e' || prev == b'E')
                    && c.peek(1).is_some_and(|d| d.is_ascii_digit()) =>
            {
                prev = 0;
                c.bump();
            }
            _ => break,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokKind> {
        lex(src.as_bytes()).into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn idents_and_puncts() {
        let toks = lex(b"self.cache.drain()");
        let texts: Vec<&[u8]> = toks.iter().map(|t| t.text(b"self.cache.drain()")).collect();
        assert_eq!(
            texts,
            vec![b"self".as_ref(), b".", b"cache", b".", b"drain", b"(", b")"]
        );
    }

    #[test]
    fn strings_hide_code() {
        let src = br#"let m = "Instant::now() inside a string";"#;
        let toks = lex(src);
        assert!(toks
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .all(|t| t.text(src) != b"Instant"));
    }

    #[test]
    fn raw_strings_with_hashes() {
        let src = br##"r#"embedded "quote" and \ backslash"# trailing"##;
        let toks = lex(src);
        assert_eq!(toks[0].kind, TokKind::Str);
        assert!(toks[1].is_ident(src, "trailing"));
    }

    #[test]
    fn nested_block_comments() {
        assert_eq!(
            kinds("/* outer /* inner */ still outer */ x"),
            vec![TokKind::BlockComment, TokKind::Ident]
        );
    }

    #[test]
    fn lifetime_vs_char() {
        assert_eq!(kinds("'static"), vec![TokKind::Lifetime]);
        assert_eq!(kinds("'a'"), vec![TokKind::Char]);
        assert_eq!(kinds("'\\n'"), vec![TokKind::Char]);
        assert_eq!(
            kinds("&'a str"),
            vec![TokKind::Punct, TokKind::Lifetime, TokKind::Ident]
        );
    }

    #[test]
    fn unterminated_constructs_reach_eof() {
        for src in [
            "\"never closed",
            "/* never closed",
            "r##\"never closed",
            "b\"x",
        ] {
            let toks = lex(src.as_bytes());
            assert_eq!(toks.len(), 1, "{src:?} should be one token");
            assert_eq!(toks[0].hi, src.len());
        }
    }

    #[test]
    fn line_numbers() {
        let src = b"a\nb\n\nc";
        let toks = lex(src);
        let lines: Vec<u32> = toks.iter().map(|t| t.line).collect();
        assert_eq!(lines, vec![1, 2, 4]);
    }

    #[test]
    fn range_after_number() {
        // `0..n` must not glue the dots onto the number.
        let src = b"for i in 0..n {}";
        let toks = lex(src);
        let num = toks.iter().find(|t| t.kind == TokKind::Num).unwrap();
        assert_eq!(num.text(src), b"0");
    }

    #[test]
    fn float_with_exponent() {
        let src = b"1.5e-3_f64;";
        let toks = lex(src);
        assert_eq!(toks[0].kind, TokKind::Num);
        assert_eq!(toks[0].text(src), b"1.5e-3_f64");
    }
}
