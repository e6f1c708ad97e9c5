//! Per-file analysis context shared by all token-stream rules: the token
//! stream itself, the allow-annotation index, and the byte ranges of
//! test-only code that substantive rules skip.

use crate::findings::{Finding, Rule};
use crate::lexer::{lex, TokKind, Token};

/// One `// lint: allow(<rule>) — <reason>` annotation.
#[derive(Debug)]
pub struct Allow {
    pub rule: String,
    /// Line the comment starts on. The annotation covers findings on its
    /// own line and on the following line, so it can sit inline after the
    /// flagged expression or on its own line immediately above.
    pub line: u32,
    pub has_reason: bool,
}

/// A lexed file plus everything the rules need to interpret it.
pub struct SourceFile<'a> {
    /// Workspace-relative `/`-separated path.
    pub path: &'a str,
    pub bytes: &'a [u8],
    pub tokens: Vec<Token>,
    pub allows: Vec<Allow>,
    /// Byte ranges of `#[cfg(test)]` / `#[test]` items (half-open).
    test_ranges: Vec<(usize, usize)>,
}

impl<'a> SourceFile<'a> {
    pub fn new(path: &'a str, bytes: &'a [u8]) -> SourceFile<'a> {
        let tokens = lex(bytes);
        let allows = scan_allows(bytes, &tokens);
        let test_ranges = scan_test_ranges(bytes, &tokens);
        SourceFile {
            path,
            bytes,
            tokens,
            allows,
            test_ranges,
        }
    }

    /// The token stream without comments, so adjacency patterns skip
    /// interleaved comments and code quoted in doc comments never counts.
    pub fn code_tokens(&self) -> Vec<&Token> {
        self.tokens.iter().filter(|t| !t.is_comment()).collect()
    }

    /// True when byte offset `lo` lies inside test-only code.
    pub fn byte_in_test(&self, lo: usize) -> bool {
        self.test_ranges
            .iter()
            .any(|&(rlo, rhi)| lo >= rlo && lo < rhi)
    }

    /// Is a finding of `rule` at `line` silenced by a well-formed allow?
    /// (Reason-less allows silence nothing; they are themselves findings.)
    pub fn is_allowed(&self, rule: Rule, line: u32) -> bool {
        self.allows.iter().any(|a| {
            a.has_reason && a.rule == rule.name() && (a.line == line || a.line + 1 == line)
        })
    }

    /// Apply the allow filter to a rule finding; `None` when silenced.
    pub fn filtered(&self, f: Finding) -> Option<Finding> {
        if self.is_allowed(f.rule, f.line) {
            None
        } else {
            Some(f)
        }
    }

    /// Findings for malformed annotations: unknown rule names and missing
    /// reasons. A bare allow is itself a violation — the contract is that
    /// every silenced finding carries a human justification.
    pub fn bad_allow_findings(&self) -> Vec<Finding> {
        let mut out = Vec::new();
        for a in &self.allows {
            if !Rule::allowable(&a.rule) {
                out.push(Finding::new(
                    Rule::BadAllow,
                    self.path,
                    a.line,
                    format!(
                        "allow names unknown rule `{}` (known: determinism, lock-order, \
                         panic-freedom, hygiene, doc-links, test-only-api)",
                        a.rule
                    ),
                ));
            } else if !a.has_reason {
                out.push(Finding::new(
                    Rule::BadAllow,
                    self.path,
                    a.line,
                    format!(
                        "allow({}) without a reason — write `// lint: allow({}) — <why>`",
                        a.rule, a.rule
                    ),
                ));
            }
        }
        out
    }
}

/// Extract allow annotations from comment tokens. Recognized shape inside
/// any `//` or `/* */` comment: `lint: allow(<rule>)` followed by a
/// separator (`—`, `-`, `:`) and a non-empty reason.
fn scan_allows(src: &[u8], tokens: &[Token]) -> Vec<Allow> {
    let mut out = Vec::new();
    for t in tokens {
        if !t.is_comment() {
            continue;
        }
        let text = String::from_utf8_lossy(t.text(src));
        // Only a comment that *starts* with `lint:` (after the comment
        // sigils) is an annotation — prose *quoting* the syntax, like
        // this sentence or docs/LINTS.md, must not register.
        let body = text.trim_start_matches(['/', '!', '*']).trim_start();
        if !body.starts_with("lint:") {
            continue;
        }
        let rest = body["lint:".len()..].trim_start();
        let Some(args) = rest.strip_prefix("allow(") else {
            // `lint:` without `allow(` — treat as malformed annotation so
            // typos like `lint: alow(...)` surface instead of silently
            // doing nothing.
            out.push(Allow {
                rule: rest.split_whitespace().next().unwrap_or("?").to_string(),
                line: t.line,
                has_reason: false,
            });
            continue;
        };
        let Some(close) = args.find(')') else {
            out.push(Allow {
                rule: args.to_string(),
                line: t.line,
                has_reason: false,
            });
            continue;
        };
        let rule = args[..close].trim().to_string();
        let reason = args[close + 1..]
            .trim_start()
            .trim_start_matches(['—', '–', '-', ':'])
            .trim();
        out.push(Allow {
            rule,
            line: t.line,
            has_reason: !reason.is_empty(),
        });
    }
    out
}

/// Locate `#[cfg(test)]` / `#[test]` items and return their byte ranges.
///
/// An attribute is test-gating when it contains the identifier `test`
/// nested only under `cfg` / `any` / `all` (so `#[cfg(not(test))]` does
/// NOT gate — that code compiles into the shipped binary and must stay
/// lintable). After a gating attribute, any further attributes are
/// skipped, then the item's extent is the matching `}` of its first
/// top-level `{`, or the first top-level `;` for braceless items.
fn scan_test_ranges(src: &[u8], tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].punct(src) == Some(b'#') && punct_at(src, tokens, i + 1) == Some(b'[') {
            let (is_test, after) = attr_is_test(src, tokens, i + 1);
            if is_test {
                let start = tokens[i].lo;
                let mut j = after;
                // Skip any stacked attributes and doc comments.
                loop {
                    if punct_at(src, tokens, j) == Some(b'#')
                        && punct_at(src, tokens, j + 1) == Some(b'[')
                    {
                        let (_, next) = attr_is_test(src, tokens, j + 1);
                        j = next;
                    } else if tokens.get(j).is_some_and(Token::is_comment) {
                        j += 1;
                    } else {
                        break;
                    }
                }
                let end_idx = item_end(src, tokens, j);
                let end = tokens.get(end_idx).map(|t| t.hi).unwrap_or(src.len());
                out.push((start, end));
                i = end_idx + 1;
                continue;
            }
            i = after;
            continue;
        }
        i += 1;
    }
    out
}

fn punct_at(src: &[u8], tokens: &[Token], idx: usize) -> Option<u8> {
    tokens.get(idx).and_then(|t| t.punct(src))
}

/// `tokens[open]` is the `[` of an attribute. Returns (gates-test-code,
/// index just past the closing `]`). Malformed attributes (no closing
/// bracket) consume to end of input.
fn attr_is_test(src: &[u8], tokens: &[Token], open: usize) -> (bool, usize) {
    let mut depth = 0i32;
    // Stack of wrapper idents: the ident preceding each `(` we are inside.
    let mut wrappers: Vec<Vec<u8>> = Vec::new();
    let mut prev_ident: Option<Vec<u8>> = None;
    let mut is_test = false;
    let mut j = open;
    while j < tokens.len() {
        let t = &tokens[j];
        match t.punct(src) {
            Some(b'[') => depth += 1,
            Some(b']') => {
                depth -= 1;
                if depth == 0 {
                    return (is_test, j + 1);
                }
            }
            Some(b'(') => {
                wrappers.push(prev_ident.take().unwrap_or_default());
            }
            Some(b')') => {
                wrappers.pop();
            }
            _ => {}
        }
        if t.kind == TokKind::Ident {
            let text = t.text(src);
            if text == b"test"
                && !wrappers.is_empty()
                && wrappers
                    .iter()
                    .all(|w| w == b"cfg" || w == b"any" || w == b"all")
            {
                is_test = true;
            }
            if text == b"test" && wrappers.is_empty() {
                // `#[test]` / `#[tokio::test]`-shaped: bare ident.
                is_test = true;
            }
            prev_ident = Some(text.to_vec());
        } else {
            prev_ident = None;
        }
        j += 1;
    }
    (is_test, tokens.len())
}

/// Index of the token that ends the item starting at `start`: the `}`
/// matching the first top-level `{`, or the first top-level `;`.
/// Top-level means outside all `()`, `[]`, `<`-free (angle brackets are
/// ignored — they never wrap `{` or `;` in item position).
fn item_end(src: &[u8], tokens: &[Token], start: usize) -> usize {
    let mut paren = 0i32;
    let mut bracket = 0i32;
    let mut brace = 0i32;
    let mut saw_brace = false;
    let mut j = start;
    while j < tokens.len() {
        match tokens[j].punct(src) {
            Some(b'(') => paren += 1,
            Some(b')') => paren -= 1,
            Some(b'[') => bracket += 1,
            Some(b']') => bracket -= 1,
            Some(b'{') => {
                brace += 1;
                saw_brace = true;
            }
            Some(b'}') => {
                brace -= 1;
                if saw_brace && brace == 0 {
                    return j;
                }
            }
            Some(b';') if !saw_brace && paren == 0 && bracket == 0 => return j,
            _ => {}
        }
        j += 1;
    }
    tokens.len().saturating_sub(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file<'a>(src: &'a str) -> SourceFile<'a> {
        SourceFile::new("x.rs", src.as_bytes())
    }

    /// Is the first identifier `word` in `src` inside test-only code?
    fn in_test(src: &str, word: &str) -> bool {
        let f = file(src);
        let tok = f
            .tokens
            .iter()
            .find(|t| t.is_ident(src.as_bytes(), word))
            .unwrap();
        f.byte_in_test(tok.lo)
    }

    #[test]
    fn cfg_test_mod_is_skipped() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n  fn helper() {}\n}\nfn also_live() {}";
        assert!(!in_test(src, "live"));
        assert!(in_test(src, "helper"));
        assert!(!in_test(src, "also_live"));
    }

    #[test]
    fn cfg_not_test_is_not_skipped() {
        assert!(!in_test("#[cfg(not(test))]\nfn shipped() {}", "shipped"));
    }

    #[test]
    fn cfg_any_test_is_skipped() {
        assert!(in_test(
            "#[cfg(any(test, feature = \"x\"))]\nfn gated() {}",
            "gated"
        ));
    }

    #[test]
    fn test_attr_with_stacked_attrs() {
        let src = "#[test]\n#[ignore]\nfn t() { body(); }\nfn live() {}";
        assert!(in_test(src, "body"));
        assert!(!in_test(src, "live"));
    }

    #[test]
    fn allow_parsing() {
        let src = "\
let a = 1; // lint: allow(determinism) — telemetry side channel
let b = 2; // lint: allow(determinism)
// lint: allow(nonsense) — whatever
// lint: allow(panic-freedom): colon separator works too
";
        let f = file(src);
        assert!(f.is_allowed(Rule::Determinism, 1));
        assert!(f.is_allowed(Rule::Determinism, 2)); // covers next line too
        assert!(!f.is_allowed(Rule::Determinism, 3));
        assert!(f.is_allowed(Rule::PanicFreedom, 4));
        let bad = f.bad_allow_findings();
        assert_eq!(bad.len(), 2); // reason-less line 2 + unknown rule line 3
        assert!(bad
            .iter()
            .any(|b| b.line == 2 && b.message.contains("without a reason")));
        assert!(bad
            .iter()
            .any(|b| b.line == 3 && b.message.contains("unknown rule")));
    }

    #[test]
    fn reasonless_allow_silences_nothing() {
        let f = file("x(); // lint: allow(determinism)\n");
        assert!(!f.is_allowed(Rule::Determinism, 1));
    }
}
