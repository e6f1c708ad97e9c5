//! Rule `hygiene`: every crate's `lib.rs` carries `#![deny(unsafe_code)]`.
//!
//! The workspace is pure safe Rust by policy (the perf story is layout
//! and algorithms, not `unsafe`); this pin makes the policy survive
//! future contributors. The check is token-level — the attribute inside a
//! doc comment or string does not count.

use crate::findings::{Finding, Rule};
use crate::lexer::TokKind;
use crate::source::SourceFile;

pub fn check(sf: &SourceFile<'_>, out: &mut Vec<Finding>) {
    let src = sf.bytes;
    let toks = sf.code_tokens();
    let pat: &[&str] = &["#", "!", "[", "deny", "(", "unsafe_code", ")", "]"];
    let found = toks.windows(pat.len()).any(|w| {
        w.iter().zip(pat).all(|(t, p)| match t.kind {
            TokKind::Ident => t.text(src) == p.as_bytes(),
            TokKind::Punct => t.text(src) == p.as_bytes(),
            _ => false,
        })
    });
    if !found {
        out.extend(sf.filtered(Finding::new(
            Rule::Hygiene,
            sf.path,
            1,
            "crate root is missing `#![deny(unsafe_code)]`",
        )));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings(src: &str) -> Vec<Finding> {
        let sf = SourceFile::new("crates/x/src/lib.rs", src.as_bytes());
        let mut out = Vec::new();
        check(&sf, &mut out);
        out
    }

    #[test]
    fn present_attr_passes() {
        assert!(findings("//! Docs.\n#![deny(unsafe_code)]\npub fn f() {}").is_empty());
    }

    #[test]
    fn missing_attr_fires() {
        let out = findings("pub fn f() {}");
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].line, 1);
    }

    #[test]
    fn attr_in_doc_comment_does_not_count() {
        let out = findings("//! #![deny(unsafe_code)]\npub fn f() {}");
        assert_eq!(out.len(), 1);
    }
}
