//! Rule `test-only-api`: a `pub` item of a library crate that no shipped
//! code names.
//!
//! A public function that only tests call is dead weight the tests keep
//! alive: it is read, documented and maintained, yet no binary, example
//! or benchmark reaches it. rustc's `dead_code` lint cannot see this,
//! because a `pub` item counts as used by the crate's (hypothetical)
//! downstream users. This rule is the workspace-wide check rustc lacks.
//!
//! Definitions: every `pub` `fn`, `struct`, `enum`, `trait`, `const`,
//! `static` or `type` outside test code in a library crate's `src/`
//! (`crates/*/src/**` and the root `src/**`, binary roots excluded).
//! `pub(crate)` and narrower items are rustc's business.
//!
//! Uses: every identifier token outside test code in the files handed in
//! whose path has no `tests` or `benches` component — library and binary
//! sources, `examples/`, and `perfbench/src`, which is read for uses but
//! never linted. Comments (doc tests included), `pub use` re-exports,
//! the names in item definitions and the self type of an `impl` header
//! do not count.
//!
//! Matching is by identifier, not resolved path: a method named like a
//! method of another type that is used goes unflagged (documented in
//! docs/LINTS.md).

use std::collections::HashSet;

use crate::findings::{Finding, Rule};
use crate::lexer::{TokKind, Token};
use crate::source::SourceFile;

/// Keywords that introduce an item; the identifier after one is the
/// item's name, a definition and never a use.
const ITEM_KEYWORDS: &[&str] = &["fn", "struct", "enum", "trait", "const", "static", "type"];

/// One flaggable `pub` item.
struct Def<'s> {
    file: &'s SourceFile<'s>,
    kind: &'s [u8],
    name: &'s [u8],
    line: u32,
}

pub fn check<'s>(files: &'s [SourceFile<'s>], out: &mut Vec<Finding>) {
    let mut used: HashSet<&[u8]> = HashSet::new();
    let mut defs: Vec<Def<'s>> = Vec::new();
    for sf in files.iter().filter(|sf| !is_test_path(sf.path)) {
        scan(sf, defines_api(sf.path), &mut used, &mut defs);
    }
    for d in defs {
        if used.contains(d.name) {
            continue;
        }
        out.extend(d.file.filtered(Finding::new(
            Rule::TestOnlyApi,
            d.file.path,
            d.line,
            format!(
                "pub {} `{}` is named by no non-test code — delete it, or annotate \
                 which test needs it and why",
                String::from_utf8_lossy(d.kind),
                String::from_utf8_lossy(d.name)
            ),
        )));
    }
}

/// Record `sf`'s identifier uses, and its `pub` items when `defines`.
fn scan<'s>(
    sf: &'s SourceFile<'s>,
    defines: bool,
    used: &mut HashSet<&'s [u8]>,
    defs: &mut Vec<Def<'s>>,
) {
    let src = sf.bytes;
    let toks = sf.code_tokens();
    let is = |k: usize, word: &str| toks.get(k).is_some_and(|t| t.is_ident(src, word));
    let find = |from: usize, p: u8| {
        (from..toks.len())
            .find(|&j| toks[j].punct(src) == Some(p))
            .unwrap_or(toks.len())
    };
    // The self type an `impl` block names: a definition site, not a use.
    let mut impl_self = usize::MAX;
    let mut k = 0usize;
    while k < toks.len() {
        let t = toks[k];
        if sf.byte_in_test(t.lo) || t.kind != TokKind::Ident {
            k += 1;
            continue;
        }
        if is(k, "impl") {
            impl_self = impl_self_type(src, &toks, k).unwrap_or(usize::MAX);
        } else if is(k, "pub") {
            // `pub(crate)`, `pub(in path)`: the visibility ends at its `)`.
            let restricted = toks.get(k + 1).and_then(|n| n.punct(src)) == Some(b'(');
            let vis_end = if restricted { find(k, b')') } else { k };
            if is(vis_end + 1, "use") {
                // A re-export names the item without using it.
                k = find(vis_end, b';');
                continue;
            }
            if defines && !restricted {
                defs.extend(pub_item(sf, &toks, k));
            }
        } else if k != impl_self && !(k > 0 && ITEM_KEYWORDS.iter().any(|w| is(k - 1, w))) {
            used.insert(t.text(src));
        }
        k += 1;
    }
}

/// The item a `pub` at `k` introduces, when it is a flaggable kind.
fn pub_item<'s>(sf: &'s SourceFile<'s>, toks: &[&Token], k: usize) -> Option<Def<'s>> {
    let src = sf.bytes;
    let mut j = k + 1;
    // Qualifiers: `const fn`, `async fn`, `unsafe fn`, `extern "C" fn`.
    while let Some(t) = toks.get(j) {
        let qualifier = t.kind == TokKind::Str
            || ["async", "unsafe", "extern"]
                .iter()
                .any(|q| t.is_ident(src, q))
            || (t.is_ident(src, "const") && toks.get(j + 1).is_some_and(|n| n.is_ident(src, "fn")));
        if !qualifier {
            break;
        }
        j += 1;
    }
    let kind = toks.get(j)?.text(src);
    if !ITEM_KEYWORDS.iter().any(|w| kind == w.as_bytes()) {
        return None;
    }
    let name = toks.get(j + 1).filter(|t| t.kind == TokKind::Ident)?;
    Some(Def {
        file: sf,
        kind,
        name: name.text(src),
        line: toks[k].line,
    })
}

/// The index of the self type's name in the `impl` block header at `k`:
/// `Foo` in `impl<T> Foo<T>` and in `impl<T> Trait<T> for a::Foo<T>`.
/// `None` for `impl Trait` in type position (`fn f(x: impl Fn())`), which
/// follows a `:`, `(`, `<`, `,`, `&` or `->` rather than an item boundary.
fn impl_self_type(src: &[u8], toks: &[&Token], k: usize) -> Option<usize> {
    let item_start = k == 0
        || matches!(toks[k - 1].punct(src), Some(b'}' | b';' | b']' | b'{'))
        || toks[k - 1].is_ident(src, "unsafe");
    if !item_start {
        return None;
    }
    // Walk the header at angle depth 0; the name is the last identifier
    // before the body or a `where` clause, a `for` restarting the search.
    let (mut depth, mut name) = (0i32, None);
    for j in k + 1..toks.len() {
        let t = toks[j];
        match t.punct(src) {
            Some(b'<') => depth += 1,
            // `->` inside a bound (`F: Fn() -> u8`) closes nothing.
            Some(b'>') if toks[j - 1].punct(src) != Some(b'-') => depth -= 1,
            Some(b'{' | b';') => break,
            _ if depth > 0 => {}
            _ if t.is_ident(src, "where") => break,
            _ if t.is_ident(src, "for") => name = None,
            _ if t.kind == TokKind::Ident => name = Some(j),
            _ => {}
        }
    }
    name
}

/// Test-only trees: nothing in them counts as a use.
fn is_test_path(path: &str) -> bool {
    path.split('/').any(|c| c == "tests" || c == "benches")
}

/// Library sources, whose `pub` items are API: `crates/*/src/**` and the
/// root `src/**`, minus binary roots.
fn defines_api(path: &str) -> bool {
    let lib_src = path.starts_with("src/")
        || (path.starts_with("crates/") && path.split('/').nth(2) == Some("src"));
    lib_src && !path.contains("src/bin/") && !path.ends_with("src/main.rs")
}

#[cfg(test)]
mod tests {
    use super::*;

    const LIB: &str = "crates/x/src/lib.rs";

    /// Findings over an in-memory file set of (path, source) pairs.
    fn findings(files: &[(&'static str, &'static str)]) -> Vec<Finding> {
        let sfs: Vec<SourceFile<'static>> = files
            .iter()
            .map(|(p, s)| SourceFile::new(p, s.as_bytes()))
            .collect();
        let mut out = Vec::new();
        check(&sfs, &mut out);
        out.extend(sfs.iter().flat_map(|sf| sf.bad_allow_findings()));
        out
    }

    fn flagged(files: &[(&'static str, &'static str)]) -> Vec<String> {
        findings(files)
            .into_iter()
            .filter(|f| f.rule == Rule::TestOnlyApi)
            .map(|f| f.message)
            .collect()
    }

    #[test]
    fn use_only_in_cfg_test_is_flagged() {
        let lib = "pub fn helper() {}\n#[cfg(test)]\nmod tests {\n  fn t() { super::helper(); }\n}";
        let out = flagged(&[(LIB, lib)]);
        assert_eq!(out.len(), 1);
        assert!(out[0].contains("pub fn `helper`"), "{out:?}");
    }

    #[test]
    fn use_only_in_tests_dir_is_flagged() {
        let out = flagged(&[
            (LIB, "pub struct Probe;"),
            ("crates/x/tests/t.rs", "fn t() { let _ = x::Probe; }"),
            ("tests/e2e.rs", "fn t() { let _ = x::Probe; }"),
        ]);
        assert_eq!(out.len(), 1, "{out:?}");
    }

    #[test]
    fn use_only_in_doc_comment_is_flagged() {
        let lib = "/// ```\n/// x::CONST_ONE;\n/// ```\npub const CONST_ONE: u8 = 1;";
        assert_eq!(flagged(&[(LIB, lib)]).len(), 1);
    }

    #[test]
    fn use_only_in_pub_use_is_flagged() {
        let out = flagged(&[
            ("crates/x/src/inner.rs", "pub fn reexported() {}"),
            (
                LIB,
                "pub use inner::reexported;\npub(crate) use inner::{reexported as r};",
            ),
        ]);
        assert_eq!(out.len(), 1, "{out:?}");
    }

    #[test]
    fn use_in_perfbench_is_not_flagged() {
        let out = flagged(&[
            (LIB, "pub fn timed() {}"),
            ("perfbench/src/main.rs", "fn main() { x::timed(); }"),
        ]);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn use_in_examples_is_not_flagged() {
        let out = flagged(&[
            (LIB, "pub trait Shown {}\npub enum Kind { A }"),
            ("examples/demo.rs", "fn main() { let _: x::Kind; }"),
            ("crates/x/examples/demo.rs", "fn f(_: &dyn x::Shown) {}"),
        ]);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn qualifiers_and_item_kinds_are_recognized() {
        let lib = "pub const fn a() {}\npub unsafe extern \"C\" fn b() {}\n\
                   pub static C: u8 = 0;\npub type D = u8;\npub(crate) fn e() {}";
        let out = flagged(&[(LIB, lib)]);
        assert_eq!(out.len(), 4, "{out:?}");
        for name in ["`a`", "`b`", "`C`", "`D`"] {
            assert!(out.iter().any(|m| m.contains(name)), "{name} in {out:?}");
        }
    }

    #[test]
    fn definitions_are_not_uses() {
        // A same-named definition elsewhere (a trait impl's method) does
        // not keep a pub fn alive; a call does.
        let lib = "pub fn area() {}\nimpl S { fn area(&self) {} }\npub fn len() {}\nfn f(v: &[u8]) { v.len(); }";
        let out = flagged(&[(LIB, lib)]);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].contains("`area`"), "{out:?}");
    }

    #[test]
    fn impl_header_is_not_a_use() {
        // The self type of an inherent or trait impl is defined there, not
        // used; the trait an impl implements stays used.
        let lib = "pub struct Lone;\nimpl Lone { fn f(&self) {} }\n\
                   pub struct Gen<T>(T);\nimpl<T: Fn() -> u8> Shown<T> for a::Gen<T> where T: Copy {}\n\
                   pub trait Shown<T> {}\nfn g(x: impl Shown<u8>) {}";
        let out = flagged(&[(LIB, lib)]);
        assert_eq!(out.len(), 2, "{out:?}");
        assert!(out.iter().any(|m| m.contains("`Lone`")), "{out:?}");
        assert!(out.iter().any(|m| m.contains("`Gen`")), "{out:?}");
    }

    #[test]
    fn binaries_define_no_api() {
        let out = flagged(&[
            ("crates/x/src/main.rs", "pub fn cli_only() {}"),
            ("crates/x/src/bin/tool.rs", "pub fn tool_only() {}"),
            ("perfbench/src/stats.rs", "pub fn bench_only() {}"),
        ]);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn annotated_item_is_silent_and_reasonless_one_is_bad_allow() {
        let reasoned = "// lint: allow(test-only-api) — the oracle test compares against it\n\
                        pub fn oracle() {}";
        assert!(findings(&[(LIB, reasoned)]).is_empty());

        let bare = "// lint: allow(test-only-api)\npub fn oracle() {}";
        let out = findings(&[(LIB, bare)]);
        assert!(out.iter().any(|f| f.rule == Rule::BadAllow), "{out:?}");
        assert!(out.iter().any(|f| f.rule == Rule::TestOnlyApi), "{out:?}");
    }
}
