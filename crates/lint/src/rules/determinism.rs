//! Rule `determinism`: no wall-clock reads and no hash-map iteration in
//! the deterministic engine crates.
//!
//! The engine's contract (bit-exact checkpoint/resume, bit-identical
//! results for 1..N threads) dies silently if generation code observes
//! `Instant::now`/`SystemTime` or iterates a `HashMap`/`HashSet` — the
//! randomized hash seed makes iteration order differ between *runs of the
//! same binary*, so a resumed run diverges from the original without any
//! test failing locally. This rule makes both whole classes un-writable
//! in `crates/{core,doe,linalg,posynomial,circuit,runtime}`.
//!
//! Map-iteration detection is name-based: idents bound or typed as
//! `HashMap`/`HashSet` (let bindings, struct fields, fn params — wrapper
//! types `Arc`/`Mutex`/`RwLock`/`Box`/`Option`/`Rc` are looked through)
//! are tracked per file, and `.iter()`/`.iter_mut()`/`.into_iter()`/
//! `.keys()`/`.values()`/`.values_mut()`/`.drain()`/`.retain()` calls or
//! `for … in [&[mut]] name` loops on a tracked name fire. Name tracking
//! keeps `Vec::drain` and friends out of the blast radius.

use std::collections::BTreeSet;

use crate::findings::{Finding, Rule};
use crate::lexer::{TokKind, Token};
use crate::source::SourceFile;

const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "into_keys",
    "into_values",
    "drain",
    "retain",
];

const WRAPPERS: &[&str] = &[
    "Arc", "Mutex", "RwLock", "Box", "Option", "Rc", "RefCell", "Cell",
];

pub fn check(sf: &SourceFile<'_>, out: &mut Vec<Finding>) {
    let src = sf.bytes;
    let map_names = collect_map_names(sf);
    let toks = sf.code_tokens();
    let tok = |k: usize| toks.get(k).copied();

    for (k, &t) in toks.iter().enumerate() {
        if sf.byte_in_test(t.lo) {
            continue;
        }
        // SystemTime anywhere (even an import is a liability here).
        if t.is_ident(src, "SystemTime") {
            out.extend(sf.filtered(Finding::new(
                Rule::Determinism,
                sf.path,
                t.line,
                "SystemTime in a deterministic engine crate — wall-clock reads break \
                 bit-exact resume; route timing through a telemetry side channel",
            )));
        }
        // Instant :: now
        if t.is_ident(src, "Instant")
            && punct(sf, tok(k + 1)) == Some(b':')
            && punct(sf, tok(k + 2)) == Some(b':')
            && tok(k + 3).is_some_and(|n| n.is_ident(src, "now"))
        {
            out.extend(sf.filtered(Finding::new(
                Rule::Determinism,
                sf.path,
                t.line,
                "Instant::now() in a deterministic engine crate — wall-clock reads \
                 break bit-exact resume; route timing through a telemetry side channel",
            )));
        }
        // name . iter_method (
        if t.kind == TokKind::Ident && map_names.contains(t.text(src)) {
            if let (Some(b'.'), Some(m), Some(b'(')) =
                (punct(sf, tok(k + 1)), tok(k + 2), punct(sf, tok(k + 3)))
            {
                if m.kind == TokKind::Ident {
                    let name = String::from_utf8_lossy(m.text(src)).into_owned();
                    if ITER_METHODS.contains(&name.as_str()) {
                        out.extend(sf.filtered(Finding::new(
                            Rule::Determinism,
                            sf.path,
                            t.line,
                            format!(
                                "iteration over hash-based `{}` (`.{}()`) — iteration \
                                 order varies per process and breaks bit-exact resume; \
                                 use a BTreeMap/Vec or sort first",
                                String::from_utf8_lossy(t.text(src)),
                                name
                            ),
                        )));
                    }
                }
            }
        }
        // for pat in [&[mut]] name {   (implicit IntoIterator on a map)
        if t.is_ident(src, "for") {
            if let Some(f) = check_for_loop(sf, &toks, k, &map_names) {
                out.extend(sf.filtered(f));
            }
        }
    }
}

fn punct(sf: &SourceFile<'_>, t: Option<&Token>) -> Option<u8> {
    t.and_then(|t| t.punct(sf.bytes))
}

/// From a `for` keyword at code-token index `k`, find the `in` at
/// paren/bracket depth 0 within a short window and test whether the
/// iterated expression is exactly a tracked map name (optionally behind
/// `&`/`&mut`), ending the loop header.
fn check_for_loop(
    sf: &SourceFile<'_>,
    toks: &[&Token],
    k: usize,
    map_names: &BTreeSet<Vec<u8>>,
) -> Option<Finding> {
    let src = sf.bytes;
    let at = |j: usize| toks.get(j).copied();
    let mut depth = 0i32;
    let mut j = k + 1;
    // Bounded scan: loop patterns are short; 40 tokens is generous.
    let limit = k + 40;
    let in_pos = loop {
        let t = at(j)?;
        match t.punct(src) {
            Some(b'(') | Some(b'[') => depth += 1,
            Some(b')') | Some(b']') => depth -= 1,
            Some(b'{') => return None, // body reached without `in`
            _ => {}
        }
        if depth == 0 && t.is_ident(src, "in") {
            break j;
        }
        j += 1;
        if j > limit {
            return None;
        }
    };
    let mut j = in_pos + 1;
    if at(j).and_then(|t| t.punct(src)) == Some(b'&') {
        j += 1;
    }
    if at(j).is_some_and(|t| t.is_ident(src, "mut")) {
        j += 1;
    }
    let name = at(j)?;
    if name.kind != TokKind::Ident || !map_names.contains(name.text(src)) {
        return None;
    }
    // The loop body must start right after the name — otherwise this is
    // `map.something()` (caught by the method pattern) or a more complex
    // expression we don't judge.
    if at(j + 1).and_then(|t| t.punct(src)) != Some(b'{') {
        return None;
    }
    Some(Finding::new(
        Rule::Determinism,
        sf.path,
        name.line,
        format!(
            "`for … in` over hash-based `{}` — iteration order varies per process \
             and breaks bit-exact resume; use a BTreeMap/Vec or sort first",
            String::from_utf8_lossy(name.text(src))
        ),
    ))
}

/// Names bound or typed as `HashMap`/`HashSet` in this file:
/// `name: HashMap<…>`, `name: &mut HashMap<…>`, `name = HashMap::new()`,
/// `name: Arc<Mutex<HashMap<…>>>`, ….
fn collect_map_names(sf: &SourceFile<'_>) -> BTreeSet<Vec<u8>> {
    let src = sf.bytes;
    let toks = sf.code_tokens();
    let mut names = BTreeSet::new();
    for (k, t) in toks.iter().enumerate() {
        if !(t.is_ident(src, "HashMap") || t.is_ident(src, "HashSet")) {
            continue;
        }
        // Walk backwards over wrapper idents, `<`, `&`, `mut`, lifetimes,
        // and `path::` segments (`std::collections::HashMap`).
        let mut j = k;
        while j > 0 {
            let prev = toks[j - 1];
            // `ident ::` path segment before the current position.
            if prev.punct(src) == Some(b':')
                && j >= 3
                && toks[j - 2].punct(src) == Some(b':')
                && toks[j - 3].kind == TokKind::Ident
            {
                j -= 3;
                continue;
            }
            let skip = match prev.punct(src) {
                Some(b'<') | Some(b'&') => true,
                _ => {
                    prev.kind == TokKind::Lifetime
                        || prev.is_ident(src, "mut")
                        || (prev.kind == TokKind::Ident
                            && WRAPPERS.iter().any(|w| prev.is_ident(src, w)))
                }
            };
            if skip {
                j -= 1;
            } else {
                break;
            }
        }
        if j == 0 {
            continue;
        }
        let sep = toks[j - 1];
        let is_binding = matches!(sep.punct(src), Some(b':') | Some(b'='));
        if !is_binding || j < 2 {
            continue;
        }
        // A lone `:` preceded by another `:` is a path separator the walk
        // above did not fold (defensive; should not happen).
        if sep.punct(src) == Some(b':') && toks[j - 2].punct(src) == Some(b':') {
            continue;
        }
        let name = toks[j - 2];
        if name.kind == TokKind::Ident {
            names.insert(name.text(src).to_vec());
        }
    }
    names
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings(src: &str) -> Vec<Finding> {
        let sf = SourceFile::new("crates/core/src/x.rs", src.as_bytes());
        let mut out = Vec::new();
        check(&sf, &mut out);
        out
    }

    #[test]
    fn instant_now_fires() {
        let out = findings("fn f() { let t = Instant::now(); }");
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("Instant::now"));
    }

    #[test]
    fn instant_elapsed_alone_does_not_fire() {
        assert!(findings("fn f(t: Instant) -> Duration { t.elapsed() }").is_empty());
    }

    #[test]
    fn systemtime_fires_even_as_import() {
        assert_eq!(findings("use std::time::SystemTime;").len(), 1);
    }

    #[test]
    fn map_drain_fires_but_vec_drain_does_not() {
        let src = "
struct S { cache: HashMap<u64, u32>, cols: Vec<u32> }
impl S {
    fn clear(&mut self) {
        for (_, e) in self.cache.drain() { drop(e); }
        for e in self.cols.drain(..) { drop(e); }
    }
}";
        let out = findings(src);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("`cache`"));
    }

    #[test]
    fn insert_only_hashset_is_fine() {
        let src = "
fn dedup(xs: Vec<u64>) -> usize {
    let mut seen = std::collections::HashSet::new();
    xs.into_iter().filter(|x| seen.insert(*x)).count()
}";
        assert!(findings(src).is_empty());
    }

    #[test]
    fn for_loop_over_map_ref_fires() {
        let src = "fn f(m: &HashMap<u32, u32>) { for (k, v) in m { use_it(k, v); } }";
        let out = findings(src);
        assert_eq!(out.len(), 1, "{out:?}");
    }

    #[test]
    fn wrapped_map_field_is_tracked() {
        let src = "
struct S { index: Arc<Mutex<HashMap<u32, u32>>> }
fn f(s: &S) { for k in s.index.keys() { touch(k); } }";
        let out = findings(src);
        assert_eq!(out.len(), 1, "{out:?}");
    }

    #[test]
    fn test_code_is_skipped() {
        let src = "
#[cfg(test)]
mod tests {
    fn t() { let _ = Instant::now(); }
}";
        assert!(findings(src).is_empty());
    }

    #[test]
    fn allow_with_reason_silences() {
        let src = "fn f() {\n    // lint: allow(determinism) — telemetry side channel only\n    let t = Instant::now();\n}";
        assert!(findings(src).is_empty());
    }

    #[test]
    fn string_contents_do_not_fire() {
        assert!(findings(r#"fn f() -> &'static str { "Instant::now" }"#).is_empty());
    }
}
