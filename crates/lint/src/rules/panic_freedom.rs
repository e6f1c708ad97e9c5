//! Rule `panic-freedom`: no panicking constructs in the daemon's
//! request-path modules.
//!
//! A panic on a pool worker, the acceptor, or the SSE streamer thread
//! either kills that thread (silently degrading capacity) or poisons a
//! mutex every later request trips over. Request-path code must turn
//! failures into structured 4xx/5xx responses instead. The covered
//! modules are listed in `lint.toml` `[panic_freedom] files`; deliberate
//! panic sites (e.g. the single audited lock-poison escalation point)
//! carry an allow annotation with a reason.
//!
//! Flagged: `.unwrap()`, `.expect(…)`, `.unwrap_err()`, `.expect_err(…)`,
//! `panic!`, `unreachable!`, `todo!`, `unimplemented!`. Out of scope
//! (documented in docs/LINTS.md): slice indexing and arithmetic overflow,
//! plus `assert!` family — the codebase uses asserts for startup-time
//! invariants, not per-request paths.

use crate::findings::{Finding, Rule};
use crate::lexer::TokKind;
use crate::source::SourceFile;

const PANIC_METHODS: &[&str] = &["unwrap", "expect", "unwrap_err", "expect_err"];
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

pub fn check(sf: &SourceFile<'_>, out: &mut Vec<Finding>) {
    let src = sf.bytes;
    let toks = sf.code_tokens();
    for (k, &t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || sf.byte_in_test(t.lo) {
            continue;
        }
        let next_punct = |ahead: usize| toks.get(k + ahead).and_then(|t| t.punct(src));
        let prev_punct = || (k > 0).then(|| toks[k - 1].punct(src)).flatten();
        let text = t.text(src);
        if PANIC_METHODS.iter().any(|m| text == m.as_bytes())
            && prev_punct() == Some(b'.')
            && next_punct(1) == Some(b'(')
        {
            let name = String::from_utf8_lossy(text);
            out.extend(sf.filtered(Finding::new(
                Rule::PanicFreedom,
                sf.path,
                t.line,
                format!(
                    ".{name}() in a request-path module — a panic here kills a worker \
                     thread or poisons a lock; return a structured error instead"
                ),
            )));
        }
        if PANIC_MACROS.iter().any(|m| text == m.as_bytes()) && next_punct(1) == Some(b'!') {
            let name = String::from_utf8_lossy(text);
            out.extend(sf.filtered(Finding::new(
                Rule::PanicFreedom,
                sf.path,
                t.line,
                format!(
                    "{name}! in a request-path module — a panic here kills a worker \
                     thread or poisons a lock; return a structured error instead"
                ),
            )));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings(src: &str) -> Vec<Finding> {
        let sf = SourceFile::new("crates/serve/src/handlers.rs", src.as_bytes());
        let mut out = Vec::new();
        check(&sf, &mut out);
        out
    }

    #[test]
    fn unwrap_and_expect_fire() {
        let out = findings("fn f() { x.unwrap(); y.expect(\"m\"); }");
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn unwrap_or_variants_do_not_fire() {
        let src = "fn f() { x.unwrap_or(0); x.unwrap_or_else(|| 0); x.unwrap_or_default(); }";
        assert!(findings(src).is_empty());
    }

    #[test]
    fn panic_macros_fire() {
        let out = findings("fn f() { panic!(\"no\"); unreachable!(); todo!() }");
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn fn_named_unwrap_without_dot_does_not_fire() {
        assert!(findings("fn unwrap() {}").is_empty());
    }

    #[test]
    fn test_module_exempt() {
        let src = "#[cfg(test)]\nmod tests { fn t() { x.unwrap(); panic!(); } }";
        assert!(findings(src).is_empty());
    }

    #[test]
    fn allow_with_reason_silences() {
        let src = "fn f() {\n    // lint: allow(panic-freedom) — poisoned lock means a worker already panicked\n    m.lock().expect(\"poisoned\");\n}";
        assert!(findings(src).is_empty());
    }
}
