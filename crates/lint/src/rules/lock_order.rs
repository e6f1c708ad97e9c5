//! Rule `lock-order`: nested mutex acquisitions must follow the order
//! declared in `lint.toml`.
//!
//! PR 9's chaos runs flushed lock-discipline bugs out *dynamically*; this
//! rule catches the same class statically, per function, in milliseconds.
//! For every function in a covered file it extracts `.lock()` /
//! `.plock()` acquisition sites (the latter is serve's poison-recovering
//! wrapper; see `crates/serve/src/sync.rs`), models guard lifetimes (a `let`/`if let`/`while let`/`match`
//! binding holds to the end of its enclosing block; a statement-temporary
//! `x.lock().…;` holds to the end of its statement), and on every nested
//! acquisition checks the ordered pair against `[lock_order] order`:
//!
//! * both locks declared, inner earlier than outer → **violation**
//!   (a cycle candidate: some other thread may nest them the other way);
//! * a pair with an undeclared lock → **undeclared pair** (the order list
//!   is the single source of truth; extend it deliberately);
//! * same lock twice → **nested self-acquisition** (self-deadlock with
//!   `std::sync::Mutex`, which is not reentrant).
//!
//! Lock identity is `ImplType.field` for `self.field.lock()` inside an
//! `impl` block and the bare receiver field otherwise;
//! `[lock_order.aliases]` folds differently-spelled paths to one node
//! (e.g. `entry.outcome.lock()` reached from the manager vs.
//! `self.outcome.lock()` inside `impl Job`). Known over-approximations
//! (guards released early via `drop`, locks inside `thread::spawn`
//! closures attributed to the spawning function) are documented in
//! docs/LINTS.md; the fix is an allow annotation with the reason.

use crate::config::Config;
use crate::findings::{Finding, Rule};
use crate::lexer::{TokKind, Token};
use crate::source::SourceFile;

/// One observed nested acquisition: `inner` taken while `outer` held.
#[derive(Debug, Clone)]
pub struct PairEvent {
    pub outer: String,
    pub inner: String,
    pub line: u32,
    pub function: String,
}

/// All nested-acquisition events in a file (for `--locks` and the rule).
pub fn pairs(sf: &SourceFile<'_>, cfg: &Config) -> Vec<PairEvent> {
    let src = sf.bytes;
    let toks = sf.code_tokens();
    let impl_ctx = impl_context(src, &toks);
    let mut events = Vec::new();
    let mut k = 0usize;
    while k < toks.len() {
        if toks[k].is_ident(src, "fn") && !sf.byte_in_test(toks[k].lo) {
            if let Some((name, body_lo, body_hi)) = fn_body(src, &toks, k) {
                analyze_body(
                    src,
                    &toks,
                    &impl_ctx,
                    cfg,
                    &name,
                    body_lo,
                    body_hi,
                    &mut events,
                );
                k = body_hi + 1;
                continue;
            }
        }
        k += 1;
    }
    events
}

pub fn check(sf: &SourceFile<'_>, cfg: &Config, out: &mut Vec<Finding>) {
    let order = &cfg.lock_order;
    let pos = |name: &str| order.iter().position(|o| o == name);
    let mut seen = std::collections::BTreeSet::new();
    for ev in pairs(sf, cfg) {
        let message = if ev.outer == ev.inner {
            format!(
                "nested acquisition of `{}` in `{}` — std::sync::Mutex is not \
                 reentrant; this self-deadlocks",
                ev.inner, ev.function
            )
        } else {
            match (pos(&ev.outer), pos(&ev.inner)) {
                (Some(po), Some(pi)) if pi < po => format!(
                    "lock order violation in `{}`: `{}` acquired while holding `{}`, \
                     but lint.toml declares `{}` before `{}`",
                    ev.function, ev.inner, ev.outer, ev.inner, ev.outer
                ),
                (Some(_), Some(_)) => continue, // declared and well-ordered
                _ => format!(
                    "undeclared nested lock pair in `{}`: `{}` acquired while holding \
                     `{}` — declare both in lint.toml [lock_order] order",
                    ev.function, ev.inner, ev.outer
                ),
            }
        };
        // One finding per (line, message); the same nesting inside a loop
        // would otherwise repeat.
        if seen.insert((ev.line, message.clone())) {
            out.extend(sf.filtered(Finding::new(Rule::LockOrder, sf.path, ev.line, message)));
        }
    }
}

/// For each dense-token index, the `impl` self-type in scope (empty when
/// outside any impl block).
fn impl_context(src: &[u8], toks: &[&Token]) -> Vec<String> {
    let mut ctx = vec![String::new(); toks.len()];
    let mut depth = 0i32;
    let mut stack: Vec<(String, i32)> = Vec::new();
    let mut k = 0usize;
    while k < toks.len() {
        let t = toks[k];
        match t.punct(src) {
            Some(b'{') => depth += 1,
            Some(b'}') => {
                depth -= 1;
                while stack.last().is_some_and(|&(_, d)| depth < d) {
                    stack.pop();
                }
            }
            _ => {}
        }
        if t.is_ident(src, "impl") {
            if let Some((name, _open)) = impl_self_type(src, toks, k) {
                // In scope until the block opened after the header closes.
                stack.push((name, depth + 1));
            }
        }
        if let Some((name, _)) = stack.last() {
            ctx[k].clone_from(name);
        }
        k += 1;
    }
    ctx
}

/// From an `impl` keyword, the self-type name: idents outside `<…>` up to
/// the opening `{` (or `where`), taking the ident after `for` when
/// present (`impl Drop for TraceStore` → `TraceStore`).
fn impl_self_type(src: &[u8], toks: &[&Token], impl_k: usize) -> Option<(String, usize)> {
    let mut angle = 0i32;
    let mut names: Vec<Vec<u8>> = Vec::new();
    let mut after_for: Option<Vec<u8>> = None;
    let mut saw_for = false;
    let mut j = impl_k + 1;
    while j < toks.len() {
        let t = toks[j];
        match t.punct(src) {
            Some(b'<') => angle += 1,
            Some(b'>') => angle = (angle - 1).max(0),
            Some(b'{') => {
                let name = after_for.or_else(|| names.first().cloned())?;
                return Some((String::from_utf8_lossy(&name).into_owned(), j));
            }
            Some(b';') => return None, // `impl Trait for Type;` — not a block
            _ => {}
        }
        if angle == 0 && t.kind == TokKind::Ident {
            if t.is_ident(src, "where") {
                // Bounds follow; the self type is already decided.
                let name = after_for.or_else(|| names.first().cloned())?;
                // Find the `{` to report scope start.
                let mut m = j;
                while m < toks.len() {
                    if toks[m].punct(src) == Some(b'{') {
                        return Some((String::from_utf8_lossy(&name).into_owned(), m));
                    }
                    m += 1;
                }
                return None;
            }
            if t.is_ident(src, "for") {
                saw_for = true;
            } else if saw_for && after_for.is_none() {
                after_for = Some(t.text(src).to_vec());
            } else {
                names.push(t.text(src).to_vec());
            }
        }
        j += 1;
    }
    None
}

/// From a `fn` keyword at `k`: (name, dense index of body `{`, dense
/// index of matching `}`). `None` for braceless trait declarations.
fn fn_body(src: &[u8], toks: &[&Token], k: usize) -> Option<(String, usize, usize)> {
    let name_tok = toks.get(k + 1)?;
    if name_tok.kind != TokKind::Ident {
        return None;
    }
    let name = String::from_utf8_lossy(name_tok.text(src)).into_owned();
    let mut paren = 0i32;
    let mut bracket = 0i32;
    let mut j = k + 2;
    let open = loop {
        let t = toks.get(j)?;
        match t.punct(src) {
            Some(b'(') => paren += 1,
            Some(b')') => paren -= 1,
            Some(b'[') => bracket += 1,
            Some(b']') => bracket -= 1,
            Some(b'{') if paren == 0 && bracket == 0 => break j,
            Some(b';') if paren == 0 && bracket == 0 => return None,
            _ => {}
        }
        j += 1;
    };
    let mut depth = 0i32;
    let mut m = open;
    while m < toks.len() {
        match toks[m].punct(src) {
            Some(b'{') => depth += 1,
            Some(b'}') => {
                depth -= 1;
                if depth == 0 {
                    return Some((name, open, m));
                }
            }
            _ => {}
        }
        m += 1;
    }
    Some((name, open, toks.len().saturating_sub(1)))
}

#[derive(Debug)]
struct Held {
    name: String,
    /// Guard bound by `let`/`if let`/`match`: lives until its block
    /// closes. Otherwise a statement temporary: dies at the next `;`.
    scoped: bool,
    depth: i32,
}

#[allow(clippy::too_many_arguments)]
fn analyze_body(
    src: &[u8],
    toks: &[&Token],
    impl_ctx: &[String],
    cfg: &Config,
    fn_name: &str,
    body_lo: usize,
    body_hi: usize,
    events: &mut Vec<PairEvent>,
) {
    let mut depth = 0i32;
    let mut held: Vec<Held> = Vec::new();
    let mut stmt_scoped = false;
    let mut k = body_lo;
    while k <= body_hi && k < toks.len() {
        let t = toks[k];
        match t.punct(src) {
            Some(b'{') => {
                depth += 1;
                stmt_scoped = false;
            }
            Some(b'}') => {
                depth -= 1;
                held.retain(|h| !(h.scoped && h.depth > depth));
                stmt_scoped = false;
            }
            Some(b';') => {
                held.retain(|h| h.scoped);
                stmt_scoped = false;
            }
            _ => {}
        }
        if t.kind == TokKind::Ident {
            let text = t.text(src);
            if text == b"let" || text == b"match" || text == b"if" || text == b"while" {
                stmt_scoped = true;
            }
            // Nested `fn` items do not execute inline: skip their bodies.
            if text == b"fn" && k > body_lo {
                if let Some((_, _, inner_hi)) = fn_body(src, toks, k) {
                    k = inner_hi + 1;
                    continue;
                }
            }
            if (text == b"lock" || text == b"plock")
                && k >= 2
                && toks[k - 1].punct(src) == Some(b'.')
                && toks.get(k + 1).and_then(|t| t.punct(src)) == Some(b'(')
                && toks.get(k + 2).and_then(|t| t.punct(src)) == Some(b')')
            {
                let name = lock_name(src, toks, impl_ctx, k);
                let canon = cfg.lock_aliases.get(&name).cloned().unwrap_or(name);
                for h in &held {
                    events.push(PairEvent {
                        outer: h.name.clone(),
                        inner: canon.clone(),
                        line: t.line,
                        function: fn_name.to_string(),
                    });
                }
                held.push(Held {
                    name: canon,
                    scoped: stmt_scoped,
                    depth,
                });
            }
        }
        k += 1;
    }
}

/// Identity of the lock acquired at dense index `k` (the `lock` ident):
/// `ImplType.field` for `self.field.lock()` in an impl, the bare field
/// for `other.field.lock()`, `<expr>` when the receiver is not an ident.
fn lock_name(src: &[u8], toks: &[&Token], impl_ctx: &[String], k: usize) -> String {
    let recv = toks.get(k.wrapping_sub(2));
    let Some(recv) = recv.filter(|t| t.kind == TokKind::Ident) else {
        return "<expr>".to_string();
    };
    let field = String::from_utf8_lossy(recv.text(src)).into_owned();
    if field == "self" {
        // Direct `self.lock()` — a type that *is* a lock wrapper.
        let ty = impl_ctx.get(k).cloned().unwrap_or_default();
        return if ty.is_empty() { field } else { ty };
    }
    let self_qualified =
        k >= 4 && toks[k - 3].punct(src) == Some(b'.') && toks[k - 4].is_ident(src, "self");
    if self_qualified {
        let ty = impl_ctx.get(k).cloned().unwrap_or_default();
        if !ty.is_empty() {
            return format!("{ty}.{field}");
        }
    }
    field
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(order: &[&str]) -> Config {
        Config {
            lock_order: order.iter().map(|s| s.to_string()).collect(),
            ..Config::default()
        }
    }

    fn run(src: &str, cfg: &Config) -> Vec<Finding> {
        let sf = SourceFile::new("crates/serve/src/jobs.rs", src.as_bytes());
        let mut out = Vec::new();
        check(&sf, cfg, &mut out);
        out
    }

    const NESTED: &str = "
impl Scheduler {
    fn admit(&self) {
        let st = self.state.lock().unwrap_or_default();
        entry.outcome.lock().set(1);
    }
}";

    #[test]
    fn ordered_pair_is_clean() {
        assert!(run(NESTED, &cfg(&["Scheduler.state", "outcome"])).is_empty());
    }

    #[test]
    fn reversed_order_is_violation() {
        let out = run(NESTED, &cfg(&["outcome", "Scheduler.state"]));
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("lock order violation"));
    }

    #[test]
    fn undeclared_pair_flagged() {
        let out = run(NESTED, &cfg(&["Scheduler.state"]));
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("undeclared nested lock pair"));
    }

    #[test]
    fn sequential_statement_temporaries_do_not_pair() {
        let src = "
fn f(a: M, b: M) {
    a.lock().touch();
    b.lock().touch();
}";
        assert!(run(src, &cfg(&[])).is_empty());
    }

    #[test]
    fn guard_released_by_block_end() {
        let src = "
fn f(s: &S) {
    {
        let g = s.first.lock();
        g.touch();
    }
    let h = s.second.lock();
}";
        assert!(run(src, &cfg(&[])).is_empty());
    }

    #[test]
    fn self_nesting_flagged() {
        let src = "
impl Hub {
    fn f(&self) {
        let a = self.state.lock();
        let b = self.state.lock();
    }
}";
        let out = run(src, &cfg(&["Hub.state"]));
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("not reentrant"));
    }

    #[test]
    fn same_statement_chain_pairs() {
        let src = "fn f(a: M, b: M) { a.lock().push(b.lock().get()); }";
        let out = run(src, &cfg(&["b", "a"]));
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("violation"));
    }

    #[test]
    fn aliases_fold_names() {
        let mut c = cfg(&["Scheduler.state", "outcome"]);
        c.lock_aliases
            .insert("Job.outcome".to_string(), "outcome".to_string());
        let src = "
impl Job {
    fn f(&self) {
        let g = sched.state.lock();
        self.outcome.lock().set(1);
    }
}";
        // `sched.state` is bare `state` — undeclared; shows aliases and
        // qualification interplay.
        let out = run(src, &c);
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("undeclared"), "{out:?}");
    }

    #[test]
    fn plock_counts_as_acquisition() {
        let src = "
impl Scheduler {
    fn admit(&self) {
        let st = self.state.plock();
        entry.outcome.plock().set(1);
    }
}";
        let out = run(src, &cfg(&["outcome", "Scheduler.state"]));
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("lock order violation"));
    }

    #[test]
    fn if_let_guard_held_through_block() {
        let src = "
impl S {
    fn f(&self) {
        if let Ok(g) = self.a.lock() {
            self.b.lock().touch();
        }
    }
}";
        let out = run(src, &cfg(&["S.b", "S.a"]));
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("violation"));
    }
}
