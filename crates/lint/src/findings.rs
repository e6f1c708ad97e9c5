//! Finding model and machine-readable rendering.

/// The rule that produced a finding. Names here are the same strings the
/// allow-annotation contract uses: `// lint: allow(<rule>) — <reason>`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Rule {
    Determinism,
    LockOrder,
    PanicFreedom,
    Hygiene,
    DocLinks,
    TestOnlyApi,
    /// Meta-rule: a malformed or reason-less allow annotation. Cannot
    /// itself be allowed.
    BadAllow,
    /// Meta-rule: lint.toml or a source file could not be read/parsed.
    Internal,
}

impl Rule {
    pub fn name(self) -> &'static str {
        match self {
            Rule::Determinism => "determinism",
            Rule::LockOrder => "lock-order",
            Rule::PanicFreedom => "panic-freedom",
            Rule::Hygiene => "hygiene",
            Rule::DocLinks => "doc-links",
            Rule::TestOnlyApi => "test-only-api",
            Rule::BadAllow => "bad-allow",
            Rule::Internal => "internal",
        }
    }

    /// Rules an allow annotation may name. `bad-allow` and `internal` are
    /// deliberately absent: a violation in the silencing machinery itself
    /// must stay visible.
    pub fn allowable(name: &str) -> bool {
        matches!(
            name,
            "determinism"
                | "lock-order"
                | "panic-freedom"
                | "hygiene"
                | "doc-links"
                | "test-only-api"
        )
    }
}

/// One violation at a source location.
#[derive(Clone, Debug)]
pub struct Finding {
    pub rule: Rule,
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    pub message: String,
}

impl Finding {
    pub fn new(rule: Rule, path: &str, line: u32, message: impl Into<String>) -> Finding {
        Finding {
            rule,
            path: path.to_string(),
            line,
            message: message.into(),
        }
    }

    /// One finding as a JSON object (the machine-readable output format:
    /// one object per line on stdout).
    pub fn to_json(&self) -> String {
        format!(
            r#"{{"rule":{},"file":{},"line":{},"message":{}}}"#,
            json_str(self.rule.name()),
            json_str(&self.path),
            self.line,
            json_str(&self.message)
        )
    }

    /// `path:line: [rule] message` for humans.
    pub fn to_text(&self) -> String {
        format!(
            "{}:{}: [{}] {}",
            self.path,
            self.line,
            self.rule.name(),
            self.message
        )
    }
}

/// Minimal JSON string escaping (the only JSON this crate emits).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Deterministic report order: path, then line, then rule name.
pub fn sort(findings: &mut [Finding]) {
    findings.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.rule.name(), a.message.as_str()).cmp(&(
            b.path.as_str(),
            b.line,
            b.rule.name(),
            b.message.as_str(),
        ))
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes() {
        let f = Finding::new(Rule::Determinism, "a/b.rs", 3, "uses \"Instant::now\"\n");
        assert_eq!(
            f.to_json(),
            r#"{"rule":"determinism","file":"a/b.rs","line":3,"message":"uses \"Instant::now\"\n"}"#
        );
    }

    #[test]
    fn meta_rules_not_allowable() {
        assert!(Rule::allowable("determinism"));
        assert!(!Rule::allowable("bad-allow"));
        assert!(!Rule::allowable("internal"));
        assert!(!Rule::allowable("everything"));
    }
}
