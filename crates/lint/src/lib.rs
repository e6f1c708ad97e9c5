//! `caffeine-lint` — a zero-dependency static checker for the
//! workspace's hardest-won invariants.
//!
//! Tests catch violations *when they run the violating path*; this crate
//! makes five whole violation classes unwritable at commit time, in
//! milliseconds, over the workspace's own source:
//!
//! * **determinism** — no wall clocks or hash-map iteration in the
//!   deterministic engine crates (bit-exact resume would silently break);
//! * **lock-order** — nested `.lock()` acquisitions must follow the
//!   order declared in `lint.toml` (static complement to the chaos
//!   suite's dynamic hunting);
//! * **panic-freedom** — no `unwrap`/`expect`/`panic!` in serve's
//!   request-path modules (a panic kills a worker or poisons a lock);
//! * **hygiene** — every crate pins `#![deny(unsafe_code)]`, and every
//!   relative markdown link resolves;
//! * **test-only-api** — every `pub` item of a library crate is named by
//!   some non-test code (a binary, an example, perfbench or another
//!   library), so API that only tests call is deleted or justified.
//!
//! Intentional exceptions are silenced only by an inline
//! `// lint: allow(<rule>) — <reason>` annotation; a reason-less allow is
//! itself a violation (`bad-allow`). The full contract lives in
//! `docs/LINTS.md`.
//!
//! Run as `cargo run -p caffeine-lint`: machine-readable JSON findings on
//! stdout (one object per line), human summary on stderr, exit 1 when
//! anything fires.

#![deny(unsafe_code)]

pub mod config;
pub mod findings;
pub mod lexer;
pub mod rules;
pub mod source;

use std::path::{Path, PathBuf};

use config::Config;
use findings::{Finding, Rule};
use source::SourceFile;

/// Run every applicable rule against one Rust source file identified by
/// its workspace-relative path.
///
/// The cross-file `test-only-api` rule needs the whole workspace, so it
/// runs only in [`run_workspace`].
pub fn check_rust_source(rel_path: &str, bytes: &[u8], cfg: &Config) -> Vec<Finding> {
    check_source(&SourceFile::new(rel_path, bytes), cfg)
}

fn check_source(sf: &SourceFile<'_>, cfg: &Config) -> Vec<Finding> {
    let rel_path = sf.path;
    let mut out = Vec::new();
    if determinism_applies(rel_path, cfg) {
        rules::determinism::check(sf, &mut out);
    }
    if cfg.panic_freedom_files.iter().any(|f| f == rel_path) {
        rules::panic_freedom::check(sf, &mut out);
    }
    if cfg.lock_order_files.iter().any(|f| f == rel_path) {
        rules::lock_order::check(sf, cfg, &mut out);
    }
    if is_crate_root(rel_path) {
        rules::hygiene::check(sf, &mut out);
    }
    out.extend(sf.bad_allow_findings());
    out
}

/// Nested-lock events for one file (the `--locks` debugging view).
pub fn lock_events(
    rel_path: &str,
    bytes: &[u8],
    cfg: &Config,
) -> Vec<rules::lock_order::PairEvent> {
    let sf = SourceFile::new(rel_path, bytes);
    rules::lock_order::pairs(&sf, cfg)
}

/// Run the doc-links rule against one markdown file.
pub fn check_markdown(root: &Path, rel_path: &str, bytes: &[u8]) -> Vec<Finding> {
    let mut out = Vec::new();
    rules::doc_links::check(root, rel_path, bytes, &mut out);
    out
}

fn determinism_applies(rel_path: &str, cfg: &Config) -> bool {
    cfg.determinism_crates
        .iter()
        .any(|c| rel_path.starts_with(&format!("crates/{c}/src/")))
}

fn is_crate_root(rel_path: &str) -> bool {
    rel_path.starts_with("crates/") && rel_path.ends_with("/src/lib.rs")
}

/// Load `lint.toml` from the workspace root.
pub fn load_config(root: &Path) -> Result<Config, String> {
    let path = root.join("lint.toml");
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    config::parse(&text).map_err(|e| e.to_string())
}

/// Lint the whole workspace under `root`: the per-file rules over every
/// Rust file, then the cross-file `test-only-api` rule over all of them
/// plus `perfbench/src`, which is read for uses but not linted (it lives
/// outside the workspace, yet calls workspace API). IO failures become
/// `internal` findings rather than aborting the run.
pub fn run_workspace(root: &Path, cfg: &Config) -> Vec<Finding> {
    let mut out = Vec::new();
    let mut rust_files = Vec::new();
    for top in [
        "crates",
        "src",
        "tests",
        "examples",
        "benches",
        "perfbench/src",
    ] {
        collect_files(&root.join(top), root, cfg, "rs", &mut rust_files);
    }
    rust_files.sort();
    let mut sources = Vec::new();
    for rel in rust_files {
        match std::fs::read(root.join(&rel)) {
            Ok(bytes) => sources.push((rel, bytes)),
            Err(e) => out.push(Finding::new(
                Rule::Internal,
                &rel,
                0,
                format!("cannot read file: {e}"),
            )),
        }
    }
    let files: Vec<SourceFile<'_>> = sources
        .iter()
        .map(|(rel, bytes)| SourceFile::new(rel, bytes))
        .collect();
    for sf in files.iter().filter(|sf| !sf.path.starts_with("perfbench/")) {
        out.extend(check_source(sf, cfg));
    }
    rules::test_only_api::check(&files, &mut out);
    let mut md_files = Vec::new();
    for doc_root in &cfg.doc_roots {
        let p = root.join(doc_root);
        if p.is_dir() {
            collect_files(&p, root, cfg, "md", &mut md_files);
        } else if p.is_file() {
            md_files.push(doc_root.clone());
        } else {
            out.push(Finding::new(
                Rule::Internal,
                "lint.toml",
                0,
                format!("doc root `{doc_root}` does not exist"),
            ));
        }
    }
    md_files.sort();
    for rel in &md_files {
        match std::fs::read(root.join(rel)) {
            Ok(bytes) => out.extend(check_markdown(root, rel, &bytes)),
            Err(e) => out.push(Finding::new(
                Rule::Internal,
                rel,
                0,
                format!("cannot read file: {e}"),
            )),
        }
    }
    findings::sort(&mut out);
    out
}

/// Recursively collect files with `ext` under `dir` as workspace-relative
/// `/`-separated paths, honoring `[workspace] exclude` prefixes.
fn collect_files(dir: &Path, root: &Path, cfg: &Config, ext: &str, out: &mut Vec<String>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return; // absent top-level dirs are fine
    };
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for path in paths {
        let Some(rel) = workspace_rel(&path, root) else {
            continue;
        };
        if cfg
            .exclude
            .iter()
            .any(|x| rel == *x || rel.starts_with(&format!("{x}/")))
        {
            continue;
        }
        if path.is_dir() {
            collect_files(&path, root, cfg, ext, out);
        } else if path.extension().and_then(|e| e.to_str()) == Some(ext) {
            out.push(rel);
        }
    }
}

/// `root`-relative `/`-separated form of `path`.
pub fn workspace_rel(path: &Path, root: &Path) -> Option<String> {
    let rel = path.strip_prefix(root).ok()?;
    let mut s = String::new();
    for c in rel.components() {
        if !s.is_empty() {
            s.push('/');
        }
        s.push_str(&c.as_os_str().to_string_lossy());
    }
    Some(s)
}
