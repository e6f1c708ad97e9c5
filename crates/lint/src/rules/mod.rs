//! The rule set. Each per-file rule is a pure function from a lexed
//! source file (plus config) to findings; `crate::check_rust_source`
//! decides which rules a given path is subject to. `test_only_api` is the
//! one cross-file rule: it reads the whole workspace at once.

pub mod determinism;
pub mod doc_links;
pub mod hygiene;
pub mod lock_order;
pub mod panic_freedom;
pub mod test_only_api;
