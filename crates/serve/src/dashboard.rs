//! The embedded live dashboard served at `GET /dashboard`.
//!
//! One self-contained HTML file — no JS toolchain, no external assets,
//! no CDN — compiled into the binary with `include_str!`. The page polls
//! `GET /v1/jobs` for the job set and follows each live job's
//! `GET /v1/jobs/{id}/events` SSE stream, rendering a log-scale
//! convergence curve, the live (error, complexity) Pareto front carried
//! by `progress` frames, and a per-phase bar breakdown of where the last
//! generation's wall time went. A traces panel polls `GET /v1/traces`
//! and draws the selected trace's span tree as a canvas waterfall.

use caffeine_runtime::PhaseBreakdown;

/// The dashboard template; `__PHASE_KEYS__` stands for the JS list of
/// engine-phase names.
const HTML: &str = include_str!("dashboard.html");

/// The dashboard page, its phase bars named from
/// [`PhaseBreakdown::durations`] (every duration but `wall`).
pub fn page() -> String {
    let keys: Vec<String> = PhaseBreakdown::default()
        .durations()
        .iter()
        .filter(|(name, _)| *name != "wall")
        .map(|(name, _)| format!("\"{name}\""))
        .collect();
    HTML.replacen("__PHASE_KEYS__", &format!("[{}]", keys.join(", ")), 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dashboard_is_self_contained_html() {
        let html = page();
        assert!(html.starts_with("<!DOCTYPE html>"));
        // Zero external dependencies: nothing fetched from another origin.
        assert!(!html.contains("http://"), "external reference in dashboard");
        assert!(
            !html.contains("https://"),
            "external reference in dashboard"
        );
        assert!(!html.contains("<script src"), "external script");
        assert!(!html.contains("<link "), "external stylesheet");
        // It drives the daemon's own API surface.
        assert!(html.contains("/v1/jobs"));
        assert!(html.contains("EventSource"));
        assert!(html.contains("progress"));
        assert!(html.contains("/v1/traces"));
        assert!(html.contains("drawWaterfall"));
        // The phase bars are exactly the engine's duration phases.
        let served: Vec<&str> = html
            .lines()
            .find_map(|l| l.strip_prefix("const PHASE_KEYS = ["))
            .and_then(|l| l.strip_suffix("];"))
            .expect("the page declares PHASE_KEYS")
            .split(", ")
            .map(|key| key.trim_matches('"'))
            .collect();
        let phases: Vec<&str> = PhaseBreakdown::default()
            .durations()
            .iter()
            .map(|&(name, _)| name)
            .filter(|&name| name != "wall")
            .collect();
        assert_eq!(served, phases);
    }
}
