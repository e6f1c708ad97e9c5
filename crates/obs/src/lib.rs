//! Zero-dependency observability primitives for the CAFFEINE workspace.
//!
//! Three small, composable pieces:
//!
//! * **Structured leveled logging** ([`Logger`]): one line per event, in a
//!   `key=value` text format or a JSON-object-per-line format, filtered by
//!   [`Level`]. Logs below the configured level cost one enum comparison.
//! * **Span timers** ([`PhaseAccumulator`], [`Span`]): a guard that records
//!   its elapsed wall time into a named phase cell on drop. Cells are plain
//!   atomics, so accumulators can be shared across threads and sampled
//!   without stopping the work they measure. The runtime reads one
//!   accumulator per search, once per stats interval, and that one record
//!   feeds every sink: progress frames, `/metrics` and the job trace.
//! * **Request ids** ([`request_id`]): short unique hex tokens for
//!   request/response correlation, safe to accept from untrusted clients
//!   after [`valid_request_id`] screening.
//!
//! * **Distributed tracing** ([`trace`]): W3C `traceparent` propagation
//!   ([`TraceContext`]), RAII spans ([`TraceSpan`]) and a bounded
//!   tail-sampling store of completed traces ([`TraceStore`]) — the
//!   per-request counterpart to the aggregate phase timers above.
//!
//! Everything here is plain `std`; the crate exists so the engine, runtime
//! and serving layers can share one vocabulary for "where did the time go"
//! without pulling in a logging framework.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod trace;

pub use trace::{
    CompletedTrace, SpanKind, SpanRecord, TraceContext, TraceSpan, TraceStore, TraceStoreConfig,
    TraceStoreStats, TraceSummary,
};

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Log severity, ordered from most to least urgent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// The operation failed.
    Error,
    /// Something is degraded (e.g. a slow request) but service continues.
    Warn,
    /// Routine operational events: one access-log line per request.
    Info,
    /// High-volume detail for debugging (per-handler internals).
    Debug,
}

impl Level {
    /// The lowercase name used in log lines and on the command line.
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
        }
    }

    /// Parses a level name (case-insensitive).
    ///
    /// # Errors
    ///
    /// A human-readable message listing the valid names.
    pub fn parse(s: &str) -> Result<Level, String> {
        match s.to_ascii_lowercase().as_str() {
            "error" => Ok(Level::Error),
            "warn" | "warning" => Ok(Level::Warn),
            "info" => Ok(Level::Info),
            "debug" => Ok(Level::Debug),
            other => Err(format!(
                "unknown log level `{other}` (use error, warn, info, or debug)"
            )),
        }
    }
}

/// The wire format of emitted log lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogFormat {
    /// `ts=... level=info event=http.access key=value ...`
    Text,
    /// One JSON object per line: `{"ts":...,"level":"info",...}`.
    Json,
}

impl LogFormat {
    /// Parses a format name (case-insensitive).
    ///
    /// # Errors
    ///
    /// A human-readable message listing the valid names.
    pub fn parse(s: &str) -> Result<LogFormat, String> {
        match s.to_ascii_lowercase().as_str() {
            "text" => Ok(LogFormat::Text),
            "json" => Ok(LogFormat::Json),
            other => Err(format!("unknown log format `{other}` (use text or json)")),
        }
    }
}

/// A typed log-field value; build with the `From` impls.
#[derive(Debug, Clone, PartialEq)]
pub enum Field {
    /// A string value (quoted in text format when it contains spaces).
    Str(String),
    /// An unsigned integer.
    U64(u64),
    /// A signed integer.
    I64(i64),
    /// A float, rendered with three decimals.
    F64(f64),
    /// A boolean.
    Bool(bool),
}

impl From<&str> for Field {
    fn from(v: &str) -> Field {
        Field::Str(v.to_string())
    }
}
impl From<String> for Field {
    fn from(v: String) -> Field {
        Field::Str(v)
    }
}
impl From<&String> for Field {
    fn from(v: &String) -> Field {
        Field::Str(v.clone())
    }
}
impl From<u64> for Field {
    fn from(v: u64) -> Field {
        Field::U64(v)
    }
}
impl From<usize> for Field {
    fn from(v: usize) -> Field {
        Field::U64(v as u64)
    }
}
impl From<u16> for Field {
    fn from(v: u16) -> Field {
        Field::U64(u64::from(v))
    }
}
impl From<i64> for Field {
    fn from(v: i64) -> Field {
        Field::I64(v)
    }
}
impl From<f64> for Field {
    fn from(v: f64) -> Field {
        Field::F64(v)
    }
}
impl From<bool> for Field {
    fn from(v: bool) -> Field {
        Field::Bool(v)
    }
}

impl Field {
    fn render_text(&self, out: &mut String) {
        match self {
            Field::Str(s) => {
                if s.is_empty() || s.contains(|c: char| c.is_whitespace() || c == '"') {
                    out.push('"');
                    for c in s.chars() {
                        if c == '"' || c == '\\' {
                            out.push('\\');
                        }
                        out.push(c);
                    }
                    out.push('"');
                } else {
                    out.push_str(s);
                }
            }
            Field::U64(v) => out.push_str(&v.to_string()),
            Field::I64(v) => out.push_str(&v.to_string()),
            Field::F64(v) => out.push_str(&format!("{v:.3}")),
            Field::Bool(v) => out.push_str(if *v { "true" } else { "false" }),
        }
    }

    fn render_json(&self, out: &mut String) {
        match self {
            Field::Str(s) => escape_json(s, out),
            Field::U64(v) => out.push_str(&v.to_string()),
            Field::I64(v) => out.push_str(&v.to_string()),
            Field::F64(v) => {
                if v.is_finite() {
                    out.push_str(&format!("{v:.3}"));
                } else {
                    out.push_str("null");
                }
            }
            Field::Bool(v) => out.push_str(if *v { "true" } else { "false" }),
        }
    }
}

/// Writes `s` as a JSON string literal (quotes included) onto `out`.
fn escape_json(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[derive(Debug, Clone)]
enum Sink {
    /// Production sink: `eprintln!`, so the test harness can capture it.
    Stderr,
    /// Test sink: lines accumulate in memory for assertions.
    Capture(Arc<Mutex<String>>),
}

/// A leveled structured logger. Cheap to clone (the sink is shared).
#[derive(Debug, Clone)]
pub struct Logger {
    level: Level,
    format: LogFormat,
    sink: Sink,
}

/// Read side of a [`Logger::capture`] pair: collected log lines.
#[derive(Debug, Clone)]
pub struct LogCapture(Arc<Mutex<String>>);

impl LogCapture {
    /// Everything logged so far (newline-terminated lines).
    pub fn contents(&self) -> String {
        self.0.lock().expect("log capture lock").clone()
    }

    /// The collected lines, split for per-line assertions.
    pub fn lines(&self) -> Vec<String> {
        self.contents().lines().map(str::to_string).collect()
    }
}

impl Logger {
    /// A logger writing to stderr, the production configuration.
    pub fn stderr(level: Level, format: LogFormat) -> Logger {
        Logger {
            level,
            format,
            sink: Sink::Stderr,
        }
    }

    /// A logger writing into memory, plus the handle that reads it back.
    // lint: allow(test-only-api) — obs's and serve's tests read emitted log lines back
    pub fn capture(level: Level, format: LogFormat) -> (Logger, LogCapture) {
        let buf = Arc::new(Mutex::new(String::new()));
        (
            Logger {
                level,
                format,
                sink: Sink::Capture(Arc::clone(&buf)),
            },
            LogCapture(buf),
        )
    }

    /// `true` when events at `level` would be emitted.
    pub fn enabled(&self, level: Level) -> bool {
        level <= self.level
    }

    /// Emits one structured line; a no-op when `level` is filtered out.
    pub fn log(&self, level: Level, event: &str, fields: &[(&str, Field)]) {
        if !self.enabled(level) {
            return;
        }
        let ts = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .unwrap_or(Duration::ZERO);
        let ts = ts.as_secs_f64();
        let mut line = String::with_capacity(96);
        match self.format {
            LogFormat::Text => {
                line.push_str(&format!("ts={ts:.3} level={} event=", level.as_str()));
                Field::Str(event.to_string()).render_text(&mut line);
                for (key, value) in fields {
                    line.push(' ');
                    line.push_str(key);
                    line.push('=');
                    value.render_text(&mut line);
                }
            }
            LogFormat::Json => {
                line.push_str(&format!(
                    "{{\"ts\":{ts:.3},\"level\":\"{}\",\"event\":",
                    level.as_str()
                ));
                escape_json(event, &mut line);
                for (key, value) in fields {
                    line.push(',');
                    escape_json(key, &mut line);
                    line.push(':');
                    value.render_json(&mut line);
                }
                line.push('}');
            }
        }
        match &self.sink {
            Sink::Stderr => eprintln!("{line}"),
            Sink::Capture(buf) => {
                let mut buf = buf.lock().expect("log capture lock");
                buf.push_str(&line);
                buf.push('\n');
            }
        }
    }

    /// [`Logger::log`] at [`Level::Error`].
    pub fn error(&self, event: &str, fields: &[(&str, Field)]) {
        self.log(Level::Error, event, fields);
    }

    /// [`Logger::log`] at [`Level::Warn`].
    pub fn warn(&self, event: &str, fields: &[(&str, Field)]) {
        self.log(Level::Warn, event, fields);
    }

    /// [`Logger::log`] at [`Level::Info`].
    pub fn info(&self, event: &str, fields: &[(&str, Field)]) {
        self.log(Level::Info, event, fields);
    }

    /// [`Logger::log`] at [`Level::Debug`].
    pub fn debug(&self, event: &str, fields: &[(&str, Field)]) {
        self.log(Level::Debug, event, fields);
    }
}

/// Named monotonic counters (nanoseconds for spans, raw units for
/// [`PhaseAccumulator::incr`]), shared across threads.
///
/// The cell set is fixed at construction; recording into an unknown name
/// is silently ignored, so instrumentation never panics in release paths.
#[derive(Debug)]
pub struct PhaseAccumulator {
    cells: Vec<(&'static str, AtomicU64)>,
}

impl PhaseAccumulator {
    /// An accumulator with one zeroed cell per name.
    pub fn new(names: &[&'static str]) -> PhaseAccumulator {
        PhaseAccumulator {
            cells: names.iter().map(|&n| (n, AtomicU64::new(0))).collect(),
        }
    }

    fn cell(&self, name: &str) -> Option<&AtomicU64> {
        self.cells.iter().find(|(n, _)| *n == name).map(|(_, c)| c)
    }

    /// Adds raw units (used for counters such as cache hits).
    pub fn incr(&self, name: &str, amount: u64) {
        if let Some(cell) = self.cell(name) {
            cell.fetch_add(amount, Ordering::Relaxed);
        }
    }

    /// Adds a duration (stored as nanoseconds).
    pub fn add(&self, name: &str, elapsed: Duration) {
        self.incr(name, u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX));
    }

    /// The current raw value of a cell (0 for unknown names).
    pub fn get(&self, name: &str) -> u64 {
        self.cell(name).map_or(0, |c| c.load(Ordering::Relaxed))
    }

    /// Every cell's current raw value, in construction order.
    pub fn snapshot(&self) -> Vec<(&'static str, u64)> {
        self.cells
            .iter()
            .map(|(n, c)| (*n, c.load(Ordering::Relaxed)))
            .collect()
    }

    /// A guard that adds its elapsed wall time to `name` when dropped.
    pub fn span(&self, name: &'static str) -> Span<'_> {
        Span {
            acc: self,
            name,
            start: Instant::now(),
        }
    }
}

/// The timing guard of [`PhaseAccumulator::span`]; records on drop.
#[derive(Debug)]
pub struct Span<'a> {
    acc: &'a PhaseAccumulator,
    name: &'static str,
    start: Instant,
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        self.acc.add(self.name, self.start.elapsed());
    }
}

/// Mixes a seed into a well-distributed 64-bit value (splitmix64 finalizer).
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A fresh 16-hex-char request id, unique within (and overwhelmingly
/// likely across) a process: wall-clock nanoseconds mixed with a process
/// counter through splitmix64.
pub fn request_id() -> String {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let count = COUNTER.fetch_add(1, Ordering::Relaxed);
    let nanos = SystemTime::now().duration_since(UNIX_EPOCH).map_or(0, |d| {
        u64::try_from(d.as_nanos() & u128::from(u64::MAX)).unwrap_or(0)
    });
    let id = splitmix64(nanos ^ count.wrapping_mul(0x9e37_79b9_7f4a_7c15)) | 1;
    format!("{id:016x}")
}

/// Screens a client-supplied `X-Request-Id`: 1–64 chars of
/// `[A-Za-z0-9._:-]`. Anything else is replaced with a generated id, so
/// hostile values can never corrupt log lines or response headers.
pub fn valid_request_id(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'-' | b'_' | b'.' | b':'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_order_and_parse() {
        assert!(Level::Error < Level::Warn);
        assert!(Level::Info < Level::Debug);
        assert_eq!(Level::parse("WARN").unwrap(), Level::Warn);
        assert_eq!(Level::parse("warning").unwrap(), Level::Warn);
        assert_eq!(Level::parse("debug").unwrap(), Level::Debug);
        assert!(Level::parse("loud").is_err());
        assert_eq!(LogFormat::parse("JSON").unwrap(), LogFormat::Json);
        assert!(LogFormat::parse("xml").is_err());
    }

    #[test]
    fn text_lines_render_key_values() {
        let (logger, capture) = Logger::capture(Level::Info, LogFormat::Text);
        logger.info(
            "http.access",
            &[
                ("route", "predict".into()),
                ("status", 200u16.into()),
                ("latency_ms", 1.5f64.into()),
                ("agent", "a b".into()),
            ],
        );
        let line = capture.contents();
        assert!(line.contains("level=info"), "{line}");
        assert!(line.contains("event=http.access"), "{line}");
        assert!(line.contains("route=predict"), "{line}");
        assert!(line.contains("status=200"), "{line}");
        assert!(line.contains("latency_ms=1.500"), "{line}");
        assert!(line.contains("agent=\"a b\""), "{line}");
        assert!(line.contains("ts="), "{line}");
    }

    #[test]
    fn json_lines_are_parseable_objects() {
        let (logger, capture) = Logger::capture(Level::Debug, LogFormat::Json);
        logger.debug(
            "predict",
            &[
                ("model", "ota \"x\"\n".into()),
                ("points", 3usize.into()),
                ("ok", true.into()),
                ("nan", f64::NAN.into()),
            ],
        );
        let line = capture.lines().pop().unwrap();
        assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        assert!(line.contains("\"event\":\"predict\""), "{line}");
        assert!(line.contains("\"model\":\"ota \\\"x\\\"\\n\""), "{line}");
        assert!(line.contains("\"points\":3"), "{line}");
        assert!(line.contains("\"ok\":true"), "{line}");
        // Non-finite floats degrade to null instead of invalid JSON.
        assert!(line.contains("\"nan\":null"), "{line}");
    }

    #[test]
    fn level_filter_suppresses_lines() {
        let (logger, capture) = Logger::capture(Level::Warn, LogFormat::Text);
        logger.info("quiet", &[]);
        logger.debug("quieter", &[]);
        assert_eq!(capture.contents(), "");
        logger.warn("loud", &[]);
        logger.error("louder", &[]);
        assert_eq!(capture.lines().len(), 2);
        assert!(logger.enabled(Level::Error));
        assert!(!logger.enabled(Level::Info));
    }

    #[test]
    fn spans_accumulate_into_named_cells() {
        let acc = PhaseAccumulator::new(&["solve", "eval"]);
        {
            let _s = acc.span("solve");
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(acc.get("solve") >= 1_000_000, "{}", acc.get("solve"));
        assert_eq!(acc.get("eval"), 0);
        assert_eq!(acc.get("unknown"), 0);
        acc.incr("eval", 7);
        assert_eq!(acc.get("eval"), 7);
        assert_eq!(acc.snapshot().len(), 2);
    }

    #[test]
    fn request_ids_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1000 {
            let id = request_id();
            assert_eq!(id.len(), 16, "{id}");
            assert!(valid_request_id(&id), "{id}");
            assert!(seen.insert(id));
        }
    }

    #[test]
    fn request_id_screening_rejects_hostile_values() {
        assert!(valid_request_id("req-1.2:abc_DEF"));
        assert!(!valid_request_id(""));
        assert!(!valid_request_id(&"x".repeat(65)));
        assert!(!valid_request_id("has space"));
        assert!(!valid_request_id("newline\nid"));
        assert!(!valid_request_id("quote\"id"));
    }
}
