//! Distributed tracing: trace/span identity, W3C `traceparent`
//! propagation, an RAII span guard, and a bounded in-process store of
//! completed traces with tail sampling.
//!
//! The pieces compose bottom-up:
//!
//! * [`TraceContext`] is the propagated identity — a 128-bit trace id
//!   plus the 64-bit id of the current span — parsed from and rendered
//!   to the W3C `traceparent` header. Parsing is **total**: arbitrary
//!   bytes yield `None`, never a panic.
//! * [`SpanRecord`] is one completed span: name, kind, wall-clock start,
//!   duration, key-value attributes, ok/error status, and the parent
//!   link that makes the records a tree.
//! * [`TraceSpan`] is the RAII guard (same clock discipline as
//!   [`crate::PhaseAccumulator`]'s [`crate::Span`]: `Instant` for the
//!   duration, recorded on drop). Layers that only learn about timing
//!   after the fact (engine-phase breakdowns, queue waits) record
//!   [`SpanRecord`]s directly instead.
//! * [`TraceStore`] buffers in-flight traces and keeps a bounded ring of
//!   completed ones with **tail sampling**: the keep/drop decision is
//!   made when the trace completes, so slow traces, errored traces, and
//!   explicitly requested ones (inbound `traceparent` with the sampled
//!   flag) are always retained while routine traffic is sampled at a
//!   configurable rate.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// In-flight spans a single trace may accumulate before further records
/// are dropped (a runaway job must not grow one trace without bound).
const MAX_SPANS_PER_TRACE: usize = 512;
/// In-flight traces the store tracks at once; a request trace lives for
/// one request and a job trace for one job, so this is generous.
const MAX_PENDING_TRACES: usize = 1024;

/// The propagated identity of the current span: which trace this work
/// belongs to and which span is its parent-to-be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// 128-bit trace id shared by every span in the trace (non-zero).
    pub trace_id: u128,
    /// 64-bit id of the current span (non-zero).
    pub span_id: u64,
    /// The `traceparent` sampled flag (`01`). An inbound context with
    /// this set is an explicit request to retain the trace.
    pub sampled: bool,
}

impl TraceContext {
    /// Mints a fresh root context (new trace id, new span id).
    pub fn mint() -> TraceContext {
        TraceContext {
            trace_id: fresh_trace_id(),
            span_id: fresh_span_id(),
            sampled: false,
        }
    }

    /// A child context: same trace, fresh span id, same sampled flag.
    pub fn child(&self) -> TraceContext {
        TraceContext {
            trace_id: self.trace_id,
            span_id: fresh_span_id(),
            sampled: self.sampled,
        }
    }

    /// Parses a W3C `traceparent` header value. Total: any input that is
    /// not a well-formed `00-{32 hex}-{16 hex}-{2 hex}` header (with
    /// non-zero trace and span ids and a known version) yields `None`.
    pub fn parse(header: &str) -> Option<TraceContext> {
        let header = header.trim();
        // version "-" trace-id "-" parent-id "-" flags = 2+1+32+1+16+1+2
        if header.len() != 55 {
            return None;
        }
        let bytes = header.as_bytes();
        if bytes[2] != b'-' || bytes[35] != b'-' || bytes[52] != b'-' {
            return None;
        }
        let version = &header[0..2];
        if !version.bytes().all(|b| b.is_ascii_hexdigit()) || version.eq_ignore_ascii_case("ff") {
            return None;
        }
        let trace_id = parse_hex_u128(&header[3..35])?;
        let span_id = parse_hex_u64(&header[36..52])?;
        let flags = parse_hex_u64(&header[53..55])?;
        if trace_id == 0 || span_id == 0 {
            return None;
        }
        Some(TraceContext {
            trace_id,
            span_id,
            sampled: flags & 0x01 != 0,
        })
    }

    /// Renders the context as a `traceparent` header value.
    pub fn traceparent(&self) -> String {
        let flags: u8 = if self.sampled { 0x01 } else { 0x00 };
        format!(
            "00-{:032x}-{:016x}-{:02x}",
            self.trace_id, self.span_id, flags
        )
    }

    /// The trace id as its canonical 32-char lowercase hex form.
    pub fn trace_id_hex(&self) -> String {
        format!("{:032x}", self.trace_id)
    }
}

/// Strict fixed-width hex: every byte must be a hex digit (no sign, no
/// whitespace, no `0x` — everything `from_str_radix` would forgive).
fn parse_hex_u128(s: &str) -> Option<u128> {
    if !s.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    u128::from_str_radix(s, 16).ok()
}

fn parse_hex_u64(s: &str) -> Option<u64> {
    if !s.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    u64::from_str_radix(s, 16).ok()
}

/// A fresh non-zero 64-bit id (same splitmix64-over-clock-and-counter
/// discipline as [`crate::request_id`]).
pub fn fresh_span_id() -> u64 {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let count = COUNTER.fetch_add(1, Ordering::Relaxed);
    let nanos = unix_ns();
    crate::splitmix64(nanos ^ count.wrapping_mul(0x9e37_79b9_7f4a_7c15)) | 1
}

fn fresh_trace_id() -> u128 {
    (u128::from(fresh_span_id()) << 64) | u128::from(fresh_span_id())
}

/// Wall-clock nanoseconds since the unix epoch (0 when the clock is
/// before the epoch), truncated to 64 bits — good until the year 2554.
pub fn unix_ns() -> u64 {
    SystemTime::now().duration_since(UNIX_EPOCH).map_or(0, |d| {
        u64::try_from(d.as_nanos() & u128::from(u64::MAX)).unwrap_or(0)
    })
}

/// What role a span plays in its trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// Handling an inbound request (the root of a request trace).
    Server,
    /// Issuing an outbound request.
    Client,
    /// Work inside the process (job lifecycle, engine phases).
    Internal,
}

impl SpanKind {
    /// The lowercase label used in rendered traces.
    pub fn as_str(self) -> &'static str {
        match self {
            SpanKind::Server => "server",
            SpanKind::Client => "client",
            SpanKind::Internal => "internal",
        }
    }
}

/// One completed span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// The trace this span belongs to.
    pub trace_id: u128,
    /// This span's id (unique within the trace).
    pub span_id: u64,
    /// Parent span id; `None` for a root, and an id outside the trace's
    /// own spans when the parent lives in another process (an inbound
    /// `traceparent`).
    pub parent_span_id: Option<u64>,
    /// Human-readable operation name (`http POST /v1/jobs`, `queued`,
    /// `basis_eval`, ...).
    pub name: String,
    /// Role of the span.
    pub kind: SpanKind,
    /// Wall-clock start, nanoseconds since the unix epoch.
    pub start_unix_ns: u64,
    /// Elapsed nanoseconds.
    pub duration_ns: u64,
    /// Key-value attributes (route, status, job id, generation, ...).
    pub attrs: Vec<(String, String)>,
    /// `Some(message)` when the span ended in an error; status is ok
    /// otherwise.
    pub error: Option<String>,
}

impl SpanRecord {
    fn approx_bytes(&self) -> usize {
        let attrs: usize = self.attrs.iter().map(|(k, v)| k.len() + v.len() + 8).sum();
        let error = self.error.as_ref().map_or(0, String::len);
        80 + self.name.len() + attrs + error
    }
}

/// An RAII span: measures from construction to [`TraceSpan::finish`] (or
/// drop) on the monotonic clock and records itself into the store. The
/// no-op form ([`TraceSpan::noop`]) records nothing, so instrumented
/// paths need no branching at use sites.
#[derive(Debug)]
pub struct TraceSpan {
    store: Option<Arc<TraceStore>>,
    ctx: TraceContext,
    parent_span_id: Option<u64>,
    name: String,
    kind: SpanKind,
    start_unix_ns: u64,
    started: Instant,
    attrs: Vec<(String, String)>,
    error: Option<String>,
}

impl TraceSpan {
    /// A span that records nothing.
    pub fn noop() -> TraceSpan {
        TraceSpan {
            store: None,
            ctx: TraceContext {
                trace_id: 0,
                span_id: 0,
                sampled: false,
            },
            parent_span_id: None,
            name: String::new(),
            kind: SpanKind::Internal,
            start_unix_ns: 0,
            started: Instant::now(),
            attrs: Vec::new(),
            error: None,
        }
    }

    /// `true` when finishing this span will record somewhere.
    pub fn is_recording(&self) -> bool {
        self.store.is_some()
    }

    /// This span's propagation context (for headers and child spans).
    pub fn context(&self) -> TraceContext {
        self.ctx
    }

    /// Adds a key-value attribute.
    pub fn attr(&mut self, key: &str, value: impl Into<String>) {
        if self.store.is_some() {
            self.attrs.push((key.to_string(), value.into()));
        }
    }

    /// Marks the span as errored.
    pub fn set_error(&mut self, message: impl Into<String>) {
        if self.store.is_some() {
            self.error = Some(message.into());
        }
    }

    /// A child span of this one, started now.
    pub fn child(&self, name: &str, kind: SpanKind) -> TraceSpan {
        match &self.store {
            Some(store) => store.span(name, kind, self.ctx.child(), Some(self.ctx.span_id)),
            None => TraceSpan::noop(),
        }
    }

    /// Ends the span now and records it (drop does the same; `finish`
    /// just makes the end explicit at call sites that care).
    pub fn finish(self) {}
}

impl Drop for TraceSpan {
    fn drop(&mut self) {
        if let Some(store) = self.store.take() {
            store.record(SpanRecord {
                trace_id: self.ctx.trace_id,
                span_id: self.ctx.span_id,
                parent_span_id: self.parent_span_id,
                name: std::mem::take(&mut self.name),
                kind: self.kind,
                start_unix_ns: self.start_unix_ns,
                duration_ns: u64::try_from(self.started.elapsed().as_nanos()).unwrap_or(u64::MAX),
                attrs: std::mem::take(&mut self.attrs),
                error: self.error.take(),
            });
        }
    }
}

/// Tail-sampling and capacity knobs of a [`TraceStore`].
#[derive(Debug, Clone)]
pub struct TraceStoreConfig {
    /// Completed traces retained (ring buffer; older ones are evicted).
    pub capacity: usize,
    /// Fraction of unremarkable traces (not slow, not errored, not
    /// explicitly requested) retained, `0.0..=1.0`. Sampling is
    /// deterministic (every ⌈1/rate⌉-th candidate), not random.
    pub sample_rate: f64,
    /// Traces whose total duration reaches this are always retained
    /// (wire `--slow-request-ms` into this).
    pub slow_threshold: Duration,
}

impl Default for TraceStoreConfig {
    fn default() -> Self {
        TraceStoreConfig {
            capacity: 256,
            sample_rate: 0.1,
            slow_threshold: Duration::from_secs(1),
        }
    }
}

/// A completed, retained trace: its spans plus the roll-up the list view
/// needs.
#[derive(Debug, Clone, PartialEq)]
pub struct CompletedTrace {
    /// Trace id.
    pub trace_id: u128,
    /// Name of the root span.
    pub root_name: String,
    /// Earliest span start, nanoseconds since the unix epoch.
    pub start_unix_ns: u64,
    /// Latest span end minus earliest span start.
    pub duration_ns: u64,
    /// `true` when any span errored.
    pub error: bool,
    /// Every span, in recording order.
    pub spans: Vec<SpanRecord>,
    /// Approximate heap footprint, for the store-bytes gauge.
    pub approx_bytes: usize,
}

/// A list-view row for `GET /v1/traces`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSummary {
    /// Trace id.
    pub trace_id: u128,
    /// Name of the root span.
    pub root_name: String,
    /// Earliest span start, nanoseconds since the unix epoch.
    pub start_unix_ns: u64,
    /// Total duration in nanoseconds.
    pub duration_ns: u64,
    /// Number of spans retained.
    pub n_spans: usize,
    /// `true` when any span errored.
    pub error: bool,
}

/// Monotonic counters describing a [`TraceStore`]'s activity, for the
/// `/metrics` exposition.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceStoreStats {
    /// Spans ever recorded (including spans of traces later dropped).
    pub spans_total: u64,
    /// Completed traces retained by tail sampling.
    pub sampled_total: u64,
    /// Retained traces later evicted by the ring buffer.
    pub dropped_total: u64,
    /// Approximate bytes currently held by the completed-trace ring.
    pub store_bytes: u64,
}

#[derive(Debug, Default)]
struct PendingTrace {
    spans: Vec<SpanRecord>,
    /// Completion is deferred to an explicit owner (a job adopted the
    /// trace); `finish_unless_held` becomes a no-op.
    held: bool,
    /// The request path reached `finish_unless_held` while the trace was
    /// held — the originating request's spans are all recorded, so the
    /// owner's `finish_held` may complete immediately.
    request_done: bool,
    /// The owner reached `finish_held` before the request path did; the
    /// request's eventual `finish_unless_held` completes the trace.
    owner_done: bool,
    /// Tail sampling must retain this trace regardless of duration.
    force_keep: bool,
    error: bool,
}

/// Bounded in-process store of traces.
///
/// Spans are recorded into a pending table as they finish; when the
/// trace completes ([`TraceStore::finish`]) the tail-sampling decision
/// runs and retained traces enter a fixed-capacity ring (oldest evicted
/// first). Every method is thread-safe and total — recording into an
/// unknown or overflowing trace is silently dropped, never a panic.
#[derive(Debug)]
pub struct TraceStore {
    config: TraceStoreConfig,
    pending: Mutex<HashMap<u128, PendingTrace>>,
    completed: Mutex<std::collections::VecDeque<Arc<CompletedTrace>>>,
    spans_total: AtomicU64,
    sampled_total: AtomicU64,
    dropped_total: AtomicU64,
    store_bytes: AtomicU64,
    sample_counter: AtomicU64,
}

impl TraceStore {
    /// An empty store with the given knobs (capacity clamped to ≥ 1,
    /// sample rate to `0.0..=1.0`).
    pub fn new(mut config: TraceStoreConfig) -> TraceStore {
        config.capacity = config.capacity.max(1);
        config.sample_rate = config.sample_rate.clamp(0.0, 1.0);
        TraceStore {
            config,
            pending: Mutex::new(HashMap::new()),
            completed: Mutex::new(std::collections::VecDeque::new()),
            spans_total: AtomicU64::new(0),
            sampled_total: AtomicU64::new(0),
            dropped_total: AtomicU64::new(0),
            store_bytes: AtomicU64::new(0),
            sample_counter: AtomicU64::new(0),
        }
    }

    /// The configured knobs.
    pub fn config(&self) -> &TraceStoreConfig {
        &self.config
    }

    /// Starts an RAII span recording into this store on drop.
    pub fn span(
        self: &Arc<Self>,
        name: &str,
        kind: SpanKind,
        ctx: TraceContext,
        parent_span_id: Option<u64>,
    ) -> TraceSpan {
        TraceSpan {
            store: Some(Arc::clone(self)),
            ctx,
            parent_span_id,
            name: name.to_string(),
            kind,
            start_unix_ns: unix_ns(),
            started: Instant::now(),
            attrs: Vec::new(),
            error: None,
        }
    }

    /// Records one completed span into its pending trace. Bounded: a
    /// trace past `MAX_SPANS_PER_TRACE` spans, or a span for a brand
    /// new trace when `MAX_PENDING_TRACES` are already in flight, is
    /// dropped silently.
    pub fn record(&self, span: SpanRecord) {
        self.spans_total.fetch_add(1, Ordering::Relaxed);
        let mut pending = self.pending.lock().expect("trace store lock");
        if !pending.contains_key(&span.trace_id) && pending.len() >= MAX_PENDING_TRACES {
            return;
        }
        let trace = pending.entry(span.trace_id).or_default();
        if trace.spans.len() >= MAX_SPANS_PER_TRACE {
            return;
        }
        trace.error |= span.error.is_some();
        trace.spans.push(span);
    }

    /// Defers completion of a trace to an explicit later
    /// [`TraceStore::finish`] — [`TraceStore::finish_unless_held`]
    /// becomes a no-op for it. Used when a job adopts the submitting
    /// request's trace and outlives the request.
    pub fn hold(&self, trace_id: u128) {
        let mut pending = self.pending.lock().expect("trace store lock");
        if pending.len() < MAX_PENDING_TRACES || pending.contains_key(&trace_id) {
            pending.entry(trace_id).or_default().held = true;
        }
    }

    /// Reverses a [`TraceStore::hold`]: the would-be owner failed to take
    /// over, so `finish_unless_held` applies to the trace again.
    pub fn release(&self, trace_id: u128) {
        if let Some(trace) = self
            .pending
            .lock()
            .expect("trace store lock")
            .get_mut(&trace_id)
        {
            trace.held = false;
        }
    }

    /// Marks a trace as always-retained by tail sampling (explicitly
    /// requested via the inbound sampled flag, or otherwise notable).
    pub fn force_keep(&self, trace_id: u128) {
        let mut pending = self.pending.lock().expect("trace store lock");
        if pending.len() < MAX_PENDING_TRACES || pending.contains_key(&trace_id) {
            pending.entry(trace_id).or_default().force_keep = true;
        }
    }

    /// Completes a trace unless a longer-lived owner [`TraceStore::hold`]s
    /// it — the per-request path, so one request's trace survives its
    /// adoption by a job. On a held trace it instead marks the request
    /// side done; if the owner already reached [`TraceStore::finish_held`]
    /// (a job that outran its own submit response), the trace completes
    /// now, with the request's spans included.
    pub fn finish_unless_held(&self, trace_id: u128) {
        let finish_now = {
            let mut pending = self.pending.lock().expect("trace store lock");
            match pending.get_mut(&trace_id) {
                None => false,
                Some(t) if t.held => {
                    t.request_done = true;
                    t.owner_done
                }
                Some(_) => true,
            }
        };
        if finish_now {
            self.finish(trace_id);
        }
    }

    /// Completion from the trace's [`TraceStore::hold`]er (a job's event
    /// pump): completes the trace only once the originating request has
    /// also finished, so a job that outruns its own submit response
    /// cannot publish a tree missing the request's root span. When the
    /// request side is still in flight, the trace stays pending and the
    /// request's `finish_unless_held` completes it.
    pub fn finish_held(&self, trace_id: u128) {
        let finish_now = {
            let mut pending = self.pending.lock().expect("trace store lock");
            match pending.get_mut(&trace_id) {
                None => false,
                Some(t) if t.held && !t.request_done => {
                    t.owner_done = true;
                    false
                }
                Some(_) => true,
            }
        };
        if finish_now {
            self.finish(trace_id);
        }
    }

    /// Completes a trace: runs the tail-sampling decision over its
    /// recorded spans and retains it in the ring when it was slow,
    /// errored, force-kept, or picked by the sampling rate. A no-op for
    /// unknown (or already finished) trace ids.
    pub fn finish(&self, trace_id: u128) {
        let Some(trace) = self
            .pending
            .lock()
            .expect("trace store lock")
            .remove(&trace_id)
        else {
            return;
        };
        if trace.spans.is_empty() {
            return;
        }
        let start = trace
            .spans
            .iter()
            .map(|s| s.start_unix_ns)
            .min()
            .unwrap_or(0);
        let end = trace
            .spans
            .iter()
            .map(|s| s.start_unix_ns.saturating_add(s.duration_ns))
            .max()
            .unwrap_or(start);
        let duration_ns = end.saturating_sub(start);
        let slow = u128::from(duration_ns) >= self.config.slow_threshold.as_nanos();
        let keep = trace.force_keep || trace.error || slow || self.sample();
        if !keep {
            return;
        }
        let ids: std::collections::HashSet<u64> = trace.spans.iter().map(|s| s.span_id).collect();
        let root = trace
            .spans
            .iter()
            .find(|s| s.parent_span_id.is_none_or(|p| !ids.contains(&p)))
            .unwrap_or(&trace.spans[0]);
        let approx_bytes = 96
            + trace
                .spans
                .iter()
                .map(SpanRecord::approx_bytes)
                .sum::<usize>();
        let completed = Arc::new(CompletedTrace {
            trace_id,
            root_name: root.name.clone(),
            start_unix_ns: start,
            duration_ns,
            error: trace.error,
            spans: trace.spans,
            approx_bytes,
        });
        let mut ring = self.completed.lock().expect("trace store lock");
        while ring.len() >= self.config.capacity {
            if let Some(evicted) = ring.pop_front() {
                self.dropped_total.fetch_add(1, Ordering::Relaxed);
                self.store_bytes
                    .fetch_sub(evicted.approx_bytes as u64, Ordering::Relaxed);
            }
        }
        self.store_bytes
            .fetch_add(approx_bytes as u64, Ordering::Relaxed);
        self.sampled_total.fetch_add(1, Ordering::Relaxed);
        ring.push_back(completed);
    }

    /// The deterministic keep-1-in-N decision for unremarkable traces.
    fn sample(&self) -> bool {
        let rate = self.config.sample_rate;
        if rate <= 0.0 {
            return false;
        }
        if rate >= 1.0 {
            return true;
        }
        let period = (1.0 / rate).round().max(1.0) as u64;
        self.sample_counter.fetch_add(1, Ordering::Relaxed) % period == 0
    }

    /// Retained traces, newest first, optionally filtered by minimum
    /// duration, error status, and one `key=value` attribute match on
    /// any span (the handlers use `("job.id", id)`).
    pub fn list(
        &self,
        min_duration: Duration,
        error_only: bool,
        attr: Option<(&str, &str)>,
    ) -> Vec<TraceSummary> {
        let min_ns = u64::try_from(min_duration.as_nanos()).unwrap_or(u64::MAX);
        self.completed
            .lock()
            .expect("trace store lock")
            .iter()
            .rev()
            .filter(|t| t.duration_ns >= min_ns)
            .filter(|t| !error_only || t.error)
            .filter(|t| {
                attr.is_none_or(|(key, value)| {
                    t.spans
                        .iter()
                        .any(|s| s.attrs.iter().any(|(k, v)| k == key && v == value))
                })
            })
            .map(|t| TraceSummary {
                trace_id: t.trace_id,
                root_name: t.root_name.clone(),
                start_unix_ns: t.start_unix_ns,
                duration_ns: t.duration_ns,
                n_spans: t.spans.len(),
                error: t.error,
            })
            .collect()
    }

    /// One retained trace with all its spans.
    pub fn get(&self, trace_id: u128) -> Option<Arc<CompletedTrace>> {
        self.completed
            .lock()
            .expect("trace store lock")
            .iter()
            .rev()
            .find(|t| t.trace_id == trace_id)
            .cloned()
    }

    /// The store's activity counters.
    pub fn stats(&self) -> TraceStoreStats {
        TraceStoreStats {
            spans_total: self.spans_total.load(Ordering::Relaxed),
            sampled_total: self.sampled_total.load(Ordering::Relaxed),
            dropped_total: self.dropped_total.load(Ordering::Relaxed),
            store_bytes: self.store_bytes.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(store: &TraceStore, trace: u128, span: u64, parent: Option<u64>, dur_ms: u64) {
        store.record(SpanRecord {
            trace_id: trace,
            span_id: span,
            parent_span_id: parent,
            name: format!("span-{span}"),
            kind: SpanKind::Internal,
            start_unix_ns: 1_000_000,
            duration_ns: dur_ms * 1_000_000,
            attrs: vec![("job.id".into(), trace.to_string())],
            error: None,
        });
    }

    #[test]
    fn traceparent_round_trips_canonical_headers() {
        let original = TraceContext {
            trace_id: 0x0af7_6519_16cd_43dd_8448_eb21_1c80_319c,
            span_id: 0x00f0_67aa_0ba9_02b7,
            sampled: true,
        };
        let header = original.traceparent();
        assert_eq!(header.len(), 55, "{header}");
        assert_eq!(TraceContext::parse(&header), Some(original));
        let unsampled = TraceContext {
            sampled: false,
            ..original
        };
        assert!(unsampled.traceparent().ends_with("-00"));
        assert_eq!(
            TraceContext::parse(&unsampled.traceparent()),
            Some(unsampled)
        );
    }

    #[test]
    fn traceparent_parsing_is_total_on_hostile_input() {
        for bad in [
            "",
            "00",
            "garbage",
            "00-abc-def-01",
            // all-zero trace id
            "00-00000000000000000000000000000000-00f067aa0ba902b7-01",
            // all-zero span id
            "00-0af7651916cd43dd8448eb211c80319c-0000000000000000-01",
            // forbidden version
            "ff-0af7651916cd43dd8448eb211c80319c-00f067aa0ba902b7-01",
            // non-hex digits in the right shape
            "00-0af7651916cd43dd8448eb211c80319z-00f067aa0ba902b7-01",
            "00-0af7651916cd43dd8448eb211c80319c-00f067aa0ba902bz-01",
            "00-0af7651916cd43dd8448eb211c80319c-00f067aa0ba902b7-0x",
            // signs / whitespace from_str_radix would forgive
            "00-+af7651916cd43dd8448eb211c80319c-00f067aa0ba902b7-01",
            // truncated / oversized
            "00-0af7651916cd43dd8448eb211c80319c-00f067aa0ba902b7-0",
            "00-0af7651916cd43dd8448eb211c80319c-00f067aa0ba902b7-011",
            "00_0af7651916cd43dd8448eb211c80319c-00f067aa0ba902b7-01",
        ] {
            assert_eq!(TraceContext::parse(bad), None, "{bad:?}");
        }
        // Whitespace padding is trimmed, not fatal.
        let ok = " 00-0af7651916cd43dd8448eb211c80319c-00f067aa0ba902b7-01 ";
        assert!(TraceContext::parse(ok).is_some());
    }

    #[test]
    fn minted_contexts_are_distinct_and_children_share_the_trace() {
        let a = TraceContext::mint();
        let b = TraceContext::mint();
        assert_ne!(a.trace_id, b.trace_id);
        assert_ne!(a.span_id, b.span_id);
        let child = a.child();
        assert_eq!(child.trace_id, a.trace_id);
        assert_ne!(child.span_id, a.span_id);
    }

    #[test]
    fn raii_spans_record_attributes_and_errors_on_drop() {
        let store = Arc::new(TraceStore::new(TraceStoreConfig {
            sample_rate: 1.0,
            ..TraceStoreConfig::default()
        }));
        let root_ctx = TraceContext::mint();
        {
            let mut root = store.span("root", SpanKind::Server, root_ctx, None);
            root.attr("route", "jobs.submit");
            let mut child = root.child("work", SpanKind::Internal);
            child.set_error("boom");
            child.finish();
            root.finish();
        }
        store.finish(root_ctx.trace_id);
        let trace = store.get(root_ctx.trace_id).expect("trace retained");
        assert_eq!(trace.spans.len(), 2);
        assert_eq!(trace.root_name, "root");
        assert!(trace.error);
        let child = trace.spans.iter().find(|s| s.name == "work").unwrap();
        assert_eq!(child.parent_span_id, Some(root_ctx.span_id));
        assert_eq!(child.error.as_deref(), Some("boom"));
        let root = trace.spans.iter().find(|s| s.name == "root").unwrap();
        assert_eq!(
            root.attrs[0],
            ("route".to_string(), "jobs.submit".to_string())
        );
        assert!(!TraceSpan::noop().is_recording());
    }

    #[test]
    fn tail_sampling_keeps_slow_errored_and_forced_traces() {
        let store = TraceStore::new(TraceStoreConfig {
            capacity: 16,
            sample_rate: 0.0, // nothing unremarkable survives
            slow_threshold: Duration::from_millis(100),
        });
        // Fast, clean, unforced: dropped.
        record(&store, 1, 10, None, 5);
        store.finish(1);
        assert!(store.get(1).is_none());
        // Slow: kept.
        record(&store, 2, 20, None, 500);
        store.finish(2);
        assert!(store.get(2).is_some());
        // Errored: kept.
        store.record(SpanRecord {
            error: Some("boom".into()),
            ..SpanRecord {
                trace_id: 3,
                span_id: 30,
                parent_span_id: None,
                name: "x".into(),
                kind: SpanKind::Internal,
                start_unix_ns: 0,
                duration_ns: 1,
                attrs: Vec::new(),
                error: None,
            }
        });
        store.finish(3);
        assert!(store.get(3).is_some());
        // Forced (explicitly requested): kept.
        store.force_keep(4);
        record(&store, 4, 40, None, 1);
        store.finish(4);
        assert!(store.get(4).is_some());
        let stats = store.stats();
        assert_eq!(stats.sampled_total, 3);
        assert_eq!(stats.spans_total, 4);
    }

    #[test]
    fn held_traces_survive_the_request_finish_until_released() {
        let store = TraceStore::new(TraceStoreConfig {
            sample_rate: 0.0,
            slow_threshold: Duration::from_millis(1),
            ..TraceStoreConfig::default()
        });
        store.hold(7);
        record(&store, 7, 70, None, 50);
        store.finish_unless_held(7); // the request ends; trace lives on
        assert!(store.get(7).is_none());
        record(&store, 7, 71, Some(70), 80);
        store.finish(7); // the job ends; now it completes
        let trace = store.get(7).expect("held trace finished");
        assert_eq!(trace.spans.len(), 2);
        // An unheld trace finishes on the request path.
        record(&store, 8, 80, None, 50);
        store.finish_unless_held(8);
        assert!(store.get(8).is_some());
    }

    /// A job fast enough to outrun its own submit response: the holder
    /// reaches `finish_held` first, the trace stays pending, and the
    /// request's later `finish_unless_held` completes it with *both*
    /// sides' spans in the tree.
    #[test]
    fn held_finish_waits_for_the_request_side() {
        let store = TraceStore::new(TraceStoreConfig {
            sample_rate: 0.0,
            slow_threshold: Duration::from_millis(1),
            ..TraceStoreConfig::default()
        });
        store.hold(11);
        record(&store, 11, 111, Some(110), 80); // the job span
        store.finish_held(11); // pump done, request still in flight
        assert!(store.get(11).is_none(), "completed without the request");
        record(&store, 11, 110, None, 50); // the request's root span lands
        store.finish_unless_held(11);
        let trace = store.get(11).expect("rendezvous never completed");
        assert_eq!(trace.spans.len(), 2);
        assert!(store.pending.lock().unwrap().is_empty());
    }

    /// The common order — the request finishes first — completes the
    /// trace at the holder's `finish_held`, immediately.
    #[test]
    fn held_finish_completes_at_once_when_the_request_already_ended() {
        let store = TraceStore::new(TraceStoreConfig {
            sample_rate: 0.0,
            slow_threshold: Duration::from_millis(1),
            ..TraceStoreConfig::default()
        });
        store.hold(12);
        record(&store, 12, 120, None, 50);
        store.finish_unless_held(12); // request ends; trace lives on
        assert!(store.get(12).is_none());
        record(&store, 12, 121, Some(120), 80);
        store.finish_held(12);
        let trace = store.get(12).expect("held trace finished");
        assert_eq!(trace.spans.len(), 2);
        assert!(store.pending.lock().unwrap().is_empty());
    }

    /// A hold whose would-be owner backs out (`release`) hands the
    /// trace back to the request path: the next `finish_unless_held`
    /// completes it instead of leaking it in the pending table.
    #[test]
    fn released_holds_return_the_trace_to_the_request_path() {
        let store = TraceStore::new(TraceStoreConfig {
            sample_rate: 0.0,
            slow_threshold: Duration::from_millis(1),
            ..TraceStoreConfig::default()
        });
        store.hold(9);
        record(&store, 9, 90, None, 50);
        store.release(9); // owner failed to take over
        store.finish_unless_held(9);
        assert!(store.get(9).is_some(), "released trace never completed");
        assert_eq!(store.pending.lock().unwrap().len(), 0);
    }

    /// The job lifecycle's hold/finish path under a hammer: hundreds of
    /// jobs hold their trace open past the submitting request, then
    /// finish. Every hold must drain from the pending table, every
    /// completed job trace must become evictable like any other, and
    /// the byte gauge must track the ring exactly — held traces cause
    /// no permanent byte-count growth.
    #[test]
    fn completed_job_holds_drain_and_stay_evictable_without_byte_growth() {
        let capacity = 8;
        let store = TraceStore::new(TraceStoreConfig {
            capacity,
            sample_rate: 0.0,
            slow_threshold: Duration::from_millis(1),
        });
        for i in 0..200u64 {
            let trace = u128::from(i + 1);
            store.hold(trace); // the job adopts the request's trace
            record(&store, trace, 1, None, 50);
            store.finish_unless_held(trace); // the request ends first
            assert!(store.get(trace).is_none(), "held trace completed early");
            record(&store, trace, 2, Some(1), 80);
            store.finish(trace); // the job completes: the hold ends here
            assert!(store.get(trace).is_some(), "job trace was not retained");
        }
        // No leaked holds: the pending table is empty once every job
        // finished, so pending-side memory returns to zero.
        assert_eq!(store.pending.lock().unwrap().len(), 0);
        // Completed job traces evict like any others — the ring holds
        // the newest `capacity`, everything older was dropped.
        let stats = store.stats();
        assert_eq!(stats.sampled_total, 200);
        assert_eq!(stats.dropped_total, 200 - capacity as u64);
        assert!(store.get(200).is_some());
        assert!(store.get(1).is_none(), "old held trace pinned the ring");
        // The byte gauge equals the ring's exact contents: capacity ×
        // the uniform per-trace footprint. Nothing accumulated.
        let per_trace = store.get(200).unwrap().approx_bytes as u64;
        assert_eq!(stats.store_bytes, per_trace * capacity as u64);
    }

    #[test]
    fn ring_is_bounded_under_a_trace_hammer_and_counts_evictions() {
        let capacity = 256;
        let store = TraceStore::new(TraceStoreConfig {
            capacity,
            sample_rate: 0.0,
            slow_threshold: Duration::from_millis(1),
        });
        // 500 kept traces against a 256-slot ring — the shape of the
        // 500-job hammer in the acceptance criteria.
        for i in 0..500u64 {
            let trace = u128::from(i + 1);
            record(&store, trace, 1, None, 10);
            record(&store, trace, 2, Some(1), 5);
            store.finish(trace);
        }
        let stats = store.stats();
        assert_eq!(stats.sampled_total, 500);
        assert_eq!(stats.dropped_total, 500 - capacity as u64);
        assert_eq!(store.list(Duration::ZERO, false, None).len(), capacity);
        // The byte gauge tracks the ring exactly: capacity × the uniform
        // per-trace footprint, with no growth past the cap.
        let per_trace = store.get(500).unwrap().approx_bytes as u64;
        assert_eq!(stats.store_bytes, per_trace * capacity as u64);
        // Oldest evicted first: traces 1..=244 are gone, 245..=500 survive.
        assert!(store.get(1).is_none());
        assert!(store.get(244).is_none());
        assert!(store.get(245).is_some());
        assert!(store.get(490).is_some());
    }

    #[test]
    fn span_and_pending_bounds_never_grow_without_limit() {
        let store = TraceStore::new(TraceStoreConfig {
            sample_rate: 1.0,
            ..TraceStoreConfig::default()
        });
        for span in 0..2 * MAX_SPANS_PER_TRACE as u64 {
            record(&store, 9, span + 1, None, 1);
        }
        store.finish(9);
        assert_eq!(
            store.get(9).unwrap().spans.len(),
            MAX_SPANS_PER_TRACE,
            "per-trace span cap"
        );
        // Unfinished traces cannot accumulate past the pending cap.
        for trace in 100..100 + 2 * MAX_PENDING_TRACES as u128 {
            record(&store, trace, 1, None, 1);
        }
        let pending = store.pending.lock().unwrap().len();
        assert!(pending <= MAX_PENDING_TRACES, "{pending}");
    }

    #[test]
    fn list_filters_by_duration_error_and_attribute() {
        let store = TraceStore::new(TraceStoreConfig {
            sample_rate: 1.0,
            ..TraceStoreConfig::default()
        });
        record(&store, 1, 10, None, 5);
        store.finish(1);
        record(&store, 2, 20, None, 800);
        store.finish(2);
        store.record(SpanRecord {
            trace_id: 3,
            span_id: 30,
            parent_span_id: None,
            name: "failing".into(),
            kind: SpanKind::Server,
            start_unix_ns: 0,
            duration_ns: 1_000_000,
            attrs: Vec::new(),
            error: Some("boom".into()),
        });
        store.finish(3);
        assert_eq!(store.list(Duration::ZERO, false, None).len(), 3);
        let slow = store.list(Duration::from_millis(100), false, None);
        assert_eq!(slow.len(), 1);
        assert_eq!(slow[0].trace_id, 2);
        let errored = store.list(Duration::ZERO, true, None);
        assert_eq!(errored.len(), 1);
        assert_eq!(errored[0].trace_id, 3);
        assert!(errored[0].error);
        let by_job = store.list(Duration::ZERO, false, Some(("job.id", "1")));
        assert_eq!(by_job.len(), 1);
        assert_eq!(by_job[0].trace_id, 1);
        assert!(store
            .list(Duration::ZERO, false, Some(("job.id", "nope")))
            .is_empty());
        // Newest first.
        let all = store.list(Duration::ZERO, false, None);
        assert_eq!(all[0].trace_id, 3);
    }

    #[test]
    fn deterministic_sampling_keeps_one_in_n() {
        let store = TraceStore::new(TraceStoreConfig {
            capacity: 1024,
            sample_rate: 0.1,
            slow_threshold: Duration::from_secs(3600),
        });
        for i in 0..100u64 {
            let trace = u128::from(i + 1);
            record(&store, trace, 1, None, 1);
            store.finish(trace);
        }
        assert_eq!(store.stats().sampled_total, 10, "1-in-10 of 100");
    }
}
