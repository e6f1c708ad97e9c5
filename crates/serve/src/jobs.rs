//! Async modeling jobs: GP runs on background threads with live
//! progress, SSE event fan-out, cancellation, checkpointing, automatic
//! publication of the finished front into the registry, a bounded job
//! store with terminal-state eviction, and re-adoption of interrupted
//! jobs from their checkpoints on daemon restart.
//!
//! # Lifecycle
//!
//! `submit` validates the spec, persists it next to the job's checkpoint
//! file (when a model dir is configured), and hands the prepared run to
//! the **admission scheduler**: a bounded set of *running* slots
//! (`max_running`) with FIFO admission. A submission beyond the running
//! limit enters the `queued` state — visible in job listings with its
//! 1-based `queue_position` — instead of spawning threads; resources are
//! committed at *admission* time, not accept time. 429 fires only when
//! the whole bounded store is full of live (queued or running) jobs.
//!
//! Admission spawns two threads: the *driver* (running the island runner
//! with the job's [`RunController`] attached, so a cancel takes effect
//! between generations) and the *pump*, which fans the
//! runner's [`caffeine_runtime::RunEvent`]s out to SSE subscribers via
//! the job's [`EventHub`]. On a terminal outcome the driver publishes
//! (or not), renames the job's on-disk spec + checkpoint to `.trash-…`
//! names, records the outcome, frees its running slot (admitting the
//! next queued job) and only then unlinks the trash; the pump emits a
//! final `done` event and closes the hub.
//!
//! A daemon killed mid-job leaves `job-{id}.spec.json` and
//! `job-{id}.ckpt` (with the staging files of
//! [`RuntimeCheckpoint::save`]) behind; [`JobManager::adopt_orphans`]
//! re-creates those jobs on the next start — resuming from the
//! checkpoint when one exists, restarting from generation zero when the
//! crash predated the first checkpoint write, and surfacing an unusable
//! spec/checkpoint as a failed job rather than silently discarding it.

use std::collections::{BTreeMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use serde::Deserialize;

use caffeine_core::{CaffeineSettings, GrammarConfig, ModelArtifact};
use caffeine_doe::Dataset;
use caffeine_obs::{trace::fresh_span_id, SpanKind, SpanRecord, TraceContext, TraceStore};
use caffeine_runtime::{
    IslandRunner, PhaseBreakdown, RunController, RunEvent, RuntimeCheckpoint, RuntimeConfig,
    RuntimeError,
};

use crate::error::ApiError;
use crate::handlers::sanitize;
use crate::metrics::Metrics;
use crate::registry::ModelRegistry;
use crate::router::valid_model_id;
use crate::sync::PoisonlessMutex;

/// Events kept for late SSE subscribers, per job.
const HUB_HISTORY_CAP: usize = 512;
/// Per-subscriber buffered events; a consumer lagging this far behind is
/// dropped rather than allowed to block the run.
const SUBSCRIBER_BUFFER: usize = 256;

/// A parsed job submission.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Registry id the finished front publishes under (default
    /// `job-{id}`).
    pub name: Option<String>,
    /// Design-variable names (defines input dimensionality).
    pub var_names: Vec<String>,
    /// Row-major training points.
    pub points: Vec<Vec<f64>>,
    /// Training targets, one per point.
    pub targets: Vec<f64>,
    /// Population size (default 60).
    pub population: usize,
    /// Generations (default 40).
    pub generations: usize,
    /// Max basis functions per model (default 6).
    pub max_bases: usize,
    /// RNG seed (default 0).
    pub seed: u64,
    /// Islands (default 1).
    pub islands: usize,
    /// Evaluation threads (default 1).
    pub threads: usize,
    /// Grammar: `"full"` (default) or `"rational"`.
    pub grammar: String,
    /// Checkpoint cadence in generations (default 10; 0 = only on
    /// completion). Only effective when the daemon has a model dir.
    pub checkpoint_every: usize,
}

/// Extracts an optional field, treating `null` and absence identically.
fn opt_field<T: Deserialize>(v: &serde_json::Value, name: &str) -> Result<Option<T>, ApiError> {
    match v.as_object().and_then(|m| m.get(name)) {
        None | Some(serde_json::Value::Null) => Ok(None),
        Some(f) => T::from_value(f)
            .map(Some)
            .map_err(|e| ApiError::bad_request(format!("field `{name}`: {e}"))),
    }
}

fn req_field<T: Deserialize>(v: &serde_json::Value, name: &str) -> Result<T, ApiError> {
    opt_field(v, name)?
        .ok_or_else(|| ApiError::bad_request(format!("missing required field `{name}`")))
}

impl JobSpec {
    /// Parses and validates a submission body.
    ///
    /// # Errors
    ///
    /// 400 for malformed JSON, missing/mistyped fields, shape mismatches,
    /// an invalid `name`, or a grammar this server does not know.
    pub fn from_json(body: &[u8]) -> Result<JobSpec, ApiError> {
        let text = std::str::from_utf8(body)
            .map_err(|_| ApiError::bad_request("job body is not UTF-8"))?;
        let v: serde_json::Value = serde_json::from_str(text)
            .map_err(|e| ApiError::bad_request(format!("job body is not JSON: {e}")))?;
        let spec = JobSpec {
            name: opt_field(&v, "name")?,
            var_names: req_field(&v, "var_names")?,
            points: req_field(&v, "points")?,
            targets: req_field(&v, "targets")?,
            population: opt_field(&v, "population")?.unwrap_or(60),
            generations: opt_field(&v, "generations")?.unwrap_or(40),
            max_bases: opt_field(&v, "max_bases")?.unwrap_or(6),
            seed: opt_field(&v, "seed")?.unwrap_or(0),
            islands: opt_field(&v, "islands")?.unwrap_or(1),
            threads: opt_field(&v, "threads")?.unwrap_or(1),
            grammar: opt_field(&v, "grammar")?.unwrap_or_else(|| "full".to_string()),
            checkpoint_every: opt_field(&v, "checkpoint_every")?.unwrap_or(10),
        };
        if let Some(name) = &spec.name {
            if !valid_model_id(name) {
                return Err(ApiError::bad_request(format!(
                    "job name `{name}` is not a valid model id"
                )));
            }
        }
        if spec.grammar != "full" && spec.grammar != "rational" {
            return Err(ApiError::bad_request(format!(
                "grammar `{}` unknown (use `full` or `rational`)",
                spec.grammar
            )));
        }
        if spec.points.is_empty() {
            return Err(ApiError::bad_request("job has no training points"));
        }
        Ok(spec)
    }

    /// Renders the spec back to the submission JSON shape — the inverse
    /// of [`JobSpec::from_json`], used to persist the spec next to the
    /// job's checkpoint so a restarted daemon can rebuild the dataset.
    pub fn to_json(&self) -> serde_json::Value {
        serde_json::json!({
            "name": self.name,
            "var_names": self.var_names,
            "points": self.points,
            "targets": self.targets,
            "population": self.population,
            "generations": self.generations,
            "max_bases": self.max_bases,
            "seed": self.seed,
            "islands": self.islands,
            "threads": self.threads,
            "grammar": self.grammar,
            "checkpoint_every": self.checkpoint_every,
        })
    }

    fn settings(&self) -> CaffeineSettings {
        let mut s = CaffeineSettings::paper();
        s.population = self.population;
        s.generations = self.generations;
        s.max_bases = self.max_bases;
        s.seed = self.seed;
        s.stats_every = (self.generations / 10).max(1);
        s
    }

    fn grammar_config(&self, n_vars: usize) -> GrammarConfig {
        match self.grammar.as_str() {
            "rational" => GrammarConfig::rational(n_vars),
            _ => GrammarConfig::paper_full(n_vars),
        }
    }

    fn dataset(&self) -> Result<Dataset, ApiError> {
        Dataset::new(
            self.var_names.clone(),
            self.points.clone(),
            self.targets.clone(),
        )
        .map_err(ApiError::from)
    }

    fn runtime_config(&self) -> RuntimeConfig {
        RuntimeConfig {
            threads: self.threads.max(1),
            islands: self.islands.max(1),
            checkpoint_every: self.checkpoint_every,
            ..RuntimeConfig::default()
        }
    }
}

/// Terminal result of a job (alongside the controller's phase).
#[derive(Debug, Clone, PartialEq)]
pub enum JobOutcome {
    /// Still queued or running.
    Pending,
    /// Finished; the front is in the registry.
    Published {
        /// Registry id.
        model_id: String,
        /// Content-hash version.
        version: String,
        /// Front size.
        n_models: usize,
    },
    /// The run failed.
    Failed {
        /// The failure.
        message: String,
    },
    /// The run was cancelled before finishing.
    Cancelled,
}

impl JobOutcome {
    /// `true` once the job can no longer change state.
    pub fn is_terminal(&self) -> bool {
        !matches!(self, JobOutcome::Pending)
    }
}

/// One rendered server-sent event: the `event:` name plus its JSON
/// `data:` payload and (once published) its position in the job's
/// stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobEventFrame {
    /// 1-based position in the job's event stream, stamped by
    /// `EventHub::publish` and rendered as the SSE `id:` field so a
    /// reconnecting watcher can discard frames it has already seen.
    /// `0` means unsequenced (a frame that never went through a hub,
    /// e.g. the per-subscription snapshot) and renders without an id.
    pub seq: u64,
    /// SSE `event:` field.
    pub event: &'static str,
    /// SSE `data:` field (one line of JSON).
    pub data: String,
}

impl JobEventFrame {
    /// The wire form of the frame (terminated by the SSE blank line).
    pub fn render(&self) -> String {
        if self.seq == 0 {
            format!("event: {}\ndata: {}\n\n", self.event, self.data)
        } else {
            format!(
                "id: {}\nevent: {}\ndata: {}\n\n",
                self.seq, self.event, self.data
            )
        }
    }
}

fn frame(event: &'static str, data: serde_json::Value) -> JobEventFrame {
    // Sanitized `Value`s always serialize; an empty object beats
    // panicking inside the event loop if that invariant ever breaks.
    let data = serde_json::to_string(&sanitize(data)).unwrap_or_else(|_| "{}".to_string());
    JobEventFrame {
        seq: 0,
        event,
        data,
    }
}

fn frame_for(event: &RunEvent) -> JobEventFrame {
    match event {
        RunEvent::Progress {
            island,
            stats,
            phases,
            front,
        } => frame(
            "progress",
            serde_json::json!({
                "island": island,
                "generation": stats.generation,
                "best_error": stats.best_error,
                "min_complexity": stats.min_complexity,
                "front_size": stats.front_size,
                "feasible": stats.feasible,
                "phases": serde_json::to_value(phases),
                "cache_hit_ratio": phases.cache_hit_ratio(),
                "front": serde_json::to_value(front),
            }),
        ),
        RunEvent::Migrated { generation } => {
            frame("migrated", serde_json::json!({ "generation": generation }))
        }
        RunEvent::Checkpointed {
            generation,
            duration_secs,
        } => frame(
            "checkpoint",
            serde_json::json!({ "generation": generation, "duration_secs": duration_secs }),
        ),
        RunEvent::Finished { generation } => {
            frame("finished", serde_json::json!({ "generation": generation }))
        }
    }
}

#[derive(Debug, Default)]
struct HubState {
    history: VecDeque<JobEventFrame>,
    subscribers: Vec<SyncSender<JobEventFrame>>,
    closed: bool,
    /// Sequence stamped on the last published frame (first frame is 1).
    last_seq: u64,
}

/// Broadcast of one job's event stream: every frame goes to the bounded
/// per-job history (for subscribers that arrive late) and to every live
/// subscriber. Closing the hub drops the senders, which ends every
/// subscriber's stream.
#[derive(Debug, Default)]
pub struct EventHub {
    state: Mutex<HubState>,
}

impl EventHub {
    pub(crate) fn publish(&self, f: JobEventFrame) {
        let mut st = self.state.plock();
        st.last_seq += 1;
        let f = JobEventFrame {
            seq: st.last_seq,
            ..f
        };
        if st.history.len() >= HUB_HISTORY_CAP {
            st.history.pop_front();
        }
        st.history.push_back(f.clone());
        // A subscriber whose buffer is full is lagging hopelessly (or
        // gone); drop it rather than block the run or buffer unboundedly.
        st.subscribers.retain(|tx| tx.try_send(f.clone()).is_ok());
    }

    fn close(&self) {
        let mut st = self.state.plock();
        st.closed = true;
        st.subscribers.clear(); // drops the senders; receivers see EOF
    }

    /// [`EventHub::close`] for crate-internal tests (the SSE streamer's).
    #[cfg(test)]
    pub(crate) fn close_for_tests(&self) {
        self.close();
    }

    /// Joins the stream: everything already emitted (bounded history)
    /// plus, while the job is live, a receiver for what comes next
    /// (`None` once the stream has closed).
    pub fn subscribe(&self) -> (Vec<JobEventFrame>, Option<Receiver<JobEventFrame>>) {
        let mut st = self.state.plock();
        let history: Vec<JobEventFrame> = st.history.iter().cloned().collect();
        if st.closed {
            (history, None)
        } else {
            let (tx, rx) = std::sync::mpsc::sync_channel(SUBSCRIBER_BUFFER);
            st.subscribers.push(tx);
            (history, Some(rx))
        }
    }
}

/// Emits one job's lifecycle spans into the daemon's trace store. A
/// submitted job *adopts the submitting HTTP request's trace* (same
/// trace id, the request's root span as parent), so a finished job reads
/// as one tree: HTTP accept → queued wait → running → stats intervals
/// (`generations`) / checkpoints → publish. Re-adopted orphans have no
/// originating request and mint a fresh trace instead.
///
/// The tracer holds the trace open ([`TraceStore::hold`]) for the job's
/// whole life; [`JobTracer::finish`] records the `running` and `job`
/// spans and completes the trace, which is when tail sampling decides
/// whether to retain it.
#[derive(Debug)]
pub(crate) struct JobTracer {
    store: Arc<TraceStore>,
    /// The `job` span's own context (shared trace id, fresh span id).
    ctx: TraceContext,
    /// Pre-minted context of the `running` span so the pump thread can
    /// parent `generations`/checkpoint spans under it before it is
    /// recorded.
    running_ctx: TraceContext,
    /// The submitting request's root span; `None` for orphans.
    parent_span_id: Option<u64>,
    job_id: u64,
    start_unix_ns: u64,
    /// Unix start of `running`, set at admission; `None` for a job
    /// settled while still queued. `job` and `running` end on the same
    /// unix clock their `generations` children are stamped with, so the
    /// children nest inside them.
    running_started: Mutex<Option<u64>>,
    /// `finish` runs once: the pump and the settle paths can both reach
    /// a terminal state for the same job (e.g. a driver-spawn failure),
    /// and the trace must complete exactly once.
    finished: std::sync::atomic::AtomicBool,
}

impl JobTracer {
    fn new(store: &Arc<TraceStore>, parent: Option<TraceContext>, job_id: u64) -> Arc<JobTracer> {
        let ctx = parent.map_or_else(TraceContext::mint, |p| p.child());
        store.hold(ctx.trace_id);
        Arc::new(JobTracer {
            store: Arc::clone(store),
            running_ctx: ctx.child(),
            parent_span_id: parent.map(|p| p.span_id),
            ctx,
            job_id,
            start_unix_ns: caffeine_obs::trace::unix_ns(),
            running_started: Mutex::new(None),
            finished: std::sync::atomic::AtomicBool::new(false),
        })
    }

    /// The canonical 32-char hex trace id (the `GET /v1/traces/{id}` key).
    pub(crate) fn trace_id_hex(&self) -> String {
        self.ctx.trace_id_hex()
    }

    fn record(
        &self,
        name: &str,
        span_id: u64,
        parent_span_id: Option<u64>,
        start_unix_ns: u64,
        duration: Duration,
        attrs: Vec<(String, String)>,
    ) {
        self.store.record(SpanRecord {
            trace_id: self.ctx.trace_id,
            span_id,
            parent_span_id,
            name: name.to_string(),
            kind: SpanKind::Internal,
            start_unix_ns,
            duration_ns: u64::try_from(duration.as_nanos()).unwrap_or(u64::MAX),
            attrs,
            error: None,
        });
    }

    /// Records the scheduler-wait span (admission or queued settle time).
    fn record_queued(&self, waited: Duration) {
        let waited_ns = u64::try_from(waited.as_nanos()).unwrap_or(u64::MAX);
        self.record(
            "queued",
            fresh_span_id(),
            Some(self.ctx.span_id),
            caffeine_obs::trace::unix_ns().saturating_sub(waited_ns),
            waited,
            Vec::new(),
        );
    }

    /// Stamps the start of the `running` span (recorded at `finish`).
    fn mark_running(&self) {
        *self.running_started.plock() = Some(caffeine_obs::trace::unix_ns());
    }

    /// Records one stats interval as a `generations` child of `running`:
    /// it runs from the interval's recorded start to its recorded end and
    /// carries the breakdown's fields, under their own names, as attrs.
    fn record_generations(&self, phases: &PhaseBreakdown) {
        let attrs = match serde_json::to_value(phases) {
            serde_json::Value::Object(fields) => fields
                .into_iter()
                .map(|(name, value)| (name, serde_json::to_string(&value).unwrap_or_default()))
                .collect(),
            _ => Vec::new(),
        };
        self.record(
            "generations",
            fresh_span_id(),
            Some(self.running_ctx.span_id),
            phases.start_unix_ns,
            Duration::from_nanos(phases.end_unix_ns.saturating_sub(phases.start_unix_ns)),
            attrs,
        );
    }

    /// Records one checkpoint write as a child of `running`.
    fn record_checkpoint(&self, generation: usize, duration_secs: f64) {
        let dur = Duration::from_secs_f64(duration_secs.max(0.0));
        let dur_ns = u64::try_from(dur.as_nanos()).unwrap_or(u64::MAX);
        self.record(
            "checkpoint",
            fresh_span_id(),
            Some(self.running_ctx.span_id),
            caffeine_obs::trace::unix_ns().saturating_sub(dur_ns),
            dur,
            vec![("generation".into(), generation.to_string())],
        );
    }

    /// Records the registry-publication span as a child of `job`.
    fn record_publish(&self, took: Duration, model_id: &str, version: &str, n_models: usize) {
        let dur_ns = u64::try_from(took.as_nanos()).unwrap_or(u64::MAX);
        self.record(
            "publish",
            fresh_span_id(),
            Some(self.ctx.span_id),
            caffeine_obs::trace::unix_ns().saturating_sub(dur_ns),
            took,
            vec![
                ("model.id".into(), model_id.to_string()),
                ("model.version".into(), version.to_string()),
                ("n_models".into(), n_models.to_string()),
            ],
        );
    }

    /// Records the `running` span (when the job ever ran) and the root
    /// `job` span, then completes the trace — the tail-sampling point.
    /// Idempotent: only the first caller emits anything.
    fn finish(&self, state: &'static str, error: Option<String>) {
        if self
            .finished
            .swap(true, std::sync::atomic::Ordering::SeqCst)
        {
            return;
        }
        let now = caffeine_obs::trace::unix_ns();
        if let Some(start) = *self.running_started.plock() {
            self.record(
                "running",
                self.running_ctx.span_id,
                Some(self.ctx.span_id),
                start,
                Duration::from_nanos(now.saturating_sub(start)),
                Vec::new(),
            );
        }
        self.store.record(SpanRecord {
            trace_id: self.ctx.trace_id,
            span_id: self.ctx.span_id,
            parent_span_id: self.parent_span_id,
            name: "job".to_string(),
            kind: SpanKind::Internal,
            start_unix_ns: self.start_unix_ns,
            duration_ns: now.saturating_sub(self.start_unix_ns),
            attrs: vec![
                ("job.id".into(), self.job_id.to_string()),
                ("job.state".into(), state.to_string()),
            ],
            error,
        });
        // Rendezvous with the submitting request: a job fast enough to
        // outrun its own submit response must not complete the trace
        // before the request's root span lands in it. Orphans (re-adopted
        // after a restart) have no request to wait for.
        if self.parent_span_id.is_some() {
            self.store.finish_held(self.ctx.trace_id);
        } else {
            self.store.finish(self.ctx.trace_id);
        }
    }

    /// The job never took over the trace (submission failed after the
    /// hold): give the trace back to the request path and flush any
    /// stray spans already recorded. An empty pending trace simply
    /// evaporates; the request's root span (when there is one) then
    /// completes as its own trace on the normal request path.
    fn abandon(&self) {
        self.store.release(self.ctx.trace_id);
        self.store.finish(self.ctx.trace_id);
    }
}

/// Maps a terminal outcome to the (`job.state` attribute, error) pair
/// its trace records.
fn trace_terminal(outcome: &JobOutcome) -> (&'static str, Option<String>) {
    match outcome {
        JobOutcome::Pending => ("pending", None),
        JobOutcome::Published { .. } => ("finished", None),
        JobOutcome::Cancelled => ("cancelled", None),
        JobOutcome::Failed { message } => ("failed", Some(message.clone())),
    }
}

/// One job's shared record.
#[derive(Debug)]
pub struct JobEntry {
    /// Job id.
    pub id: u64,
    /// Registry id the front publishes under.
    pub model_id: String,
    /// Cancel/progress handle.
    pub controller: RunController,
    /// `true` when the job was re-adopted from a checkpoint at startup.
    pub resumed: bool,
    /// The job's SSE event stream.
    pub events: Arc<EventHub>,
    /// Terminal outcome (behind a lock; `Pending` until the thread ends).
    outcome: Mutex<JobOutcome>,
    handle: Mutex<Option<JoinHandle<()>>>,
    /// Set by the draining shutdown: the cancellation is an interruption,
    /// not a user decision, so the spec + checkpoint must survive for the
    /// next daemon to re-adopt.
    preserve_files: std::sync::atomic::AtomicBool,
    /// 1-based position in the admission queue; 0 once admitted (or when
    /// the job never had to wait). Maintained by the scheduler.
    queue_position: AtomicUsize,
    /// 1-based order in which the scheduler admitted the job to a running
    /// slot; 0 until then. Admission order, unlike finishing order, is
    /// what FIFO promises.
    admission_seq: AtomicU64,
    /// Lifecycle-span emitter, set once at submission/adoption when the
    /// daemon has a trace store (absent in bare test managers).
    tracer: OnceLock<Arc<JobTracer>>,
}

impl JobEntry {
    fn new(id: u64, model_id: String, resumed: bool) -> Arc<JobEntry> {
        Arc::new(JobEntry {
            id,
            model_id,
            controller: RunController::new(),
            resumed,
            events: Arc::new(EventHub::default()),
            outcome: Mutex::new(JobOutcome::Pending),
            handle: Mutex::new(None),
            preserve_files: std::sync::atomic::AtomicBool::new(false),
            queue_position: AtomicUsize::new(0),
            admission_seq: AtomicU64::new(0),
            tracer: OnceLock::new(),
        })
    }

    /// The job's 32-char hex trace id, when the daemon traces jobs.
    pub fn trace_id(&self) -> Option<String> {
        self.tracer.get().map(|t| t.trace_id_hex())
    }

    /// A bare entry (live hub, pending outcome) for crate-internal tests.
    #[cfg(test)]
    pub(crate) fn test_entry(id: u64, model_id: String) -> Arc<JobEntry> {
        JobEntry::new(id, model_id, false)
    }

    /// The job's 1-based admission-queue position, or `None` once it has
    /// been admitted to a running slot (or reached a terminal state).
    pub fn queue_position(&self) -> Option<usize> {
        match self.queue_position.load(Ordering::Relaxed) {
            0 => None,
            n => Some(n),
        }
    }

    /// The current outcome.
    pub fn outcome(&self) -> JobOutcome {
        self.outcome.plock().clone()
    }

    /// Blocks until the job's thread exits (tests and shutdown).
    pub fn join(&self) {
        if let Some(h) = self.handle.plock().take() {
            let _ = h.join();
        }
    }

    /// Every label [`JobEntry::state_label`] can emit: the values the
    /// jobs `?state=` filter accepts.
    pub(crate) const STATES: [&'static str; 5] =
        ["queued", "running", "finished", "failed", "cancelled"];

    /// The state label for one consistent (outcome, phase, queued)
    /// observation; always one of [`JobEntry::STATES`].
    fn state_label(
        outcome: &JobOutcome,
        phase: caffeine_runtime::RunPhase,
        queued: bool,
    ) -> &'static str {
        match outcome {
            // A job waiting for a running slot has no driver yet; its
            // controller still says `running` (the initial phase), so the
            // queue flag must win while the outcome is open.
            JobOutcome::Pending if queued => "queued",
            JobOutcome::Pending => match phase {
                // The engine finished its generations but the harvest /
                // registry publication has not landed yet: clients that
                // see `finished` must be able to read `result`, so hold
                // the label back until the outcome is recorded.
                caffeine_runtime::RunPhase::Finished => "running",
                phase => phase.as_str(),
            },
            JobOutcome::Published { .. } => "finished",
            JobOutcome::Failed { .. } => "failed",
            JobOutcome::Cancelled => "cancelled",
        }
    }

    /// The lowercase state label: `queued` until admission, then the
    /// controller phase until a terminal outcome overrides it.
    pub fn state(&self) -> &'static str {
        JobEntry::state_label(
            &self.outcome(),
            self.controller.snapshot().phase,
            self.queue_position().is_some(),
        )
    }

    /// Renders the job as its status JSON value. Outcome and progress are
    /// observed once each, so the document's `state`, `progress`, and
    /// `result`/`error` fields are mutually consistent.
    pub fn status_json(&self) -> serde_json::Value {
        let snapshot = self.controller.snapshot();
        let outcome = self.outcome();
        let queue_position = self.queue_position();
        let mut body = serde_json::json!({
            "id": self.id,
            "model_id": self.model_id.clone(),
            "resumed": self.resumed,
            "state": JobEntry::state_label(&outcome, snapshot.phase, queue_position.is_some()),
            "progress": serde_json::to_value(&snapshot),
        });
        if let (Some(trace_id), serde_json::Value::Object(m)) = (self.trace_id(), &mut body) {
            m.insert("trace_id".into(), serde_json::Value::String(trace_id));
        }
        // Only a still-pending job is truly queued; a just-settled cancel
        // may not have cleared its position yet.
        if matches!(outcome, JobOutcome::Pending) {
            if let (Some(pos), serde_json::Value::Object(m)) = (queue_position, &mut body) {
                m.insert("queue_position".into(), serde_json::json!(pos));
            }
        }
        match outcome {
            JobOutcome::Pending | JobOutcome::Cancelled => {}
            JobOutcome::Published {
                model_id,
                version,
                n_models,
            } => {
                if let serde_json::Value::Object(m) = &mut body {
                    m.insert(
                        "result".into(),
                        serde_json::json!({
                            "model_id": model_id,
                            "version": version,
                            "n_models": n_models,
                        }),
                    );
                }
            }
            JobOutcome::Failed { message } => {
                if let serde_json::Value::Object(m) = &mut body {
                    m.insert("error".into(), serde_json::Value::String(message));
                }
            }
        }
        body
    }
}

/// Why one orphaned job could not be re-adopted: `Unusable` files are
/// surfaced as a failed record and cleaned up; `Transient` failures (a
/// full store, a thread that would not spawn) keep the files on disk so
/// a later restart can still resume the job.
#[derive(Debug)]
enum AdoptFailure {
    Unusable(String),
    Transient(String),
}

/// Everything a queued job needs to run once a slot frees: the prepared
/// (validated) runner, its data, and where to publish/persist. Held by
/// the scheduler while the job waits so admission commits no resources
/// beyond memory.
struct PreparedRun {
    runner: IslandRunner,
    data: Dataset,
    var_names: Vec<String>,
    registry: Arc<ModelRegistry>,
    metrics: Arc<Metrics>,
    spec_path: Option<PathBuf>,
    ckpt_path: Option<PathBuf>,
}

/// One admission-queue element.
struct QueuedJob {
    entry: Arc<JobEntry>,
    run: PreparedRun,
    queued_at: Instant,
}

struct SchedState {
    queue: VecDeque<QueuedJob>,
    /// Jobs admitted to a running slot whose driver has not yet reached
    /// a terminal outcome.
    running: usize,
    /// Admissions so far; stamps each admitted job's `admission_seq`.
    admitted: u64,
}

impl SchedState {
    /// Takes a running slot for `entry` and records its admission order.
    fn admit(&mut self, entry: &JobEntry) {
        self.running += 1;
        self.admitted += 1;
        entry.admission_seq.store(self.admitted, Ordering::Relaxed);
    }
}

/// FIFO admission over a bounded set of running slots. Submissions (and
/// re-adopted orphans) enqueue; a slot frees when a driver reaches a
/// terminal outcome, which immediately admits the head of the queue.
/// Shared with every driver thread so slot release needs no manager.
struct Scheduler {
    state: Mutex<SchedState>,
    max_running: usize,
}

impl std::fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.state.plock();
        f.debug_struct("Scheduler")
            .field("max_running", &self.max_running)
            .field("running", &st.running)
            .field("queued", &st.queue.len())
            .finish()
    }
}

impl Scheduler {
    fn new(max_running: usize) -> Arc<Scheduler> {
        Arc::new(Scheduler {
            state: Mutex::new(SchedState {
                queue: VecDeque::new(),
                running: 0,
                admitted: 0,
            }),
            max_running: max_running.max(1),
        })
    }

    /// The current queue depth.
    fn depth(&self) -> usize {
        self.state.plock().queue.len()
    }

    /// Admits the job into a running slot immediately when one is free
    /// (and nothing is already waiting — FIFO), otherwise queues it.
    ///
    /// # Errors
    ///
    /// Propagates a thread-spawn failure for an immediately-admitted job;
    /// queued jobs cannot fail here.
    fn enqueue(self: &Arc<Scheduler>, job: QueuedJob) -> Result<(), ApiError> {
        let mut st = self.state.plock();
        if st.running < self.max_running && st.queue.is_empty() {
            st.admit(&job.entry);
            let metrics = Arc::clone(&job.run.metrics);
            let outcome = spawn_admitted(self, &job.entry, job.run, job.queued_at.elapsed());
            if outcome.is_err() {
                st.running -= 1;
            }
            metrics.set_jobs_queued(st.queue.len());
            return outcome;
        }
        job.entry
            .queue_position
            .store(st.queue.len() + 1, Ordering::Relaxed);
        let metrics = Arc::clone(&job.run.metrics);
        st.queue.push_back(job);
        metrics.set_jobs_queued(st.queue.len());
        Ok(())
    }

    /// Frees one running slot (a driver reached a terminal outcome) and
    /// admits queued jobs while slots remain.
    fn release_slot(self: &Arc<Scheduler>) {
        let mut st = self.state.plock();
        st.running = st.running.saturating_sub(1);
        while st.running < self.max_running {
            let Some(job) = st.queue.pop_front() else {
                break;
            };
            job.entry.queue_position.store(0, Ordering::Relaxed);
            let waited = job.queued_at.elapsed();
            job.run.metrics.observe_queue_wait(waited);
            job.run.metrics.set_jobs_queued(st.queue.len());
            st.admit(&job.entry);
            let entry = Arc::clone(&job.entry);
            let metrics = Arc::clone(&job.run.metrics);
            if let Err(e) = spawn_admitted(self, &entry, job.run, waited) {
                // The slot the job would have used frees again; surface
                // the job as failed rather than losing it silently.
                st.running -= 1;
                let outcome = JobOutcome::Failed { message: e.message };
                let (state, error) = trace_terminal(&outcome);
                *entry.outcome.plock() = outcome;
                entry.events.publish(frame("done", entry.status_json()));
                entry.events.close();
                if let Some(tracer) = entry.tracer.get() {
                    tracer.finish(state, error);
                }
                metrics.observe_job_finished();
            }
        }
        Scheduler::renumber(&st);
    }

    /// Removes a not-yet-admitted job from the queue (cancellation),
    /// returning it for the caller to settle. `None` when the job was
    /// already admitted (or never queued).
    fn remove_queued(&self, id: u64) -> Option<QueuedJob> {
        let mut st = self.state.plock();
        let idx = st.queue.iter().position(|j| j.entry.id == id)?;
        let job = st.queue.remove(idx)?;
        Scheduler::renumber(&st);
        job.run.metrics.set_jobs_queued(st.queue.len());
        Some(job)
    }

    /// Empties the whole queue (draining shutdown), returning the jobs
    /// for the caller to settle as interrupted.
    fn take_all_queued(&self) -> Vec<QueuedJob> {
        let mut st = self.state.plock();
        let jobs: Vec<QueuedJob> = st.queue.drain(..).collect();
        if let Some(job) = jobs.first() {
            job.run.metrics.set_jobs_queued(0);
        }
        jobs
    }

    /// Rewrites every queued entry's 1-based position after a mutation.
    fn renumber(st: &SchedState) {
        for (i, job) in st.queue.iter().enumerate() {
            job.entry.queue_position.store(i + 1, Ordering::Relaxed);
        }
    }
}

/// Spawns an admitted job's driver thread (stepping the runner to
/// completion and publishing the result) and pump thread (fanning run
/// events out to the job's SSE hub). The driver releases its scheduler
/// slot on exit, which admits the next queued job.
fn spawn_admitted(
    scheduler: &Arc<Scheduler>,
    entry: &Arc<JobEntry>,
    run: PreparedRun,
    waited: Duration,
) -> Result<(), ApiError> {
    let PreparedRun {
        mut runner,
        data,
        var_names,
        registry,
        metrics,
        spec_path,
        ckpt_path,
    } = run;
    if let Some(tracer) = entry.tracer.get() {
        tracer.record_queued(waited);
        tracer.mark_running();
    }
    let (tx, rx) = std::sync::mpsc::channel();
    runner.set_events(tx);
    runner.set_controller(entry.controller.clone());
    let pump_entry = Arc::clone(entry);
    let pump_metrics = Arc::clone(&metrics);
    let pump_tracer = entry.tracer.get().cloned();
    std::thread::Builder::new()
        .name(format!("serve-job-{}-events", entry.id))
        .spawn(move || {
            for event in rx {
                match &event {
                    // Every island's Progress of a stats interval carries
                    // the same breakdown: island 0's copy is the one
                    // folded into /metrics and traced.
                    RunEvent::Progress {
                        island: 0, phases, ..
                    } => {
                        pump_metrics.observe_engine_phases(phases);
                        if let Some(tracer) = &pump_tracer {
                            tracer.record_generations(phases);
                        }
                    }
                    RunEvent::Checkpointed {
                        generation,
                        duration_secs,
                    } => {
                        if let Some(tracer) = &pump_tracer {
                            tracer.record_checkpoint(*generation, *duration_secs);
                        }
                    }
                    _ => {}
                }
                pump_entry.events.publish(frame_for(&event));
            }
            // The channel closes when the runner is dropped, which the
            // driver does only after recording the terminal outcome —
            // so this final frame always carries the final state.
            pump_entry
                .events
                .publish(frame("done", pump_entry.status_json()));
            pump_entry.events.close();
            // Same ordering makes this the one safe place to complete
            // the job's trace: every span (the driver's publish span
            // included) has been recorded by now.
            if let Some(tracer) = &pump_tracer {
                let (state, error) = trace_terminal(&pump_entry.outcome());
                tracer.finish(state, error);
            }
        })
        .map_err(|e| ApiError::internal(format!("cannot spawn event pump: {e}")))?;

    let id = entry.id;
    let model_id = entry.model_id.clone();
    let thread_entry = Arc::clone(entry);
    let scheduler = Arc::clone(scheduler);
    let handle = std::thread::Builder::new()
        .name(format!("serve-job-{id}"))
        .spawn(move || {
            let outcome = match runner.run(&data) {
                Ok(result) => {
                    let n_models = result.models.len();
                    let publish_started = Instant::now();
                    match ModelArtifact::new(var_names, result.models)
                        .map_err(ApiError::from)
                        .and_then(|artifact| registry.publish(&model_id, artifact))
                    {
                        Ok((version, _created)) => {
                            if let Some(tracer) = thread_entry.tracer.get() {
                                tracer.record_publish(
                                    publish_started.elapsed(),
                                    &model_id,
                                    &version,
                                    n_models,
                                );
                            }
                            JobOutcome::Published {
                                model_id,
                                version,
                                n_models,
                            }
                        }
                        Err(e) => JobOutcome::Failed { message: e.message },
                    }
                }
                Err(RuntimeError::Cancelled) => JobOutcome::Cancelled,
                Err(e) => JobOutcome::Failed {
                    message: e.to_string(),
                },
            };
            let interrupted = matches!(outcome, JobOutcome::Cancelled)
                && thread_entry
                    .preserve_files
                    .load(std::sync::atomic::Ordering::Relaxed);
            // Terminal: the spec/checkpoint pair has served its
            // purpose (publication happened or was deliberately
            // abandoned); removing it keeps restarts from re-running
            // finished work. The one exception is a drain-cancelled
            // job — that interruption must stay re-adoptable. The files
            // leave their `job-{id}` names before the outcome is
            // recorded, so a client that sees the terminal state never
            // finds them; they are unlinked only once this thread is
            // otherwise done (unlinking a freshly synced checkpoint can
            // take tens of ms).
            let trash = if interrupted {
                Vec::new()
            } else {
                trash_job_files(spec_path.as_deref(), ckpt_path.as_deref())
            };
            *thread_entry.outcome.plock() = outcome;
            // The pump (not this thread) completes the trace: it drains
            // the event channel strictly after this thread drops the
            // runner, so every phase/checkpoint span lands first.
            metrics.observe_job_finished();
            // This job's slot frees; the queue head (if any) starts now.
            scheduler.release_slot();
            drop(runner); // last event sender: ends the pump thread
            empty_trash(trash);
        })
        .map_err(|e| ApiError::internal(format!("cannot spawn job thread: {e}")))?;
    *entry.handle.plock() = Some(handle);
    Ok(())
}

/// Name prefix of job files on their way out; see [`trash_job_files`].
const TRASH_PREFIX: &str = ".trash-";

/// Renames a job's spec, checkpoint and checkpoint staging files to
/// `.trash-{name}` and returns the new paths; files that do not exist are
/// skipped. A rename frees no disk block, so this is quick even where an
/// unlink of a freshly synced file takes tens of ms (ext4 mounted with
/// `discard`), and the job's `job-{id}` names are gone once it returns.
/// [`empty_trash`] does the unlinking later;
/// [`JobManager::adopt_orphans`] sweeps trash a stopped daemon left.
fn trash_job_files(spec: Option<&Path>, ckpt: Option<&Path>) -> Vec<PathBuf> {
    let ckpt_files = ckpt.into_iter().flat_map(RuntimeCheckpoint::files);
    spec.map(Path::to_path_buf)
        .into_iter()
        .chain(ckpt_files)
        .filter_map(|path| {
            let name = path.file_name()?.to_str()?;
            let trash = path.with_file_name(format!("{TRASH_PREFIX}{name}"));
            std::fs::rename(&path, &trash).ok().map(|()| trash)
        })
        .collect()
}

/// Unlinks the files [`trash_job_files`] moved aside.
fn empty_trash(trash: Vec<PathBuf>) {
    for path in trash {
        let _ = std::fs::remove_file(path);
    }
}

/// Spawns, tracks, evicts, and re-adopts jobs. The store is bounded:
/// submissions beyond `max_jobs` first evict terminal records
/// (oldest-first) and are rejected with 429 when every slot holds a live
/// job. Within the store, a FIFO admission scheduler bounds how many jobs
/// *run* concurrently; the rest wait in the `queued` state.
#[derive(Debug)]
pub struct JobManager {
    jobs: Mutex<BTreeMap<u64, Arc<JobEntry>>>,
    next_id: AtomicU64,
    /// Directory for job checkpoints + specs, when persistence is
    /// configured.
    checkpoint_dir: Option<PathBuf>,
    max_jobs: usize,
    scheduler: Arc<Scheduler>,
    /// Job-lifecycle spans record here when the daemon traces requests;
    /// bare managers (tests) leave it unset and jobs run untraced.
    traces: Option<Arc<TraceStore>>,
}

impl JobManager {
    /// A manager persisting job state under `checkpoint_dir` (when
    /// given), holding at most `max_jobs` records with at most
    /// `max_running` of them running concurrently (both clamped to ≥ 1).
    pub fn new(checkpoint_dir: Option<PathBuf>, max_jobs: usize, max_running: usize) -> JobManager {
        JobManager {
            jobs: Mutex::new(BTreeMap::new()),
            next_id: AtomicU64::new(1),
            checkpoint_dir,
            max_jobs: max_jobs.max(1),
            scheduler: Scheduler::new(max_running),
            traces: None,
        }
    }

    /// Attaches the trace store job-lifecycle spans record into.
    #[must_use]
    pub fn with_traces(mut self, traces: Arc<TraceStore>) -> JobManager {
        self.traces = Some(traces);
        self
    }

    /// The configured record capacity.
    pub fn capacity(&self) -> usize {
        self.max_jobs
    }

    /// The configured bound on concurrently running jobs.
    pub fn max_running(&self) -> usize {
        self.scheduler.max_running
    }

    /// The current admission-queue depth.
    // lint: allow(test-only-api) — jobs' scheduler tests assert the pending queue's length
    pub fn queue_depth(&self) -> usize {
        self.scheduler.depth()
    }

    fn spec_path(&self, id: u64) -> Option<PathBuf> {
        self.checkpoint_dir
            .as_ref()
            .map(|d| d.join(format!("job-{id}.spec.json")))
    }

    fn ckpt_path(&self, id: u64) -> Option<PathBuf> {
        self.checkpoint_dir
            .as_ref()
            .map(|d| d.join(format!("job-{id}.ckpt")))
    }

    /// Validates a spec and hands the prepared run to the admission
    /// scheduler: it starts immediately when a running slot is free,
    /// otherwise the returned entry is in the `queued` state.
    ///
    /// `parent` is the submitting request's trace context: the job adopts
    /// that trace (same trace id, the request's root span as the `job`
    /// span's parent), so the whole lifecycle reads as one tree. `None`
    /// runs the job untraced (or, for adopted orphans, on a freshly
    /// minted trace via [`JobManager::adopt_orphans`]).
    ///
    /// # Errors
    ///
    /// 400/422 for specs the engine's own validation rejects, 429 (with
    /// a queue-depth-derived `Retry-After`) when the job store is full
    /// of live jobs.
    pub fn submit(
        &self,
        spec: JobSpec,
        registry: Arc<ModelRegistry>,
        metrics: Arc<Metrics>,
        parent: Option<TraceContext>,
    ) -> Result<Arc<JobEntry>, ApiError> {
        let data = spec.dataset()?;
        let settings = spec.settings();
        let grammar = spec.grammar_config(data.n_vars());
        let mut runner = IslandRunner::new(settings, grammar, spec.runtime_config(), &data)
            .map_err(ApiError::from)?;

        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let model_id = spec.name.clone().unwrap_or_else(|| format!("job-{id}"));
        if let Some(dir) = &self.checkpoint_dir {
            if std::fs::create_dir_all(dir).is_ok() {
                if let Some(path) = self.spec_path(id) {
                    // Specs always serialize; a job without a persisted
                    // spec is merely not adoptable after restart, which
                    // beats failing the submission.
                    if let Ok(body) = serde_json::to_string(&spec.to_json()) {
                        let _ = std::fs::write(path, body);
                    }
                }
                runner.set_checkpoint_path(dir.join(format!("job-{id}.ckpt")));
            }
        }

        let entry = JobEntry::new(id, model_id, false);
        if let Some(traces) = &self.traces {
            let _ = entry.tracer.set(JobTracer::new(traces, parent, id));
        }
        self.insert_bounded(Arc::clone(&entry), &metrics)
            .inspect_err(|_| {
                self.remove_job_files(id);
                if let Some(tracer) = entry.tracer.get() {
                    tracer.abandon();
                }
            })?;
        let run = PreparedRun {
            runner,
            data,
            var_names: spec.var_names.clone(),
            registry,
            metrics,
            spec_path: self.spec_path(id),
            ckpt_path: self.ckpt_path(id),
        };
        self.scheduler
            .enqueue(QueuedJob {
                entry: Arc::clone(&entry),
                run,
                queued_at: Instant::now(),
            })
            .inspect_err(|_| {
                self.jobs.plock().remove(&id);
                self.remove_job_files(id);
                if let Some(tracer) = entry.tracer.get() {
                    tracer.abandon();
                }
            })?;
        Ok(entry)
    }

    /// Inserts a record, evicting terminal ones (oldest-first) to stay
    /// within capacity.
    ///
    /// # Errors
    ///
    /// 429 when every slot holds a live (non-terminal) job.
    fn insert_bounded(&self, entry: Arc<JobEntry>, metrics: &Metrics) -> Result<(), ApiError> {
        let mut jobs = self.jobs.plock();
        if jobs.len() >= self.max_jobs {
            let terminal: Vec<u64> = jobs
                .iter()
                .filter(|(_, e)| e.outcome().is_terminal())
                .map(|(&id, _)| id)
                .collect();
            for id in terminal {
                if jobs.len() < self.max_jobs {
                    break;
                }
                if let Some(evicted) = jobs.remove(&id) {
                    evicted.join(); // the thread has finished; reap it
                    metrics.observe_job_evicted();
                }
            }
        }
        if jobs.len() >= self.max_jobs {
            // Retry-After scales with how much work is already waiting:
            // a deep queue means a freed record is further away.
            return Err(ApiError::too_many_jobs(format!(
                "job store is full ({} live jobs, capacity {}); retry when one finishes or \
                 cancel one",
                jobs.len(),
                self.max_jobs
            ))
            .with_retry_after(1 + self.scheduler.depth() as u64));
        }
        jobs.insert(entry.id, entry);
        Ok(())
    }

    fn trash_job_files(&self, id: u64) -> Vec<PathBuf> {
        trash_job_files(self.spec_path(id).as_deref(), self.ckpt_path(id).as_deref())
    }

    fn remove_job_files(&self, id: u64) {
        empty_trash(self.trash_job_files(id));
    }

    /// Settles a job that never got a driver thread (cancelled while
    /// queued, or drained): records the outcome, emits the terminal
    /// `done` frame, and cleans up files unless the interruption must
    /// stay re-adoptable.
    fn settle_unstarted(&self, job: QueuedJob, outcome: JobOutcome) {
        let entry = job.entry;
        let interrupted = matches!(outcome, JobOutcome::Cancelled)
            && entry
                .preserve_files
                .load(std::sync::atomic::Ordering::Relaxed);
        let (trace_state, trace_error) = trace_terminal(&outcome);
        // Files first, as on the driver path: the terminal state implies
        // they are gone. Only the unlinking waits until after.
        let trash = if interrupted {
            Vec::new()
        } else {
            self.trash_job_files(entry.id)
        };
        *entry.outcome.plock() = outcome;
        entry.queue_position.store(0, Ordering::Relaxed);
        entry.events.publish(frame("done", entry.status_json()));
        entry.events.close();
        // No driver or pump ever existed; the settle path completes the
        // trace (queued wait included) itself.
        if let Some(tracer) = entry.tracer.get() {
            tracer.record_queued(job.queued_at.elapsed());
            tracer.finish(trace_state, trace_error);
        }
        job.run.metrics.observe_job_finished();
        empty_trash(trash);
    }

    /// Scans the checkpoint directory for jobs a previous daemon left
    /// behind and re-adopts them: resumed from their checkpoint when one
    /// exists, restarted from scratch when the interruption predated the
    /// first checkpoint write, surfaced as failed records when the files
    /// are unusable. Returns the number of records brought back (visible
    /// in `GET /v1/jobs`); jobs that do not fit the bounded store keep
    /// their files on disk and are skipped, not destroyed.
    pub fn adopt_orphans(&self, registry: &Arc<ModelRegistry>, metrics: &Arc<Metrics>) -> usize {
        let Some(dir) = self.checkpoint_dir.clone() else {
            return 0;
        };
        let Ok(entries) = std::fs::read_dir(&dir) else {
            return 0;
        };
        let mut ids: Vec<u64> = Vec::new();
        for entry in entries.flatten() {
            let Ok(name) = entry.file_name().into_string() else {
                continue;
            };
            if name.starts_with(TRASH_PREFIX) {
                // A previous daemon stopped between trashing a finished
                // job's files and unlinking them.
                let _ = std::fs::remove_file(entry.path());
            } else if let Some(id) = name
                .strip_prefix("job-")
                .and_then(|n| n.strip_suffix(".spec.json"))
                .and_then(|n| n.parse().ok())
            {
                ids.push(id);
            }
        }
        ids.sort_unstable();
        let mut adopted = 0;
        for id in ids {
            self.next_id.fetch_max(id + 1, Ordering::Relaxed);
            match self.adopt_one(id, registry, metrics) {
                Ok(()) => {
                    adopted += 1;
                    metrics.observe_job_adopted();
                }
                Err(AdoptFailure::Transient(message)) => {
                    // No room (or no thread) for this job right now; its
                    // files are intact, so a later restart — or a larger
                    // --max-jobs — can still resume it.
                    eprintln!("caffeine-serve: job {id} not re-adopted ({message}); its spec/checkpoint were kept");
                }
                Err(AdoptFailure::Unusable(message)) => {
                    // Surface the wreckage as a failed job instead of
                    // orphaning (or endlessly re-surfacing) it. The files
                    // are only removed once the record is actually
                    // visible; a full store keeps them for the next try.
                    let entry = JobEntry::new(id, format!("job-{id}"), true);
                    *entry.outcome.plock() = JobOutcome::Failed { message };
                    entry.events.publish(frame("done", entry.status_json()));
                    entry.events.close();
                    if self.insert_bounded(entry, metrics).is_ok() {
                        self.remove_job_files(id);
                        adopted += 1;
                    }
                }
            }
        }
        adopted
    }

    fn adopt_one(
        &self,
        id: u64,
        registry: &Arc<ModelRegistry>,
        metrics: &Arc<Metrics>,
    ) -> Result<(), AdoptFailure> {
        let unusable = AdoptFailure::Unusable;
        // Adoption is only attempted when a checkpoint dir is configured,
        // so these are always `Some`; report instead of asserting.
        let (Some(spec_path), Some(ckpt_path)) = (self.spec_path(id), self.ckpt_path(id)) else {
            return Err(unusable("no checkpoint dir configured".to_string()));
        };
        let body = std::fs::read(&spec_path)
            .map_err(|e| unusable(format!("cannot read {}: {e}", spec_path.display())))?;
        let spec = JobSpec::from_json(&body).map_err(|e| {
            unusable(format!(
                "spec {} unusable: {}",
                spec_path.display(),
                e.message
            ))
        })?;
        let data = spec.dataset().map_err(|e| unusable(e.message))?;
        let mut runner = if ckpt_path.exists() {
            let checkpoint =
                RuntimeCheckpoint::load(&ckpt_path).map_err(|e| unusable(e.to_string()))?;
            IslandRunner::from_checkpoint(checkpoint, &data).map_err(|e| unusable(e.to_string()))?
        } else {
            // Interrupted before the first checkpoint write: restart.
            IslandRunner::new(
                spec.settings(),
                spec.grammar_config(data.n_vars()),
                spec.runtime_config(),
                &data,
            )
            .map_err(|e| unusable(e.to_string()))?
        };
        runner.set_checkpoint_path(&ckpt_path);
        let model_id = spec.name.clone().unwrap_or_else(|| format!("job-{id}"));
        let entry = JobEntry::new(id, model_id, true);
        // An orphan has no originating request to inherit a trace from;
        // it gets a freshly minted one.
        if let Some(traces) = &self.traces {
            let _ = entry.tracer.set(JobTracer::new(traces, None, id));
        }
        self.insert_bounded(Arc::clone(&entry), metrics)
            .map_err(|e| {
                if let Some(tracer) = entry.tracer.get() {
                    tracer.abandon();
                }
                AdoptFailure::Transient(e.message)
            })?;
        // Orphans take the same admission path as fresh submissions: a
        // restart with more interrupted jobs than running slots resumes
        // them a few at a time instead of stampeding.
        let run = PreparedRun {
            runner,
            data,
            var_names: spec.var_names.clone(),
            registry: Arc::clone(registry),
            metrics: Arc::clone(metrics),
            spec_path: Some(spec_path),
            ckpt_path: Some(ckpt_path),
        };
        self.scheduler
            .enqueue(QueuedJob {
                entry: Arc::clone(&entry),
                run,
                queued_at: Instant::now(),
            })
            .map_err(|e| {
                self.jobs.plock().remove(&id);
                if let Some(tracer) = entry.tracer.get() {
                    tracer.abandon();
                }
                AdoptFailure::Transient(e.message)
            })
    }

    /// Looks up a job.
    pub fn get(&self, id: u64) -> Option<Arc<JobEntry>> {
        self.jobs.plock().get(&id).cloned()
    }

    /// Requests cancellation; `false` when the job does not exist. A job
    /// still waiting in the admission queue settles synchronously (it
    /// has no driver thread to ask); a running job's cancel lands
    /// between generations as before.
    pub fn cancel(&self, id: u64) -> bool {
        match self.get(id) {
            Some(entry) => {
                if let Some(job) = self.scheduler.remove_queued(id) {
                    self.settle_unstarted(job, JobOutcome::Cancelled);
                    return true;
                }
                entry.controller.cancel();
                true
            }
            None => false,
        }
    }

    /// Status JSON for every job in id order, optionally filtered to one
    /// [`JobEntry::state`] label.
    pub fn list_json(&self, state: Option<&str>) -> Vec<serde_json::Value> {
        let jobs: Vec<Arc<JobEntry>> = self.jobs.plock().values().cloned().collect();
        jobs.iter()
            .map(|j| j.status_json())
            // Filter on the rendered document so the state tested is the
            // state returned (a second observation could differ).
            .filter(|doc| state.is_none_or(|s| doc["state"].as_str() == Some(s)))
            .collect()
    }

    /// Cancels every job and joins their threads (graceful shutdown).
    /// Unlike a client's `DELETE`, draining is an interruption: each
    /// cancelled job — queued or running — keeps its on-disk spec (+
    /// checkpoint) so the next daemon on this model dir re-adopts and
    /// finishes it.
    pub fn drain(&self) {
        let jobs: Vec<Arc<JobEntry>> = self.jobs.plock().values().cloned().collect();
        for job in &jobs {
            job.preserve_files
                .store(true, std::sync::atomic::Ordering::Relaxed);
        }
        // Empty the queue first so finishing drivers cannot admit new
        // runs mid-drain; queued jobs settle as interrupted (files kept).
        for queued in self.scheduler.take_all_queued() {
            self.settle_unstarted(queued, JobOutcome::Cancelled);
        }
        for job in &jobs {
            job.controller.cancel();
        }
        for job in &jobs {
            job.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> serde_json::Value {
        let points: Vec<Vec<f64>> = (1..=16).map(|i| vec![f64::from(i) * 0.5]).collect();
        let targets: Vec<f64> = points.iter().map(|p| 3.0 / p[0]).collect();
        serde_json::json!({
            "name": "tiny",
            "var_names": ["x0"],
            "points": points,
            "targets": targets,
            "population": 16,
            "generations": 4,
            "max_bases": 4,
            "grammar": "rational",
        })
    }

    fn body(v: &serde_json::Value) -> Vec<u8> {
        serde_json::to_string(v).unwrap().into_bytes()
    }

    fn manager() -> (JobManager, Arc<ModelRegistry>, Arc<Metrics>) {
        (
            JobManager::new(None, 64, 8),
            Arc::new(ModelRegistry::in_memory()),
            Arc::new(Metrics::new()),
        )
    }

    #[test]
    fn spec_parses_with_defaults_and_rejects_garbage() {
        let spec = JobSpec::from_json(&body(&tiny_spec())).unwrap();
        assert_eq!(spec.population, 16);
        assert_eq!(spec.seed, 0);
        assert_eq!(spec.islands, 1);
        assert_eq!(spec.checkpoint_every, 10);
        assert!(JobSpec::from_json(b"not json").is_err());
        assert!(JobSpec::from_json(b"{}").is_err());
        let mut missing_targets = tiny_spec();
        if let serde_json::Value::Object(m) = &mut missing_targets {
            m.insert("targets".into(), serde_json::Value::Null);
        }
        let err = JobSpec::from_json(&body(&missing_targets)).unwrap_err();
        assert!(err.message.contains("targets"), "{}", err.message);
        let mut bad_name = tiny_spec();
        if let serde_json::Value::Object(m) = &mut bad_name {
            m.insert("name".into(), serde_json::Value::String("../x".into()));
        }
        assert_eq!(
            JobSpec::from_json(&body(&bad_name)).unwrap_err().status,
            400
        );
    }

    #[test]
    fn spec_round_trips_through_its_persisted_form() {
        let spec = JobSpec::from_json(&body(&tiny_spec())).unwrap();
        let persisted = serde_json::to_string(&spec.to_json()).unwrap();
        let reread = JobSpec::from_json(persisted.as_bytes()).unwrap();
        assert_eq!(spec, reread);
        // Anonymous jobs round-trip the absent name too.
        let mut anon = tiny_spec();
        if let serde_json::Value::Object(m) = &mut anon {
            m.remove("name");
        }
        let spec = JobSpec::from_json(&body(&anon)).unwrap();
        let persisted = serde_json::to_string(&spec.to_json()).unwrap();
        assert_eq!(spec, JobSpec::from_json(persisted.as_bytes()).unwrap());
    }

    #[test]
    fn job_runs_to_publication() {
        let (manager, registry, metrics) = manager();
        let spec = JobSpec::from_json(&body(&tiny_spec())).unwrap();
        let entry = manager
            .submit(spec, Arc::clone(&registry), Arc::clone(&metrics), None)
            .unwrap();
        entry.join();
        match entry.outcome() {
            JobOutcome::Published {
                model_id, version, ..
            } => {
                assert_eq!(model_id, "tiny");
                assert_eq!(registry.get("tiny", None).unwrap().version, version);
            }
            other => panic!("expected publication, got {other:?}"),
        }
        let status = entry.status_json();
        assert_eq!(status["state"], "finished");
        assert_eq!(status["resumed"], false);
        assert!(status["result"]["n_models"].as_u64().unwrap() > 0);
    }

    #[test]
    fn mismatched_shapes_are_rejected_up_front() {
        let (manager, registry, metrics) = manager();
        let mut bad = tiny_spec();
        if let serde_json::Value::Object(m) = &mut bad {
            m.insert("targets".into(), serde_json::json!([1.0, 2.0]));
        }
        let spec = JobSpec::from_json(&body(&bad)).unwrap();
        let err = manager.submit(spec, registry, metrics, None).unwrap_err();
        assert_eq!(err.status, 400, "{}", err.message);
    }

    #[test]
    fn cancellation_is_observable() {
        let (manager, registry, metrics) = manager();
        let mut long = tiny_spec();
        if let serde_json::Value::Object(m) = &mut long {
            m.insert("generations".into(), serde_json::json!(100_000));
        }
        let spec = JobSpec::from_json(&body(&long)).unwrap();
        let entry = manager.submit(spec, registry, metrics, None).unwrap();
        assert!(manager.cancel(entry.id));
        entry.join();
        assert_eq!(entry.outcome(), JobOutcome::Cancelled);
        assert_eq!(entry.status_json()["state"], "cancelled");
        assert!(!manager.cancel(9999));
    }

    #[test]
    fn event_hub_replays_history_and_closes() {
        let hub = EventHub::default();
        hub.publish(frame("progress", serde_json::json!({"generation": 1})));
        hub.publish(frame("progress", serde_json::json!({"generation": 2})));
        let (history, live) = hub.subscribe();
        assert_eq!(history.len(), 2);
        assert!(live.is_some());
        let rx = live.unwrap();
        hub.publish(frame("done", serde_json::json!({})));
        assert_eq!(rx.recv().unwrap().event, "done");
        hub.close();
        assert!(rx.recv().is_err(), "closed hub ends the stream");
        let (history, live) = hub.subscribe();
        assert_eq!(history.len(), 3);
        assert!(live.is_none(), "closed hub yields history only");
    }

    #[test]
    fn event_hub_history_is_bounded() {
        let hub = EventHub::default();
        for i in 0..(HUB_HISTORY_CAP + 10) {
            hub.publish(frame("progress", serde_json::json!({ "generation": i })));
        }
        let (history, _) = hub.subscribe();
        assert_eq!(history.len(), HUB_HISTORY_CAP);
        assert!(
            history[0].data.contains("\"generation\":10"),
            "{}",
            history[0].data
        );
        // Sequences are stamped at publish and survive the history trim:
        // frames 1..=cap+10 were published, the oldest 10 were evicted,
        // so the retained window is exactly 11..=cap+10 in order.
        assert_eq!(history[0].seq, 11);
        assert_eq!(history.last().unwrap().seq, (HUB_HISTORY_CAP + 10) as u64);
        for pair in history.windows(2) {
            assert_eq!(pair[1].seq, pair[0].seq + 1, "gap in sequence");
        }
    }

    #[test]
    fn finished_jobs_emit_a_done_event_and_close_their_stream() {
        let (manager, registry, metrics) = manager();
        let spec = JobSpec::from_json(&body(&tiny_spec())).unwrap();
        let entry = manager.submit(spec, registry, metrics, None).unwrap();
        entry.join();
        // The pump publishes `done` after the driver exits; wait for it.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        let history = loop {
            let (history, live) = entry.events.subscribe();
            if live.is_none() {
                break history;
            }
            assert!(std::time::Instant::now() < deadline, "hub never closed");
            std::thread::yield_now();
        };
        let done = history.last().expect("at least the done event");
        assert_eq!(done.event, "done");
        assert!(
            done.data.contains("\"state\":\"finished\""),
            "{}",
            done.data
        );
        assert!(
            history.iter().any(|f| f.event == "progress"),
            "expected at least one progress frame: {history:?}"
        );
        let rendered = done.render();
        assert!(done.seq > 0, "published frames carry a sequence");
        assert!(
            rendered.starts_with(&format!("id: {}\nevent: done\ndata: {{", done.seq)),
            "{rendered}"
        );
        assert!(rendered.ends_with("\n\n"), "{rendered:?}");
    }

    #[test]
    fn full_store_evicts_terminal_jobs_then_answers_429() {
        let manager = JobManager::new(None, 2, 2);
        let registry = Arc::new(ModelRegistry::in_memory());
        let metrics = Arc::new(Metrics::new());
        let submit = |generations: u64| {
            let mut spec = tiny_spec();
            if let serde_json::Value::Object(m) = &mut spec {
                m.remove("name");
                m.insert("generations".into(), serde_json::json!(generations));
            }
            manager.submit(
                JobSpec::from_json(&body(&spec)).unwrap(),
                Arc::clone(&registry),
                Arc::clone(&metrics),
                None,
            )
        };
        // Fill the store with one quick job (runs to terminal) and one
        // long-lived job.
        let quick = submit(2).unwrap();
        quick.join();
        let long_a = submit(1_000_000).unwrap();
        // Full, but the quick job is terminal: submitting evicts it.
        let long_b = submit(1_000_000).unwrap();
        assert!(manager.get(quick.id).is_none(), "terminal job evicted");
        // Now both slots hold live jobs: 429.
        let err = submit(1_000_000).unwrap_err();
        assert_eq!(err.status, 429, "{}", err.message);
        assert_eq!(err.code, "too_many_jobs");
        // Cancelling frees a slot for the next submission.
        manager.cancel(long_a.id);
        long_a.join();
        let long_c = submit(1_000_000).unwrap();
        assert!(manager.get(long_c.id).is_some());
        manager.drain();
        let _ = long_b;
    }

    #[test]
    fn list_json_filters_by_state() {
        let (manager, registry, metrics) = manager();
        let quick = manager
            .submit(
                JobSpec::from_json(&body(&tiny_spec())).unwrap(),
                Arc::clone(&registry),
                Arc::clone(&metrics),
                None,
            )
            .unwrap();
        quick.join();
        let mut long = tiny_spec();
        if let serde_json::Value::Object(m) = &mut long {
            m.remove("name");
            m.insert("generations".into(), serde_json::json!(1_000_000));
        }
        let long_entry = manager
            .submit(
                JobSpec::from_json(&body(&long)).unwrap(),
                registry,
                metrics,
                None,
            )
            .unwrap();
        assert_eq!(manager.list_json(None).len(), 2);
        let finished = manager.list_json(Some("finished"));
        assert_eq!(finished.len(), 1);
        assert_eq!(finished[0]["id"].as_u64(), Some(quick.id));
        let running = manager.list_json(Some("running"));
        assert_eq!(running.len(), 1);
        assert_eq!(running[0]["id"].as_u64(), Some(long_entry.id));
        assert!(manager.list_json(Some("failed")).is_empty());
        manager.drain();
    }

    /// A burst of submissions beyond the running limit must queue FIFO —
    /// never spawn more than `max_running` concurrent runs, keep monotone
    /// queue positions, and be admitted in submission order.
    #[test]
    fn burst_submissions_queue_fifo_and_never_exceed_running_slots() {
        let manager = JobManager::new(None, 64, 2);
        let registry = Arc::new(ModelRegistry::in_memory());
        let metrics = Arc::new(Metrics::new());
        let submit = |i: usize, generations: usize| {
            let mut spec = tiny_spec();
            if let serde_json::Value::Object(m) = &mut spec {
                m.insert("name".into(), serde_json::json!(format!("burst-{i}")));
                m.insert("generations".into(), serde_json::json!(generations));
            }
            manager.submit(
                JobSpec::from_json(&body(&spec)).unwrap(),
                Arc::clone(&registry),
                Arc::clone(&metrics),
                None,
            )
        };

        // Phase 1: long-lived jobs make the queue shape observable.
        let held: Vec<Arc<JobEntry>> = (0..8).map(|i| submit(i, 1_000_000).unwrap()).collect();
        let states: Vec<&str> = held.iter().map(|e| e.state()).collect();
        assert_eq!(
            states,
            vec!["running", "running", "queued", "queued", "queued", "queued", "queued", "queued"],
            "burst must yield max_running running + the rest queued"
        );
        let positions: Vec<Option<usize>> = held.iter().map(|e| e.queue_position()).collect();
        assert_eq!(
            positions[2..],
            [Some(1), Some(2), Some(3), Some(4), Some(5), Some(6)],
            "queue positions are monotone in submission order"
        );
        assert_eq!(manager.queue_depth(), 6);
        assert_eq!(metrics.jobs_queued(), 6);
        let doc = held[4].status_json();
        assert_eq!(doc["state"], "queued");
        assert_eq!(doc["queue_position"].as_u64(), Some(3));

        // Cancelling a queued job settles it instantly (no driver ever
        // existed) and renumbers the jobs behind it.
        assert!(manager.cancel(held[4].id));
        assert_eq!(held[4].outcome(), JobOutcome::Cancelled);
        assert_eq!(held[4].state(), "cancelled");
        assert_eq!(
            held[5].queue_position(),
            Some(3),
            "renumbered after removal"
        );
        // ...and its hub closed with a terminal done frame.
        let (history, live) = held[4].events.subscribe();
        assert!(live.is_none());
        assert_eq!(history.last().unwrap().event, "done");

        // Cancelling a *running* job frees its slot for the queue head.
        assert!(manager.cancel(held[0].id));
        held[0].join();
        let deadline = Instant::now() + std::time::Duration::from_secs(10);
        while held[2].queue_position().is_some() {
            assert!(Instant::now() < deadline, "queue head never admitted");
            std::thread::yield_now();
        }
        assert_eq!(manager.queue_depth(), 4);
        manager.drain();

        // Phase 2: FIFO admission of short jobs. How fast each job runs is
        // up to the OS, so finishing order proves nothing; the scheduler's
        // own admission stamps must follow submission order. The sampler
        // asserts the concurrency bound and the FIFO shape.
        let manager = JobManager::new(None, 64, 2);
        let jobs: Vec<Arc<JobEntry>> = (0..6)
            .map(|i| {
                let mut spec = tiny_spec();
                if let serde_json::Value::Object(m) = &mut spec {
                    m.insert("name".into(), serde_json::json!(format!("fifo-{i}")));
                    m.insert("generations".into(), serde_json::json!(10 * (i + 1)));
                }
                manager
                    .submit(
                        JobSpec::from_json(&body(&spec)).unwrap(),
                        Arc::clone(&registry),
                        Arc::clone(&metrics),
                        None,
                    )
                    .unwrap()
            })
            .collect();
        let deadline = Instant::now() + std::time::Duration::from_secs(120);
        loop {
            assert!(Instant::now() < deadline, "burst never completed");
            // Read the latest submission first. Admission is FIFO and a
            // slot frees only after its job leaves `running`, so in this
            // order any two jobs seen `running` really ran together, and a
            // job seen queued after a later one was seen admitted would
            // really be out of order. (Reading in submission order races
            // with admissions between the reads.)
            let mut states: Vec<&str> = jobs.iter().rev().map(|e| e.state()).collect();
            states.reverse();
            assert!(
                states.iter().filter(|s| **s == "running").count() <= 2,
                "more than max_running concurrent runs: {states:?}"
            );
            // FIFO: the queued jobs are always a suffix of submission
            // order (admission can never leapfrog).
            if let Some(first_queued) = states.iter().position(|s| *s == "queued") {
                assert!(
                    states[first_queued..].iter().all(|s| *s == "queued"),
                    "queue admitted out of order: {states:?}"
                );
            }
            if states.iter().all(|s| *s == "finished") {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let admitted: Vec<u64> = jobs
            .iter()
            .map(|e| e.admission_seq.load(Ordering::Relaxed))
            .collect();
        assert_eq!(
            admitted,
            (1..=6).collect::<Vec<u64>>(),
            "jobs must be admitted in submission order"
        );
        for job in &jobs {
            assert!(matches!(job.outcome(), JobOutcome::Published { .. }));
        }
    }

    /// Drained queued jobs keep their spec files and re-adopt through
    /// the same admission queue on the next start.
    #[test]
    fn drain_preserves_queued_jobs_and_readoption_requeues() {
        let dir = std::env::temp_dir().join(format!(
            "caffeine-queue-drain-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let registry = Arc::new(ModelRegistry::in_memory());
        let metrics = Arc::new(Metrics::new());
        let manager = JobManager::new(Some(dir.clone()), 8, 1);
        let submit = |mgr: &JobManager| {
            let mut spec = tiny_spec();
            if let serde_json::Value::Object(m) = &mut spec {
                m.remove("name");
                m.insert("generations".into(), serde_json::json!(1_000_000));
                m.insert("checkpoint_every".into(), serde_json::json!(1));
            }
            mgr.submit(
                JobSpec::from_json(&body(&spec)).unwrap(),
                Arc::clone(&registry),
                Arc::clone(&metrics),
                None,
            )
            .unwrap()
        };
        let running = submit(&manager);
        let queued = submit(&manager);
        assert_eq!(running.state(), "running");
        assert_eq!(queued.state(), "queued");
        manager.drain();
        assert_eq!(running.outcome(), JobOutcome::Cancelled);
        assert_eq!(queued.outcome(), JobOutcome::Cancelled);
        for id in [running.id, queued.id] {
            assert!(
                dir.join(format!("job-{id}.spec.json")).exists(),
                "drain must preserve job {id}'s spec (queued or running)"
            );
        }

        // The next daemon re-adopts both through the admission queue:
        // one running slot, so one resumes and one queues.
        let manager2 = JobManager::new(Some(dir.clone()), 8, 1);
        assert_eq!(manager2.adopt_orphans(&registry, &metrics), 2);
        let readopted_running = manager2.get(running.id).unwrap();
        let readopted_queued = manager2.get(queued.id).unwrap();
        assert!(readopted_running.resumed && readopted_queued.resumed);
        assert_eq!(readopted_running.state(), "running");
        assert_eq!(readopted_queued.state(), "queued");
        assert_eq!(readopted_queued.queue_position(), Some(1));
        manager2.drain();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn full_store_429_carries_a_queue_derived_retry_after() {
        let manager = JobManager::new(None, 2, 1);
        let registry = Arc::new(ModelRegistry::in_memory());
        let metrics = Arc::new(Metrics::new());
        let submit = || {
            let mut spec = tiny_spec();
            if let serde_json::Value::Object(m) = &mut spec {
                m.remove("name");
                m.insert("generations".into(), serde_json::json!(1_000_000));
            }
            manager.submit(
                JobSpec::from_json(&body(&spec)).unwrap(),
                Arc::clone(&registry),
                Arc::clone(&metrics),
                None,
            )
        };
        let _running = submit().unwrap();
        let _queued = submit().unwrap();
        let err = submit().unwrap_err();
        assert_eq!(err.status, 429);
        // One job waits in the queue → Retry-After = 1 + depth = 2.
        assert_eq!(err.retry_after, Some(2));
        manager.drain();
    }

    #[test]
    fn orphaned_specs_are_adopted_and_run_to_publication() {
        let dir = std::env::temp_dir().join(format!(
            "caffeine-adopt-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        // A previous daemon's wreckage: a spec without a checkpoint
        // (killed before the first write) and one corrupt spec.
        let spec = JobSpec::from_json(&body(&tiny_spec())).unwrap();
        std::fs::write(
            dir.join("job-7.spec.json"),
            serde_json::to_string(&spec.to_json()).unwrap(),
        )
        .unwrap();
        std::fs::write(dir.join("job-9.spec.json"), "{ not json").unwrap();

        let manager = JobManager::new(Some(dir.clone()), 8, 8);
        let registry = Arc::new(ModelRegistry::in_memory());
        let metrics = Arc::new(Metrics::new());
        let adopted = manager.adopt_orphans(&registry, &metrics);
        assert_eq!(adopted, 2);

        let good = manager.get(7).expect("job 7 adopted");
        assert!(good.resumed);
        good.join();
        assert!(matches!(good.outcome(), JobOutcome::Published { .. }));
        assert!(registry.get("tiny", None).is_some());

        let bad = manager.get(9).expect("job 9 surfaced");
        assert!(bad.resumed);
        assert!(matches!(bad.outcome(), JobOutcome::Failed { .. }));
        assert_eq!(bad.status_json()["state"], "failed");
        assert!(
            !dir.join("job-9.spec.json").exists(),
            "unusable spec cleaned up"
        );

        // Fresh ids never collide with adopted ones.
        let fresh = manager
            .submit(
                JobSpec::from_json(&body(&tiny_spec())).unwrap(),
                registry,
                metrics,
                None,
            )
            .unwrap();
        assert!(fresh.id > 9, "id {} collides with adopted ids", fresh.id);
        manager.drain();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn drain_preserves_interrupted_jobs_but_client_cancel_does_not() {
        let dir = std::env::temp_dir().join(format!(
            "caffeine-drain-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let registry = Arc::new(ModelRegistry::in_memory());
        let metrics = Arc::new(Metrics::new());
        let mut long = tiny_spec();
        if let serde_json::Value::Object(m) = &mut long {
            m.insert("generations".into(), serde_json::json!(1_000_000));
            m.insert("checkpoint_every".into(), serde_json::json!(1));
        }

        // Drain (graceful shutdown) cancels the job but must keep its
        // spec + checkpoint so the next daemon re-adopts it.
        let manager = JobManager::new(Some(dir.clone()), 8, 8);
        let entry = manager
            .submit(
                JobSpec::from_json(&body(&long)).unwrap(),
                Arc::clone(&registry),
                Arc::clone(&metrics),
                None,
            )
            .unwrap();
        let id = entry.id;
        manager.drain();
        assert_eq!(entry.outcome(), JobOutcome::Cancelled);
        assert!(
            dir.join(format!("job-{id}.spec.json")).exists(),
            "drain must preserve the spec"
        );

        // The next manager re-adopts the interrupted job...
        let manager2 = JobManager::new(Some(dir.clone()), 8, 8);
        assert_eq!(manager2.adopt_orphans(&registry, &metrics), 1);
        let readopted = manager2.get(id).expect("job re-adopted after drain");
        assert!(readopted.resumed);

        // ...and a *client* cancel of the re-adopted job is a decision,
        // not an interruption: the files go away.
        assert!(manager2.cancel(id));
        readopted.join();
        assert_eq!(readopted.outcome(), JobOutcome::Cancelled);
        assert!(
            !dir.join(format!("job-{id}.spec.json")).exists(),
            "client cancel must remove the spec"
        );
        assert!(!dir.join(format!("job-{id}.ckpt")).exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn adoption_beyond_capacity_skips_jobs_but_keeps_their_files() {
        let dir = std::env::temp_dir().join(format!(
            "caffeine-adopt-cap-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        // Three healthy orphaned specs, all long-running (stay live).
        for id in [1u64, 2, 3] {
            let mut spec = tiny_spec();
            if let serde_json::Value::Object(m) = &mut spec {
                m.remove("name");
                m.insert("generations".into(), serde_json::json!(1_000_000));
            }
            std::fs::write(
                dir.join(format!("job-{id}.spec.json")),
                serde_json::to_string(&spec).unwrap(),
            )
            .unwrap();
        }
        let manager = JobManager::new(Some(dir.clone()), 2, 2);
        let registry = Arc::new(ModelRegistry::in_memory());
        let metrics = Arc::new(Metrics::new());
        let adopted = manager.adopt_orphans(&registry, &metrics);
        assert_eq!(adopted, 2, "capacity 2 admits two of the three");
        assert!(manager.get(1).is_some());
        assert!(manager.get(2).is_some());
        assert!(manager.get(3).is_none(), "third job skipped, not adopted");
        assert!(
            dir.join("job-3.spec.json").exists(),
            "the skipped job's spec must survive for a later restart"
        );
        manager.drain();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn terminal_jobs_clean_up_their_disk_state() {
        let dir = std::env::temp_dir().join(format!(
            "caffeine-jobfiles-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let manager = JobManager::new(Some(dir.clone()), 8, 8);
        let registry = Arc::new(ModelRegistry::in_memory());
        let metrics = Arc::new(Metrics::new());
        let mut spec = tiny_spec();
        if let serde_json::Value::Object(m) = &mut spec {
            m.insert("checkpoint_every".into(), serde_json::json!(1));
        }
        let entry = manager
            .submit(
                JobSpec::from_json(&body(&spec)).unwrap(),
                registry,
                metrics,
                None,
            )
            .unwrap();
        entry.join();
        assert!(matches!(entry.outcome(), JobOutcome::Published { .. }));
        let leftovers: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok()?.file_name().into_string().ok())
            .filter(|n| n.starts_with(&format!("job-{}", entry.id)))
            .collect();
        assert!(leftovers.is_empty(), "leftover job files: {leftovers:?}");
        // The driver unlinks the trashed files before its thread exits,
        // which `join` waited for.
        let trash: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok()?.file_name().into_string().ok())
            .filter(|n| n.starts_with(TRASH_PREFIX))
            .collect();
        assert!(trash.is_empty(), "leftover trash files: {trash:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn startup_sweeps_trash_a_stopped_daemon_left() {
        let dir = std::env::temp_dir().join(format!(
            "caffeine-trash-sweep-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        // Trashed but never unlinked: the daemon stopped in between.
        for name in [
            ".trash-job-7.spec.json",
            ".trash-job-7.ckpt",
            ".trash-job-7.ckpt.partial",
        ] {
            std::fs::write(dir.join(name), "{}").unwrap();
        }
        std::fs::write(dir.join("notes.txt"), "not ours").unwrap();
        let manager = JobManager::new(Some(dir.clone()), 8, 2);
        let registry = Arc::new(ModelRegistry::in_memory());
        let metrics = Arc::new(Metrics::new());
        assert_eq!(manager.adopt_orphans(&registry, &metrics), 0);
        let mut left: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok()?.file_name().into_string().ok())
            .collect();
        left.sort();
        assert_eq!(left, ["notes.txt"], "only the trash is swept");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn every_state_label_is_a_listed_state() {
        use caffeine_runtime::RunPhase;
        let outcomes = [
            JobOutcome::Pending,
            JobOutcome::Published {
                model_id: "m".into(),
                version: "v".into(),
                n_models: 1,
            },
            JobOutcome::Failed {
                message: "boom".into(),
            },
            JobOutcome::Cancelled,
        ];
        let mut seen = std::collections::BTreeSet::new();
        for outcome in &outcomes {
            for phase in [RunPhase::Running, RunPhase::Cancelled, RunPhase::Finished] {
                for queued in [false, true] {
                    seen.insert(JobEntry::state_label(outcome, phase, queued));
                }
            }
        }
        let listed: std::collections::BTreeSet<_> = JobEntry::STATES.into_iter().collect();
        assert_eq!(seen, listed);
    }
}
