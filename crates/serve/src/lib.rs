//! `caffeine-serve` — a zero-dependency model-serving daemon for the
//! CAFFEINE workspace.
//!
//! The engine's payoff is that fitted canonical-form models are cheap
//! surrogates that replace SPICE in downstream sizing loops; that value
//! is only realized when the models can be *queried at scale*. This
//! crate puts a network front door on the PR-2 batch-evaluation path
//! using nothing but `std`:
//!
//! * **HTTP/1.1 over `std::net`** ([`http`]): a strict, bounded request
//!   parser (never panics, answers 400/413/501 on hostile input), a
//!   bounded worker thread pool ([`WorkerPool`]) with 503 backpressure
//!   and draining shutdown, keep-alive connections with a per-connection
//!   request budget and idle timeout, and chunked transfer-encoding for
//!   streamed responses.
//! * **Versioned model registry** ([`ModelRegistry`]): fitted Pareto
//!   fronts as content-hash-addressed JSON artifacts
//!   ([`caffeine_core::ModelArtifact`]), in memory with optional disk
//!   persistence, idempotent publication, and per-id version history.
//! * **Batched prediction**: `POST /v1/models/{id}/predict` scans the
//!   body in one pass straight into a column-major batch (no JSON tree),
//!   evaluates it through the compiled-tape batch path with full shape
//!   validation (empty/ragged/mismatched batches are structured 400s,
//!   never panics), and writes the predictions directly.
//! * **Async modeling jobs** ([`JobManager`]): `POST /v1/jobs` admits a
//!   GP run through a FIFO **admission scheduler** — at most
//!   `--max-running-jobs` runs execute concurrently, the rest wait in
//!   the `queued` state with a visible queue position — onto background
//!   threads through `caffeine-runtime`'s island engine and
//!   [`caffeine_runtime::RunController`], with live progress snapshots,
//!   SSE event streaming ([`EventHub`]) served by a dedicated streamer
//!   thread ([`SseStreamer`], so open streams never occupy pool
//!   workers), checkpointing, cancellation, automatic publication of
//!   the finished front into the registry, a bounded store with
//!   terminal-state eviction, and re-adoption of interrupted jobs on
//!   restart (through the same queue).
//! * **Observability** ([`Metrics`]): request counts, per-route latency
//!   histograms, registry cache hits, engine phase timings, and
//!   job/keep-alive/SSE counters in the Prometheus text format at
//!   `GET /metrics`; structured (text or JSON) access logs with an
//!   `X-Request-Id` echoed on every response; distributed tracing
//!   ([`caffeine_obs::TraceStore`]) — every request opens a server span
//!   (W3C `traceparent` accepted inbound and echoed back), job
//!   submission links the job's whole lifecycle (queued wait, engine
//!   phases, checkpoint writes, publication) into the submitting
//!   request's trace, and tail-sampled span trees are queryable at
//!   `GET /v1/traces`; and an embedded zero-dependency live dashboard
//!   with a trace waterfall at `GET /dashboard` (see
//!   `docs/OBSERVABILITY.md`).
//!
//! # Endpoints
//!
//! | Method & path                        | Purpose                          |
//! |--------------------------------------|----------------------------------|
//! | `GET /healthz`                       | liveness                         |
//! | `GET /readyz`                        | readiness (503 while draining)   |
//! | `GET /metrics`                       | Prometheus metrics               |
//! | `GET /dashboard`                     | live jobs dashboard (HTML)       |
//! | `GET /v1/models`                     | list ids and versions            |
//! | `POST /v1/models/{id}`               | publish an artifact              |
//! | `GET /v1/models/{id}[?version=h]`    | fetch an artifact                |
//! | `POST /v1/models/{id}/predict`       | batched prediction               |
//! | `GET /v1/jobs[?state=s]` · `POST /v1/jobs` | list / submit modeling jobs |
//! | `GET /v1/jobs/{id}`                  | job status and progress          |
//! | `GET /v1/jobs/{id}/events`           | live job events (SSE stream)     |
//! | `DELETE /v1/jobs/{id}`               | cancel a job (409 if terminal)   |
//! | `GET /v1/traces[?min_duration_ms=n&error=true&job=id]` | sampled trace summaries |
//! | `GET /v1/traces/{trace_id}`          | one trace's full span tree       |
//! | `POST /v1/admin/shutdown`            | graceful drain                   |
//!
//! The full request/response contract lives in `docs/API.md` at the
//! workspace root. Connections are kept alive between requests (bounded
//! per-connection request budget + idle timeout); the job store is
//! bounded with terminal-state eviction; and a daemon restarted over the
//! same `--model-dir` re-adopts jobs that were interrupted mid-run from
//! their checkpoints.
//!
//! # Quickstart
//!
//! ```
//! use caffeine_serve::{client, Server, ServeConfig};
//! use std::time::Duration;
//!
//! let server = Server::bind(ServeConfig {
//!     addr: "127.0.0.1:0".into(), // ephemeral port
//!     ..ServeConfig::default()
//! }).unwrap();
//! let addr = server.local_addr().to_string();
//! let handle = server.handle();
//! let thread = std::thread::spawn(move || server.serve());
//!
//! let r = client::request(&addr, "GET", "/healthz", None, Duration::from_secs(2)).unwrap();
//! assert_eq!(r.status, 200);
//!
//! handle.shutdown();
//! thread.join().unwrap().unwrap();
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod client;
mod dashboard;
mod error;
mod handlers;
pub mod http;
mod jobs;
mod metrics;
mod pool;
mod predict;
mod registry;
mod router;
mod server;
mod sse;
mod sync;

pub use error::ApiError;

/// The `caffeine-serve` crate version, as stamped into
/// `caffeine_build_info` on `/metrics` and into bench snapshots.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");
pub use jobs::{EventHub, JobEntry, JobEventFrame, JobManager, JobOutcome, JobSpec};
pub use metrics::Metrics;
pub use pool::WorkerPool;
pub use registry::{ModelRegistry, StoredVersion};
pub use router::{route, valid_model_id, Route};
pub use server::{ServeConfig, Server, ServerHandle, Shared};
pub use sse::SseStreamer;
